import shutil
import subprocess
import sys
from pathlib import Path

FAILING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_fails(x):
    assert x < 0


def test_b_passes():
    pass
'''


def test_a_failing_given_test_leaves_the_session_running(tmp_path):
    # hypothesis's report on a failing @given test used to raise a
    # DeprecationWarning under the suite's "error" mark and end the whole
    # session with INTERNALERROR, losing every later result
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_given.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
    assert run.returncode == 1
