import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from clgcd.cli import run
from clgcd.errors import ConsistencyError
from clgcd.spectral import solve_operator

TRACE_31_75 = """\
run on (31, 75), canonical convention
i  a_i  shifted  remainder  shifted_2  remainder_2  v(sh)  v(rem)  v(gcd)
0    -       75         31    1001011        11111      0       0       0
1    1       62         13     111110         1101      1       0       0
2    2       52         10     110100         1010      2       1       1
3    2       40         12     101000         1100      3       2       2
4    1       24         16      11000        10000      3       4       3
5    0       16          8      10000         1000      4       3       3
6    0        8          8       1000         1000      3       3       3
7    0        8          0       1000            0      3     inf       3
K = 7, S = 6, terminal = (0, 8), odd gcd = 1  [final step rewritten (a) -> (a-1, 0)]
"""

CONSTANTS = """\
E = 2.600460
D = 0.976936
A = 1.623524
B_conj = 0.283789
H_conj = 1.339735
2/H = 1.492833

per-step mean growth M(c):
sigma = 0.976936
q = 2.600460
rho = 1.260725
r = 1.339735
q2 = 1.260725
"""

DIRICHLET = """\
partial sum S(2) over q <= 10000 = 1.1106265323
zeta(3)/zeta(4) = 1.1106265353
deviation = -3.040e-09 (tail scale N^(2-2s) = 1.0e-08)
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_reference_output(capsys):
    code, out, _ = invoke(capsys, "trace", "31", "75")
    assert code == 0
    assert out == TRACE_31_75


def test_trace_greedy(capsys):
    code, out, _ = invoke(capsys, "trace", "31", "75", "--convention", "greedy")
    assert code == 0
    assert out.splitlines()[0] == "run on (31, 75), greedy convention"
    assert out.splitlines()[-1] == "K = 6, S = 7, terminal = (0, 16), odd gcd = 1"
    assert "rewritten" not in out


def test_trace_json(capsys):
    code, out, _ = invoke(capsys, "trace", "31", "75", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["K"] == 7 and d["S"] == 6
    assert d["rows"][1]["a_i"] == 1
    assert d["rows"][-1]["val_remainder"] is None


def test_expand(capsys):
    code, out, _ = invoke(capsys, "expand", "--rational", "31/75")
    assert code == 0
    assert out == "1,2,2,1,0,0,0\nK = 7, S = 6\n"
    _, out, _ = invoke(capsys, "expand", "--rational", "31/75",
                       "--convention", "greedy")
    assert out == "1,2,2,1,0,1\nK = 6, S = 7\n"
    _, out, _ = invoke(capsys, "expand", "--rational", "31/75", "--depth", "3")
    assert out.splitlines()[0] == "1,2,2"


def test_expand_bad_rational(capsys):
    code, _, err = invoke(capsys, "expand", "--rational", "31:75")
    assert code == 1
    assert err.startswith("error:")


def test_eval_example(capsys):
    code, out, _ = invoke(capsys, "eval", "--exponents", "1,2")
    assert code == 0
    assert out == "2/5 (P=4, Q=10, g=2, R=5)\n"


def test_eval_json(capsys):
    code, out, _ = invoke(capsys, "eval", "--exponents", "1,2,2,1,0,0,0",
                          "--json")
    assert code == 0
    d = json.loads(out)
    assert (d["numerator"], d["denominator"]) == (31, 75)
    assert d["value"] == "31/75"


def test_constants_output(capsys):
    code, out, _ = invoke(capsys, "constants")
    assert code == 0
    assert out == CONSTANTS


def test_constants_json(capsys):
    code, out, _ = invoke(capsys, "constants", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["E"] == pytest.approx(2.600460, abs=1e-6)
    assert set(d["mean_costs"]) == {"sigma", "q", "rho", "r", "q2"}


def test_eigen(capsys):
    code, out, _ = invoke(capsys, "eigen", "--t", "1", "--v", "0",
                          "--grid", "32")
    assert code == 0
    lam = float(out.splitlines()[0].split("=")[1])
    assert lam == pytest.approx(1.0, abs=1e-8)
    code, out, _ = invoke(capsys, "eigen", "--t", "1", "--v", "0",
                          "--grid", "32", "--json", "--eigenfunction")
    d = json.loads(out)
    assert len(d["eigenfunction"]) == 32


def test_eigen_text_names_the_tail_bound(capsys):
    code, out, _ = invoke(capsys, "eigen", "--t", "1.1", "--v", "0.1",
                          "--grid", "32", "--tail-tol", "1e-10")
    assert code == 0
    res = solve_operator(1.1, 0.1, n=32, tail_tol=1e-10)
    assert out.splitlines()[1] == (
        f"grid = 32, branches = {res.a_max}, tail_tol = 1e-10, "
        f"iterations = {res.iterations}")


def test_eigen_json_names_the_tail_bound(capsys):
    code, out, _ = invoke(capsys, "eigen", "--t", "1.1", "--v", "0.1",
                          "--grid", "32", "--tail-tol", "1e-10", "--json")
    assert code == 0
    d = json.loads(out)
    res = solve_operator(1.1, 0.1, n=32, tail_tol=1e-10)
    assert d["tail_tol"] == 1e-10
    assert d["a_max"] == res.a_max
    assert d["iterations"] == res.iterations
    assert d["residual"] == res.residual
    assert "eigenfunction" not in d


def test_eigen_outside_box(capsys):
    code, _, err = invoke(capsys, "eigen", "--t", "0.5", "--v", "0")
    assert code == 1
    assert err.startswith("error:")


def test_taylor_json(capsys):
    code, out, _ = invoke(capsys, "taylor", "--grid", "32", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["A_estimate"] == pytest.approx(d["A_closed"], abs=1e-5)
    assert d["D_estimate"] == pytest.approx(d["D_closed"], abs=1e-5)


def test_taylor_text(capsys):
    code, out, _ = invoke(capsys, "taylor", "--grid", "32")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("-dlambda/dt = 1.623524 (closed form A = 1.623524")
    assert lines[1].startswith(" dlambda/dv = 0.976936 (closed form D = 0.976936")
    assert lines[2].startswith("grid = 32, branches = ")
    name, value = lines[3].split(" = ")
    assert name == "residual" and float(value) < 1e-10


def test_experiment_exhaustive_with_csv(capsys, tmp_path):
    out_file = tmp_path / "costs.csv"
    code, out, _ = invoke(capsys, "experiment", "--nmax", "60",
                          "--exhaustive", "--out", str(out_file))
    assert code == 0
    assert out.splitlines()[0].startswith(
        "mean costs over Omega_N: N = 60, exhaustive,")
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "N,mode,samples,cost,mean,stderr,ratio_to_K,theory,deviation"
    assert len(lines) == 8


def test_experiment_json(capsys):
    code, out, _ = invoke(capsys, "experiment", "--nmax", "60",
                          "--exhaustive", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["mode"] == "exhaustive"
    assert set(d["means"]) == {"K", "S", "sigma", "q", "rho", "r", "q2"}


def test_experiment_names_an_all_pairs_run(capsys):
    args = ("experiment", "--nmax", "20", "--exhaustive")
    for extra, coprime in (((), True), (("--all-pairs",), False)):
        _, text, _ = invoke(capsys, *args, *extra)
        head = text.splitlines()[0]
        assert ("exhaustive, all pairs," in head) is not coprime
        _, out, _ = invoke(capsys, *args, *extra, "--json")
        assert json.loads(out)["coprime_only"] is coprime


def test_experiment_byte_identical(capsys):
    args = ("experiment", "--nmax", "2000", "--samples", "400")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_experiment_slope_rejects_exhaustive(capsys):
    code, _, err = invoke(capsys, "experiment", "--nmax", "65536",
                          "--slope", "--exhaustive")
    assert code == 1
    assert "slope ladder" in err


def test_experiment_slope_rejects_all_pairs(capsys):
    code, out, err = invoke(capsys, "experiment", "--nmax", "65536",
                            "--samples", "200", "--slope", "--all-pairs")
    assert code == 1
    assert out == ""
    assert "slope ladder" in err and "--all-pairs" in err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_experiment_rejects_threads_below_one(capsys, threads):
    code, out, err = invoke(capsys, "experiment", "--nmax", "1000",
                            "--samples", "100", "--threads", threads)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "threads" in err


def test_dirichlet_output(capsys):
    code, out, _ = invoke(capsys, "dirichlet")
    assert code == 0
    assert out == DIRICHLET


@pytest.mark.parametrize("s", ["1e200", "1e308"])
def test_dirichlet_at_huge_s_prints_the_limit(capsys, s):
    # zeta(2s - 1) and zeta(2s) are both 1.0 here, as at s = 200; the
    # Euler-Maclaurin tail must not turn them into inf * 0 = nan
    code, out, err = invoke(capsys, "dirichlet", "--s", s)
    assert code == 0 and err == ""
    assert "nan" not in out
    lines = out.splitlines()
    assert lines[1].endswith(" = 1.0000000000")
    assert lines[2].startswith("deviation = +0.000e+00 ")


def test_worstcase_output(capsys, tmp_path):
    out_file = tmp_path / "family.csv"
    code, out, _ = invoke(capsys, "worstcase", "--nmax", "8",
                          "--out", str(out_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "worst-case family (1, 2^n - 1), n = 2..8"
    assert lines[-2] == "greedy: K ~ 2.000000*n -2.000000, S ~ 0.500000*n^2 + O(n)"
    assert lines[-1] == "canonical: K ~ 2.000000*n -1.000000, S ~ 0.500000*n^2 + O(n)"
    assert len(out_file.read_text().strip().splitlines()) == 8


@pytest.mark.parametrize("argv", [
    ("worstcase", "--nmax", "8"),
    ("experiment", "--nmax", "100", "--exhaustive"),
    ("experiment", "--nmax", "65536", "--samples", "100", "--slope"),
])
@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_unwritable_out_exits_1(capsys, tmp_path, argv, target):
    # a missing directory or a directory as the file was a traceback
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_worstcase_json(capsys):
    code, out, _ = invoke(capsys, "worstcase", "--nmax", "6", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["rows"][0] == [2, 2, 2, 3, 1]
    assert set(d["fits"]) == {"greedy", "canonical"}


def test_conjecture_smoke(capsys):
    args = ("conjecture", "--bits", "16", "--samples", "64",
            "--nmax", "65536", "--pair-samples", "1000")
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "conjectured B + D = 1.260725"
    assert lines[-1].startswith("verdict: ")
    code, out, _ = invoke(capsys, *args, "--json")
    assert code == 0
    d = json.loads(out)
    assert d["birkhoff"]["bits"] == 16
    assert d["slope"]["N_max"] == 65536
    assert d["target"] == pytest.approx(1.260725, abs=1e-6)


def test_domain_error_exits_1(capsys):
    code, _, err = invoke(capsys, "trace", "75", "31")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("eigen", "--t", "1", "--v", "0", "--tail-tol", "nan"),
    ("eigen", "--t", "1", "--v", "0", "--tail-tol", "inf"),
    ("dirichlet", "--s", "nan"),
    ("dirichlet", "--s", "inf"),
    ("constants", "--terms", "2000"),
    ("eigen", "--t", "1", "--v", "0", "--tail-tol", "1e-320"),
    ("constants", "--terms", "0"),
    ("expand", "--rational", "31/75", "--depth", "0"),
    ("eigen", "--t", "1", "--v", "0", "--grid", "1"),
    ("taylor", "--grid", "1"),
    ("experiment", "--nmax", "1"),
    ("experiment", "--nmax", "100", "--samples", "1"),
    ("experiment", "--nmax", "20000", "--exhaustive"),
    ("experiment", "--nmax", "1000", "--slope"),
    ("dirichlet", "--nmax", "1"),
    ("worstcase", "--nmax", "3"),
    ("conjecture", "--bits", "8"),
    ("conjecture", "--samples", "1"),
])
def test_out_of_range_floats_and_terms_exit_1(capsys, argv):
    # non-finite tolerances and exponents, more series terms than the
    # float range allows, and sizes and counts out of their ranges are
    # domain errors, not tracebacks or nan output
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("eigen", "--t", "1", "--v", "0", "--grid", "1025"),
    ("taylor", "--grid", "1025"),
])
def test_oversized_grid_exits_1_before_allocating(capsys, argv):
    # the n x n matrices of a 1025-point grid would take 8 MB each; the
    # grid is refused before any of them is built
    tracemalloc.start()
    try:
        code, out, err = invoke(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "1024" in err
    assert peak < 1 << 20


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run(["bogus"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        run(["expand"])                      # missing required --rational
    assert exc_info.value.code == 2


def test_assertion_failure_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ConsistencyError("forced")

    monkeypatch.setattr("clgcd.cli.cl_run", boom)
    code, _, err = invoke(capsys, "trace", "31", "75")
    assert code == 3
    assert err.startswith("assertion failed:")


def test_closed_stdout_exits_141_quietly():
    # the reader of the pipe is gone before the child writes a byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clgcd", "experiment", "--nmax", "20",
             "--exhaustive"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


ROOT = Path(__file__).resolve().parents[1]

# each demo with the output that pins what it computes; a demo missing
# here fails its run below
DEMOS = {
    "conjecture_two_routes": ("target B + D = 1.260725",),
    "constants_and_spectrum": ("-d lambda/dt = 1.623523678",
                               "d lambda/dv = 0.976936081"),
    "cost_identities": ("(79089, 339566): digits (2, 3, 0, 1, 2, 1, 0, 0, 4, "
                        "1, 0, 4, 1, 3, 2, 0, 1, 2, 0)",),
    "invariant_density": ("integral of psi over [0, 1] = 1.000000000000001",),
    "mean_value_experiment": ("N = 2000: 1216587 coprime pairs (all), "
                              "log N = 7.601",),
    "trace_walkthrough": ("K = 7, S = 6, terminal = (0, 8), odd gcd = 1",),
}


@pytest.mark.parametrize("name", sorted(
    p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(name):
    assert name in DEMOS, "pin a line of the new demo's output in DEMOS"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for line in DEMOS[name]:
        assert line in proc.stdout
