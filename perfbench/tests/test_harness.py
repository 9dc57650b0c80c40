"""Tests of the benchmark harness itself (not of the clgcd package).

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
import time
import types

import pytest

import layers
import reference
import run
import stats
import tracing
import workloads

ROOT = run.ROOT


# ------------------------------------------------------------ tail rule

@pytest.mark.parametrize("n, value, pct, beyond", [
    (1000, 990, 99.0, 10),
    (100, 90, 90.0, 10),
    (11, 1, 100 / 11, 10),
    (5, 5, 100.0, 0),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, value, pct, beyond):
    values = list(range(n, 0, -1))          # order must not matter
    got = stats.tail(values)
    assert got == (value, pytest.approx(pct), beyond)
    assert sum(v > got[0] for v in values) == beyond


def test_quartile_spread_matches_statistics():
    assert stats.quartile_spread([10.0] * 4) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == \
        pytest.approx((8.25 - 2.75) / 5.5)


# ------------------------------------------------------------ self time

def span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("op", 0, 100, -1),
        span("a", 10, 40, 0),
        span("a.inner", 20, 30, 1),
        span("b", 50, 90, 0),
        span("b.x", 55, 70, 3),
        span("b.y", 70, 80, 3),
    ]
    own = tracing.self_times(spans)
    assert own == [30, 20, 10, 15, 15, 10]
    assert sum(own) == 100


def test_traced_self_times_add_up_to_the_op(monkeypatch):
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: sum(range(x))
    mod.mid = lambda x: [mod.leaf(x) for _ in range(3)]
    mod.top = lambda x: (mod.mid(x), mod.leaf(x))
    tracer = tracing.Tracer()
    targets = [tracing.Target(mod, name, f"m.{name}")
               for name in ("top", "mid", "leaf", "gone")]
    with tracer.interposed(targets) as absent:
        tracer.run_op(0, lambda: mod.top(2000))
        tracer.run_op(1, lambda: mod.top(500))
    assert absent == ["m.gone"]
    assert not hasattr(mod.top, "__wrapped__")       # restored
    totals = tracing.summarize(tracer.spans)
    assert totals["m.leaf"].calls == 8
    assert totals["m.mid"].calls == 2
    op_ns = totals[tracing.ROOT].inclusive_ns
    assert sum(t.self_ns for t in totals.values()) == op_ns
    split = layers.breakdown(totals, "m.top")
    assert sum(split.values()) == op_ns
    assert set(split) == {"unattributed", "m"}


# ------------------------------------------------------------ contract

def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: u for k, u in run.END_TO_END.items() if k not in run.UNGATED}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    probes = {"pool_overhead_ms": 1.0}
    assert list(layers.derive({}, [], None, probes)) == list(layers.UNITS)


def test_threads_above_nproc_are_refused(capsys):
    code = run.main(["--workload", "birkhoff", "--seed", "1", "--seconds",
                     "1", "--threads", str(run.nproc() + 1)])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_without_package_source_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "oracle", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.monotonic() - t0 < 180


# ------------------------------------------------------------ whole runs

def run_main(monkeypatch, tmp_path, capsys, *args):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "oracle", "--seconds", "0.1", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_corrupted_reference_counts_as_failed_op(monkeypatch, tmp_path, capsys):
    bad = list(workloads.REFERENCE_TRACE)
    bad[3] = (3, 2, 40, 12, 3, 2, 1)
    monkeypatch.setattr(workloads, "REFERENCE_TRACE", tuple(bad))
    code, lines, result = run_main(monkeypatch, tmp_path, capsys,
                                   "--seed", "5")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] >= run.MIN_OPS
    rate = next(line for line in lines if line.startswith("error_rate"))
    assert float(rate.split()[1]) == pytest.approx(1 / result["attempted"])


def test_same_seed_gives_identical_step_counts(monkeypatch, tmp_path, capsys):
    got = []
    for _ in range(2):
        code, _lines, result = run_main(monkeypatch, tmp_path, capsys,
                                        "--seed", "7", "--trace", "1")
        assert code == 0 and result["failed"] == 0
        got.append(result["metrics"]["algorithm.steps_per_pair"]["value"])
    assert got[0] == got[1] > 0


# ------------------------------------------------------------ reference

def test_reference_scales_op_times_to_nominal_speed():
    ref = reference.Reference("python")
    ref.nominal = 1.0
    # the host runs the kernel at half speed around ops 0 and 1, changes
    # speed during op 2 and runs at nominal speed from op 3 on
    ref.seconds = [2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    got = ref.normalise([4.0] * 7)
    assert got == pytest.approx([2.0, 2.0, 4 / 1.5, 4.0, 4.0, 4.0, 4.0])
    assert ref.host_speed() == 1.0
