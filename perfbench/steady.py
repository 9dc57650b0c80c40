"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/steady.py --workloads ensemble oracle --seeds 10 \
        --first-seed 1 --trace 0 --out perfbench/out/set1.json

Runs BENCHMARK.json's command once per (workload, seed) with its
``run_seconds``, one run at a time, from the repository root.  For every
printed metric (from the run's record in ``perfbench/out``, so ungated
figures such as ``throughput_raw`` are included) it reports the median, the
quartiles and the spread (third minus first quartile over the median, from
``statistics.quantiles(n=4)``), and for gated end-to-end metrics whether
that spread is below a third of the metric's bound.  Exits 1 if any run
failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import run
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    # the run's record also holds the printed figures that are not gated
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}"
                         ".json").read_text())
    result["figures"] = record["per_layer" if trace else "end_to_end"]
    return result


def summarize(values: list, bound=None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"values": values, "median": med, "q1": q1, "q3": q3,
           "spread": stats.quartile_spread(values) if med else None}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = out["spread"] is not None and out["spread"] < bound / 3
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": list(range(args.first_seed,
                                  args.first_seed + args.seeds)),
              "workloads": {}}
    bad = 0
    for workload in args.workloads:
        runs = [run_once(bench, workload, s, args.trace)
                for s in report["seeds"]]
        bad += sum(not r["correct"] for r in runs)
        units = layers.UNITS if args.trace else run.END_TO_END
        metrics = {}
        for name in runs[0]["figures"]:
            values = [r["figures"][name] for r in runs]
            metrics[name] = summarize(values, bounds.get(name)
                                      if not args.trace else None)
            metrics[name]["unit"] = units[name]
        report["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            flag = {True: "ok", False: "SPREAD"}.get(m.get("steady"), "")
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:9} {name:48} median {m['median']:<12.6g} "
                  f"{m['unit']:6} spread {spread:>8} {flag}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1, allow_nan=False) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
