"""clgcd benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 22 --trace 0

Prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced replay (``--trace 1``) as text lines, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 1 if any op failed its output check, 2 on a usage error
or when the package source is missing.  Run records and the spans of traced
runs are written under ``perfbench/out/``.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import layers
import reference
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPS = 7
#: every run times at least this many ops, so a tail figure exists
MIN_OPS = 11
#: calls of constants.m_table timed in a traced run
M_TABLE_CALLS = 200

#: end-to-end metrics and their units, all printed as text lines; the
#: four timings are scaled to the reference kernel's nominal speed
#: (reference.py), their ``_raw`` twins are the wall-clock figures
END_TO_END = {
    "throughput": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_raw": "1/s",
    "op_p50_ms_raw": "ms",
    "op_tail_ms_raw": "ms",
    "setup_s_raw": "s",
}
#: printed but left out of the JSON line and BENCHMARK.json: the host's
#: speed drifts by up to about 1.8x between runs, and the raw timings'
#: spread over ten seeds exceeded the largest bound the contract allows
#: (README.md, "Steadiness")
UNGATED = {"throughput_raw", "op_p50_ms_raw", "op_tail_ms_raw", "setup_s_raw"}


class Mismatch(Exception):
    """A replayed op returned something else than its timed run."""


class OpRecord:
    """One timed op: its duration and first error.

    ``op`` and ``result`` are kept only for ops that a later check or the
    traced replay needs, so memory does not grow with the run length.
    """

    def __init__(self, op, seconds: float, result, error):
        self.index, self.kind, self.items = op.index, op.kind, op.items
        self.op = op
        self.seconds = seconds
        self.result = result
        self.error = None
        if error is not None:
            self.fail(error)

    def guard(self, check) -> None:
        """Run ``check()``; an exception marks this op as failed."""
        if self.error is not None:
            return
        try:
            check()
        except Exception as exc:        # the run continues; the op fails
            self.fail(exc)

    def fail(self, exc: BaseException) -> None:
        if self.error is None:
            print(f"op {self.index} ({self.kind}) failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
        self.error = exc

    def forget(self) -> None:
        self.op = self.result = None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ensemble", "oracle", "birkhoff", "spectral"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=None,
                    help="pool size for birkhoff (default: nproc)")
    return ap.parse_args(argv)


def timed_phase(wl, seed: int, seconds: float, min_ops: int, probe,
                reps: int, ref) -> tuple[list, list]:
    """Run ops until ``seconds`` have passed and ``min_ops`` ops are done.

    Between ops, ``probe()`` runs ``reps`` times at even steps of the
    window, so its samples see the host's speed states in the same mix as
    the ops do.  ``ref.measure()`` runs right before every op and once
    after the last.  The time both take is left out of the window.
    Returns the op records and the probe values, each paired with the
    index of the next reference reading.
    """
    records, samples = [], []
    paused = 0.0
    start = time.perf_counter()
    for op in wl.ops(seed):
        elapsed = time.perf_counter() - start - paused
        if op.index >= min_ops and elapsed >= seconds:
            break
        if len(samples) < reps and elapsed >= len(samples) * seconds / reps:
            t0 = time.perf_counter()
            samples.append((probe(), len(records)))
            paused += time.perf_counter() - t0
        paused += ref.measure()
        error = result = None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:        # a raising op is a failed op
            error = exc
        rec = OpRecord(op, time.perf_counter() - t0, result, error)
        rec.guard(lambda: wl.check(op, result))
        if rec.error is not None and not any(r.error for r in records):
            traceback.print_exception(rec.error, file=sys.stderr)
        if op.index >= wl.replay_ops and not wl.keeps(seed, op.index):
            rec.forget()
        records.append(rec)
    ref.measure()
    samples += [(probe(), len(records)) for _ in range(reps - len(samples))]
    return records, samples


def late_checks(wl, seed: int, records: list) -> None:
    """The expensive checks, on the seeded subset of ops, untimed."""
    for rec in records:
        if rec.op is not None and wl.keeps(seed, rec.index):
            rec.guard(lambda: wl.late_check(rec.op, rec.result))


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest child's.

    With pool children this is an upper bound, not the program's peak: a
    forked child's RSS includes the pages it shares with the parent, so
    shared pages are counted once per process, and the peaks added need not
    have happened at the same moment.  The set-up probes are not counted:
    they are children of the probe server, which is reaped after this call.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


@contextmanager
def setup_prober(workload: str, threads: int):
    """Yield a function that times one fresh set-up (``setup_probe.py``).

    Each call imports clgcd, numpy and scipy and warms up in a fresh
    process, started by a probe server that is stopped on exit.
    """
    server = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), "--serve", workload,
         str(threads)], cwd=ROOT, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)

    def probe() -> float:
        server.stdin.write("\n")
        server.stdin.flush()
        line = server.stdout.readline()
        if not line:
            raise RuntimeError("set-up probe failed")
        return float(line)

    try:
        yield probe
    finally:
        server.stdin.close()
        try:
            server.wait(timeout=170)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def traced_phase(wl, records: list) -> tuple:
    """Replay the first ops through interposed layer calls.

    Returns (tracer, span totals, self time per layer, probe values,
    absent span names).
    """
    from clgcd import constants

    replay = records[:wl.replay_ops]
    targets = wl.trace_targets()
    tracer = tracing.Tracer()
    probes = {}
    base = []
    absent = []
    # each op runs untraced and then traced, back to back, so the two
    # timings see the same machine state; threaded ops run at one thread,
    # because the pool's children cannot report spans
    for rec in replay:
        t0 = time.perf_counter()
        serial = rec.op.serial()
        base.append(time.perf_counter() - t0)
        rec.guard(lambda: _same(rec, serial, "untraced replay"))
        with tracer.interposed(targets) as absent:
            try:
                again = tracer.run_op(rec.op.index, rec.op.serial)
            except Exception as exc:    # counted against the op
                rec.fail(exc)
                continue
        rec.guard(lambda: _same(rec, again, "traced replay"))
    if wl.threads > 1:
        probes["speedup"] = sum(base) / sum(r.seconds for r in replay)
        probes["pool_overhead_ms"] = wl.pool_overhead_ms()
    spans = tracer.spans
    totals = tracing.summarize(spans)
    traced_ns = totals[tracing.ROOT].inclusive_ns
    split = layers.breakdown(totals, wl.top)
    if sum(split.values()) != traced_ns:
        raise RuntimeError("layer self times do not add up to the op time")
    probes["trace_overhead_share"] = traced_ns * 1e-9 / sum(base) - 1.0
    t0 = time.perf_counter()
    for _ in range(M_TABLE_CALLS):
        constants.m_table()
    probes["m_table_us"] = (time.perf_counter() - t0) / M_TABLE_CALLS * 1e6
    return tracer, totals, split, probes, absent


def _same(rec, other, what: str) -> None:
    if rec.op.key(other) != rec.op.key(rec.result):
        raise Mismatch(f"{what} differs from the timed result")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "clgcd").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, wl, records) -> dict:
    import numpy
    import scipy
    per_op = wl.input_size()
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": wl.threads,
        "ops": len(records),
        "chunks": per_op["chunks_per_op"] * len(records),
        "input": per_op,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clgcd" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    cores = nproc()
    threads = cores if args.threads is None else args.threads
    if not 1 <= threads <= cores:
        print(f"error: --threads must be between 1 and nproc = {cores}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    wl = workloads.WORKLOADS[args.workload](threads)
    wl.warm_up()
    with setup_prober(args.workload, wl.threads) as probe, \
            reference.Reference(wl.reference, wl.threads) as ref:
        records, setups = timed_phase(wl, args.seed, args.seconds,
                                      max(MIN_OPS, wl.replay_ops), probe,
                                      SETUP_REPS, ref)
        # before the reference processes are reaped, so they are not counted
        rss = peak_rss_mb(wl.threads if wl.threads > 1 else 0)
    late_checks(wl, args.seed, records)
    extra = wl.run_metrics()
    traced = traced_phase(wl, records) if args.trace else None

    durations = [r.seconds for r in records]
    scaled = ref.normalise(durations)
    setups_raw = [s for s, _ in setups]
    # a probe taken before reading i is bracketed by readings i - 1 and i
    setups = [s * ref.scale(max(i - 1, 0)) for s, i in setups]
    failed = sum(r.error is not None for r in records)
    items = sum(r.items for r in records if r.error is None)
    tail, pct, beyond = stats.tail(scaled)
    e2e = {
        "throughput": items / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": 1e3 * tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "throughput_raw": items / sum(durations),
        "op_p50_ms_raw": 1e3 * statistics.median(durations),
        "op_tail_ms_raw": 1e3 * stats.tail(durations)[0],
        "setup_s_raw": statistics.median(setups_raw),
    }
    prov = provenance(args, wl, records)
    speed = ref.host_speed()
    lines = [f"provenance {json.dumps(prov, sort_keys=True)}",
             f"host_speed {speed:.4g} 1 ({ref.name} reference kernel: "
             f"nominal {ref.nominal * 1e3:g} ms, median "
             f"{statistics.median(ref.seconds) * 1e3:.4g} ms of "
             f"{len(ref.seconds)}; op and set-up times are scaled to it)",
             f"throughput {e2e['throughput']:.6g} {wl.item}/s",
             f"op_p50_ms {e2e['op_p50_ms']:.6g} ms ({len(records)} ops)",
             f"op_tail_ms {e2e['op_tail_ms']:.6g} ms (p{pct:.1f}, "
             f"{len(records)} ops, {beyond} beyond)",
             f"setup_s {e2e['setup_s']:.6g} s (median of {len(setups)} fresh "
             f"interpreters: {', '.join(f'{s:.3f}' for s in setups)})",
             f"peak_rss_mb {e2e['peak_rss_mb']:.6g} MB",
             f"error_rate {failed / len(records):.6g} 1 ({failed} failed of "
             f"{len(records)} ops)",
             f"throughput_raw {e2e['throughput_raw']:.6g} {wl.item}/s "
             "(wall clock)",
             f"op_p50_ms_raw {e2e['op_p50_ms_raw']:.6g} ms (wall clock)",
             f"op_tail_ms_raw {e2e['op_tail_ms_raw']:.6g} ms (wall clock)",
             f"setup_s_raw {e2e['setup_s_raw']:.6g} s (wall clock)"]
    lines += [f"{name} {value:.6g} 1" for name, value in extra.items()]
    record = {"provenance": prov, "end_to_end": e2e,
              "error_rate": failed / len(records), "setup_samples": setups,
              "setup_samples_raw": setups_raw,
              "host_speed": speed, "reference_seconds": ref.seconds,
              "op_seconds": durations,
              "tail_percentile": pct, **extra}
    if traced:
        tracer, totals, split, probes, absent = traced
        probes.update(extra)
        per_layer = layers.derive(totals, tracer.spans, wl.top, probes)
        total_ns = sum(split.values())
        lines.append(f"traced replay: {wl.replay_ops} ops, "
                     f"{total_ns * 1e-9:.4f} s traced, {len(tracer.spans)} spans")
        for layer, ns in sorted(split.items(), key=lambda kv: -kv[1]):
            lines.append(f"  self {layer:<14} {ns * 1e-6:10.3f} ms "
                         f"{ns / total_ns:7.2%}")
        if absent:
            lines.append(f"absent layers: {', '.join(absent)}")
        lines += [f"{name} {value:.6g} {layers.UNITS[name]}"
                  for name, value in per_layer.items()]
        record.update(per_layer=per_layer, self_ns=split, absent=absent,
                      spans=sum(t.calls for t in totals.values()))
        metrics = {k: {"value": v, "unit": layers.UNITS[k]}
                   for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items() if k not in UNGATED}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        traced[0].write_csv(OUT / f"{stem}.spans.csv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
