"""Time one fresh set-up: import clgcd with numpy and scipy, then warm up.

    python3 perfbench/setup_probe.py <workload> <threads>
    python3 perfbench/setup_probe.py --serve <workload> <threads>

Prints the seconds from the first line of this file to the end of the
workload's warm-up.  With ``--serve`` it imports nothing heavy and instead
runs one such probe in a fresh process per line read from stdin, printing
each result: ``run.py`` keeps one server open through its timed phase, so
the probes are the server's children, not its own, and stay out of its
``peak_rss_mb``.  ``run.py`` reports the median of the probes as
``setup_s``.
"""
import time

T0 = time.perf_counter()

import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def serve(argv: list) -> None:
    """Run one fresh probe per line on stdin and print its seconds."""
    for _ in sys.stdin:
        proc = subprocess.run([sys.executable, __file__, *argv],
                              cwd=HERE.parent, capture_output=True, text=True,
                              timeout=170, check=True)
        print(proc.stdout.split()[-1], flush=True)


if __name__ == "__main__" and sys.argv[1] == "--serve":
    serve(sys.argv[2:])
    sys.exit(0)

sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
import clgcd  # noqa: E402,F401

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, threads = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[workload](threads).warm_up()
    print(time.perf_counter() - T0)
