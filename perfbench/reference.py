"""Reference kernels: fixed work that measures how fast the host runs now.

The shared host this benchmark runs on changes speed by up to about 1.8x,
in spells that last from a second to minutes, so a run's raw op times say
as much about the host as about the program.  ``run.py`` runs one of these
kernels before every op and after the last one.  Each op's time is scaled
by ``nominal / t_ref``, with ``t_ref`` the mean of the reference times
right before and right after it.  The gated timings are
therefore those of a host that runs the kernel in exactly ``nominal``
seconds.  The kernels are the benchmark's own code and call nothing in
``clgcd``, so a change to the program cannot move them.

``python`` does pure-Python integer work, tuples, a dict and Fractions, as
the integer workloads do.  ``numpy`` does small dense products and
element-wise transcendental functions, as the spectral workload does.

A workload whose ops run on ``k`` pool processes takes its readings on
``k`` processes at once, so a reading sees every core the op uses: a
neighbour that takes one of two cores slows such an op, but not a kernel
on the other core.  These ``k`` processes are forked once and wait on a
pipe between readings.
"""
from __future__ import annotations

import multiprocessing
import statistics
import time
from fractions import Fraction

import numpy as np

_M = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)


def python_kernel() -> int:
    acc = 0
    table = {}
    for i in range(1, 3000):
        a, b = i * 2654435761 % 1000003, i | 1
        while b:
            a, b = b, a % b
        table[i & 255] = table.get(i & 255, 0) + a
        acc += (i ^ (i >> 3)) & 7
    f = sum(Fraction(1, k) for k in range(1, 40))
    return acc + len(table) + (f.numerator & 1)


def numpy_kernel() -> float:
    x = _M
    for _ in range(40):
        x = np.tanh(x @ _M * 0.01) + np.exp(-x)
    return float(x.sum())


#: kernel and its nominal seconds (about its median on a 2-core x86-64
#: container host; only a fixed scale, the same for every commit)
KERNELS = {
    "python": (python_kernel, 3.0e-3),
    "numpy": (numpy_kernel, 1.8e-3),
}


def _timed(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def _serve(conn, kernel) -> None:
    """Time one kernel run per True read from ``conn``; stop on False."""
    while conn.recv():
        conn.send(_timed(kernel))
    conn.close()


class Reference:
    """Times one kernel on demand and scales op times by its readings.

    Use it as a context manager: with ``procs`` > 1 it owns ``procs``
    processes, which are stopped and joined on exit.
    """

    def __init__(self, name: str, procs: int = 1):
        self.name = name
        self.procs = procs
        self.kernel, self.nominal = KERNELS[name]
        self.seconds: list[float] = []
        self.kernel()                   # warm caches and NumPy dispatch
        self.workers = []

    def __enter__(self) -> "Reference":
        if self.procs > 1:
            ctx = multiprocessing.get_context("fork")
            for _ in range(self.procs):
                here, there = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(there, self.kernel),
                                   daemon=True)
                proc.start()
                there.close()
                self.workers.append((proc, here))
        return self

    def __exit__(self, *exc) -> None:
        for proc, conn in self.workers:
            try:
                conn.send(False)
            except OSError:
                pass
        for proc, conn in self.workers:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self.workers = []

    def measure(self) -> float:
        """Take one reading; returns the wall time it took."""
        t0 = time.perf_counter()
        if self.workers:
            for _, conn in self.workers:
                conn.send(True)
            took = statistics.fmean(conn.recv() for _, conn in self.workers)
        else:
            took = _timed(self.kernel)
        self.seconds.append(took)
        return time.perf_counter() - t0

    def scale(self, i: int) -> float:
        """Factor for op ``i``, measured between readings ``i`` and ``i + 1``.

        Only the two readings that bracket the op: over ten seeds, wider
        windows left more of the host's swings in the scaled tail.
        """
        return self.nominal / statistics.fmean(self.seconds[i:i + 2])

    def normalise(self, durations: list) -> list:
        """Op times as on a host that runs the kernel in ``nominal`` s."""
        return [d * self.scale(i) for i, d in enumerate(durations)]

    def host_speed(self) -> float:
        """Nominal over median kernel time: above 1 means a fast host."""
        return self.nominal / statistics.median(self.seconds)
