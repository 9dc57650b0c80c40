"""Deterministic chunked map for bulk runs.

Work is split into fixed-size chunks whose random substreams are derived from
(seed, label, chunk index) via SHA-256, and partial results are merged in
chunk order.  The outcome is therefore a function of the seed alone: bitwise
identical for any worker count, including the sequential path.
``chunk_counts`` cuts a sample count into such chunks, and ``moments`` turns
the merged sums into a mean and its standard error.
"""
from __future__ import annotations

import hashlib
import math
import multiprocessing
import os


def derive_seed(seed: int, label: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def chunk_counts(total: int, size: int):
    """Yield (index, count) for ``total`` items cut into chunks of ``size``."""
    for index, start in enumerate(range(0, total, size)):
        yield index, min(size, total - start)


def moments(n: int, total, total_sq, scale: float) -> tuple[float, float]:
    """Scaled mean and standard error from the merged sum and sum of squares.

    Integer sums give the variance from an exact numerator rounded once,
    so it does not cancel; float sums use the textbook formula.
    """
    mean = total / n
    if isinstance(total, int) and isinstance(total_sq, int):
        var = (n * total_sq - total * total) / (n * (n - 1))
    else:
        var = (total_sq - total * mean) / (n - 1)
    se = math.sqrt(max(var, 0.0) / n)
    return scale * mean, scale * se


def map_chunks(worker, chunks, threads: int = 1) -> list:
    """Apply ``worker`` to every chunk descriptor, preserving chunk order.

    ``worker`` must be a module-level function (picklable) when threads > 1.
    The pool never has more processes than chunks or CPUs.
    """
    chunks = list(chunks)
    processes = min(threads, len(chunks), os.cpu_count() or 1)
    if processes <= 1:
        return [worker(c) for c in chunks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=processes) as pool:
        return pool.map(worker, chunks)
