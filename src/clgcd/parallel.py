"""Deterministic chunked map for bulk runs.

Work is split into fixed-size chunks whose random substreams are derived from
(seed, label, chunk index) via SHA-256, and partial results are merged in
chunk order.  The outcome is therefore a function of the seed alone: bitwise
identical for any worker count, including the sequential path.
``chunk_counts`` cuts a sample count into such chunks.  Each chunk returns
one part ``(n, sums, squares)``, a sum and a sum of squares per column,
which ``part`` builds and ``merge`` adds up; ``moments`` turns a merged
column into a mean and its standard error.
"""
from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .errors import require_int


def derive_seed(seed: int, label: str, index: int) -> int:
    seed = require_int("seed", seed)
    digest = hashlib.sha256(f"{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def chunk_counts(total: int, size: int):
    """Yield (index, count) for ``total`` items cut into chunks of ``size``."""
    for index, start in enumerate(range(0, total, size)):
        yield index, min(size, total - start)


def part(n: int, ints, floats) -> tuple[int, list, list]:
    """One chunk's part ``(n, sums, squares)`` from its array columns.

    Integer columns are summed as Python ints, so ``merge`` adds them
    exactly.  Float columns are added one by one in order, as a running
    ``+=`` would: ``cumsum`` adds sequentially, ``sum`` would add
    pairwise.  An empty float column gives 0.0.
    """
    def ordered(c):
        return float(c.cumsum()[-1]) if c.size else 0.0

    return (n, [int(c.sum()) for c in ints] + [ordered(c) for c in floats],
            [int((c * c).sum()) for c in ints]
            + [ordered(c * c) for c in floats])


def merge(parts) -> tuple[int, list, list]:
    """Add chunk parts ``(n, sums, squares)`` column by column.

    A column of Python ints adds exactly; any other goes through
    ``math.fsum``, rounded once, so neither depends on the part order.
    """
    counts, part_sums, part_squares = zip(*parts)
    sums, squares = (
        [sum(col) if all(type(x) is int for x in col) else math.fsum(col)
         for col in zip(*rows)] for rows in (part_sums, part_squares))
    return sum(counts), sums, squares


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
    The pool never has more processes than chunks or CPUs.  An exception
    from a worker keeps its type and is noted with its chunk index; a
    worker process that dies raises ``BrokenProcessPool`` instead of
    hanging the map.  ``threads`` below 1 raises ``DomainError``.
    """
    threads = require_int("threads", threads, 1)
    chunks = list(chunks)
    processes = min(threads, len(chunks), os.cpu_count() or 1)
    run = partial(_run_chunk, worker)
    if processes <= 1:
        return list(map(run, enumerate(chunks)))
    # fork: a fresh pool per call must not re-import numpy
    with ProcessPoolExecutor(
            processes, mp_context=multiprocessing.get_context("fork")) as pool:
        # four batches per process, as multiprocessing.Pool.map sends them
        return list(pool.map(run, enumerate(chunks),
                             chunksize=-(-len(chunks) // (4 * processes))))


def _run_chunk(worker, item):
    index, chunk = item
    try:
        return worker(chunk)
    except Exception as exc:
        note = f"raised by chunk {index}"
        if hasattr(exc, "add_note"):
            exc.add_note(note)
        else:                       # Python 3.10 has no exception notes
            exc.args = (*exc.args, note)
        raise
