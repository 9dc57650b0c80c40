"""Deterministic chunked map for bulk runs.

Work is split into fixed-size chunks whose random substreams are derived from
(seed, label, chunk index) via SHA-256, and partial results are merged in
chunk order.  The outcome is therefore a function of the seed alone: bitwise
identical for any worker count, including the sequential path.
``map_chunks`` runs the chunks in this process or, with threads > 1, in
worker processes forked for that one call (POSIX only).  Each worker
takes a fixed, strided share of the chunks, and only its results and
exceptions come back, pickled over a pipe: they must pickle, the worker
function need not.
``sample_pairs`` draws one chunk's seeded pairs, uniform on the pairs
1 <= p < q with q in a range; the ensembles and the Birkhoff orbits both
draw through it.  ``chunk_counts`` cuts a sample count into chunks.  Each
chunk returns one part ``(n, sums, squares)``, a sum and a sum of squares
per column, which ``part`` builds and ``merge`` adds up; ``moments`` turns
a merged column into a mean and its standard error.
"""
from __future__ import annotations

import hashlib
import math
import os
import pickle
import random
import signal
import sys
import traceback

import numpy as np

from .algorithm import _BATCH_LIMIT
from .errors import DomainError, require_int

# values per getrandbits call of a bulk draw, at most
_BULK_VALUES = 1 << 17
# 2 * 3 * 5 * 7 * 11 * 13: the primes of the loop draw's cheap gcd
_SIEVE = 30030


def derive_seed(seed: int, label: str, index: int) -> int:
    seed, index = require_int("seed", seed), require_int("index", index)
    digest = hashlib.sha256(f"{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_pairs(seed: int, label: str, index: int, count: int, q_lo: int,
                 q_hi: int, coprime_only: bool) -> tuple:
    """The p and q columns of ``count`` pairs from substream (seed, label,
    index), uniform on {1 <= p < q, q_lo <= q <= q_hi}, and on its coprime
    pairs when ``coprime_only``.

    Two values x, y are drawn uniform on [0, q_hi) as ``randrange(q_hi)``
    draws them: getrandbits(k), k = q_hi.bit_length(), redrawn while not
    below q_hi.  Both are drawn again when x = y; otherwise p = min + 1
    and q = max + 1, drawn again when q < q_lo or, when ``coprime_only``,
    when gcd(p, q) > 1.  Below 2^62 the values are parsed in bulk from
    32-bit words (``_bulk_pairs``) into int64 columns; above it a Python
    loop (``_loop_pairs``) gives object columns of ints.  Both take the
    same pairs from the same stream.  Needs 0 <= count, 2 <= q_hi, q_lo <= q_hi.
    """
    count = require_int("count", count, 0)
    q_lo, q_hi = require_int("q_lo", q_lo), require_int("q_hi", q_hi)
    if not (q_hi >= 2 and q_lo <= q_hi):
        raise DomainError(f"no pair has q in [{q_lo}, {q_hi}]")
    draw = _bulk_pairs if q_hi < _BATCH_LIMIT else _loop_pairs
    return draw(random.Random(derive_seed(seed, label, index)).getrandbits,
                count, q_lo, q_hi, coprime_only)


def _loop_pairs(getrandbits, count, q_lo, q_hi, coprime_only):
    # the rule of sample_pairs, one value at a time, with randrange's
    # rejection inlined.  A pair sharing a prime <= 13 fails the cheap gcd
    # with _SIEVE first, so about 38% of the candidates skip the gcd of
    # the big ints; together the two reject exactly the pairs it would.
    gcd = math.gcd
    bits = q_hi.bit_length()
    ps, qs = [], []
    p_append, q_append = ps.append, qs.append
    for _ in range(count):
        while True:
            x = getrandbits(bits)
            while x >= q_hi:
                x = getrandbits(bits)
            y = getrandbits(bits)
            while y >= q_hi:
                y = getrandbits(bits)
            if x < y:
                p, q = x + 1, y + 1
            elif x > y:
                p, q = y + 1, x + 1
            else:
                continue
            if q >= q_lo and (not coprime_only or (
                    gcd(_SIEVE, p % _SIEVE, q % _SIEVE) == 1
                    and gcd(p, q) == 1)):
                break
        p_append(p)
        q_append(q)
    return np.array(ps, object), np.array(qs, object)


def _bulk_pairs(getrandbits, count, q_lo, q_hi, coprime_only):
    """``_loop_pairs`` for q_hi < 2^62, from whole 32-bit words.

    getrandbits(k) takes one word for k <= 32, w >> (32 - k), and two
    above, lo | (hi >> (64 - k)) << 32, and getrandbits(32 m) returns m
    words, the first lowest.  So one call gives a run of values, the
    ones below q_hi are the loop's values in order, and the loop's pairs
    are those values two at a time with the rejected pairs masked out.
    A short batch draws more words from the same generator; an odd
    value left over opens the next batch.
    """
    bits = q_hi.bit_length()
    words = 1 if bits <= 32 else 2
    # the share of values below q_hi, times the share of value pairs kept
    rate = q_hi / (1 << bits) * (
        1.0 - ((q_lo - 1) / q_hi) ** 2 - (q_hi - q_lo + 1) / q_hi ** 2)
    if coprime_only:
        rate *= 0.6
    # one-word values stay uint32, whose gcd is the faster one
    empty = np.empty(0, np.uint32 if words == 1 else np.int64)
    carry, ps, qs = empty, [empty], [empty]
    need = count
    while need > 0:
        m = words * min(int(2.06 * need / rate) + 16, _BULK_VALUES)
        raw = np.frombuffer(getrandbits(32 * m).to_bytes(4 * m, "little"),
                            "<u4")
        if words == 1:
            v = raw >> (32 - bits)
        else:
            raw = raw.astype(np.int64)
            v = raw[0::2] | (raw[1::2] >> (64 - bits)) << 32
        v = np.concatenate((carry, v[v < q_hi]))
        end = v.size & -2
        carry = v[end:]
        x, y = v[0:end:2], v[1:end:2]
        p, q = np.minimum(x, y) + 1, np.maximum(x, y) + 1
        keep = (x != y) & (q >= q_lo)
        p, q = p[keep], q[keep]
        if coprime_only:
            keep = np.gcd(p, q) == 1
            p, q = p[keep], q[keep]
        ps.append(p[:need])
        qs.append(q[:need])
        need -= ps[-1].size
    return (np.concatenate(ps).astype(np.int64, copy=False),
            np.concatenate(qs).astype(np.int64, copy=False))


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

    With threads > 1 each call forks P = min(threads, chunks, CPUs)
    worker processes (POSIX only), and worker k runs the strided share of
    chunks k, k + P, k + 2P, ...  Only results and exceptions cross back,
    pickled over a pipe, so ``worker`` need not be picklable (a closure
    will do) but what it returns or raises must be.  What a worker prints
    reaches this process's stdout and stderr.  An exception from a
    worker keeps its type and is noted with its chunk index, and so is
    the error of a result or exception that cannot be pickled.  A worker
    process that exits before answering its whole share raises
    ``BrokenProcessPool`` instead of hanging the map.  Every worker
    process is reaped before the map returns or raises, and on an error
    the ones still running are killed first.  ``threads`` below 1 raises
    ``DomainError``.
    """
    threads = require_int("threads", threads, 1)
    items = list(enumerate(chunks))
    processes = min(threads, len(items), os.cpu_count() or 1)
    if processes <= 1:
        return [_run_chunk(worker, item) for item in items]
    shares = [items[k::processes] for k in range(processes)]
    results = [None] * len(items)
    children = []
    _flush_stdio()      # else each worker would write the buffers out again
    try:
        for share in shares:
            children.append(_fork_share(worker, share))
        for (_, pipe), share in zip(children, shares):
            for index, _ in share:
                results[index] = _receive(pipe, index)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return results


def _run_chunk(worker, item):
    index, chunk = item
    try:
        return worker(chunk)
    except Exception as exc:
        _note(exc, f"raised by chunk {index}")
        raise


def _note(exc, note):
    if hasattr(exc, "add_note"):
        exc.add_note(note)
    else:                           # Python 3.10 has no exception notes
        exc.args = (*exc.args, note)


def _fork_share(worker, share):
    """Fork a process that runs ``share`` and answers each chunk in order
    over a pipe; return its pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:                    # the child: answer, then exit at once
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                for item in share:
                    if not _send(pipe, worker, item):
                        break
            status = 0
        finally:
            _flush_stdio()
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _flush_stdio():
    # what a worker prints reaches the parent's stdout and stderr, once
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):   # None or closed
            pass


def _send(pipe, worker, item):
    # one answer: its pickled size in 8 bytes, then (ok, result) or
    # (False, exception); returns ok
    try:
        answer = True, _run_chunk(worker, item)
    except Exception as exc:
        # the traceback does not pickle; its text rides along as a note
        _note(exc, "worker traceback:\n" + "".join(
            traceback.format_tb(exc.__traceback__)))
        answer = False, exc
    try:
        blob = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        what = "result" if answer[0] else f"exception {answer[1]!r}"
        _note(exc, f"raised by chunk {item[0]} pickling its {what}")
        answer = False, exc
        blob = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
    pipe.write(len(blob).to_bytes(8, "little") + blob)
    pipe.flush()
    return answer[0]


def _receive(pipe, index):
    # chunk ``index``'s result from ``pipe``, or its exception raised
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    blob = pipe.read(size)
    if len(head) < 8 or len(blob) < size:
        from concurrent.futures.process import BrokenProcessPool
        raise BrokenProcessPool(
            f"a worker process exited before answering chunk {index}")
    try:
        ok, value = pickle.loads(blob)
    except Exception as exc:
        _note(exc, f"raised by chunk {index} unpickling its answer")
        raise
    if not ok:
        raise value
    return value
