import math
import os
import random
import statistics
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from clgcd import parallel
from clgcd.errors import DomainError
from clgcd.parallel import (chunk_counts, derive_seed, map_chunks, merge,
                            moments, part, sample_pairs)


@pytest.mark.parametrize("total, size, expect", [
    (12, 4, [(0, 4), (1, 4), (2, 4)]),
    (10, 4, [(0, 4), (1, 4), (2, 2)]),
    (3, 4, [(0, 3)]),
])
def test_chunk_counts(total, size, expect):
    assert list(chunk_counts(total, size)) == expect


def _randrange_pairs(seed, label, index, count, q_lo, q_hi, coprime_only):
    # the sampler's rule on randrange: x and y uniform below q_hi, both
    # drawn again when equal, p = min + 1 and q = max + 1 kept when q >= q_lo
    # (and, when asked, gcd(p, q) = 1)
    rng = random.Random(derive_seed(seed, label, index))
    pairs = []
    while len(pairs) < count:
        x, y = rng.randrange(q_hi), rng.randrange(q_hi)
        if x == y:
            continue
        p, q = min(x, y) + 1, max(x, y) + 1
        if q >= q_lo and (not coprime_only or math.gcd(p, q) == 1):
            pairs.append((p, q))
    return pairs


def _pairs(columns):
    return list(zip(*(c.tolist() for c in columns)))


# the Birkhoff ranges [2^(b-1), 2^b - 1] at 16, 63, 64 and 65 bits sit
# below and on either side of getrandbits' 32-bit word boundaries
@pytest.mark.parametrize("q_lo, q_hi", [
    (2, 2), (2, 10), (3, 3), (5, 1000), (1000, 1000 + (1 << 40)),
    *(((1 << (b - 1)), (1 << b) - 1) for b in (16, 63, 64, 65))])
def test_sample_pairs_reproduces_the_randint_stream(q_lo, q_hi):
    for seed, label, index, coprime_only in ((5, "omega", 0, True),
                                             (7, "birkhoff", 3, False),
                                             (11, "birkhoff", 12, True)):
        args = (seed, label, index, 300, q_lo, q_hi, coprime_only)
        columns = sample_pairs(*args)
        assert _pairs(columns) == _randrange_pairs(*args)
        # int64 columns below 2^62, object columns of ints above
        want = np.int64 if q_hi < 1 << 62 else object
        assert [c.dtype for c in columns] == [want, want]


class _CountingBits:
    """getrandbits of a seeded generator, counting its calls."""

    def __init__(self, seed):
        self.getrandbits = random.Random(seed).getrandbits
        self.calls = 0

    def __call__(self, k):
        self.calls += 1
        return self.getrandbits(k)


# 2 and 3 are the smallest ranges (2-bit values); 2^32 - 1, 2^32 and
# 2^32 + 1 sit on either side of one word per value
@pytest.mark.parametrize("q_hi", [
    2, 3, (1 << 31) + 7, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
    (1 << 32) + 12345, (1 << 61) + 3, (1 << 62) - 1])
@pytest.mark.parametrize("high_half", [False, True])
@pytest.mark.parametrize("coprime_only", [True, False])
def test_bulk_draw_equals_the_loop(monkeypatch, q_hi, high_half,
                                   coprime_only):
    q_lo = q_hi // 2 + 1 if high_half else 2
    seed = derive_seed(9, "bulk", q_hi)
    loop = parallel._loop_pairs(random.Random(seed).getrandbits, 1200, q_lo,
                                q_hi, coprime_only)
    bulk = _CountingBits(seed)
    columns = parallel._bulk_pairs(bulk, 1200, q_lo, q_hi, coprime_only)
    assert _pairs(columns) == _pairs(loop)
    assert [c.dtype for c in columns] == [np.int64, np.int64]
    # batches of 101 values top up over and over, and an accepted count
    # that is odd carries its last value into the next batch
    monkeypatch.setattr(parallel, "_BULK_VALUES", 101)
    small = _CountingBits(seed)
    assert _pairs(parallel._bulk_pairs(small, 1200, q_lo, q_hi,
                                       coprime_only)) == _pairs(loop)
    assert small.calls > 20 > bulk.calls


@pytest.mark.parametrize("q_lo, q_hi", [(2, 1), (5, 4), (2, 0)])
def test_sample_pairs_rejects_an_empty_range(q_lo, q_hi):
    # no pair 1 <= p < q has q in the range; the draw would never end
    with pytest.raises(DomainError, match="no pair"):
        sample_pairs(1, "omega", 0, 10, q_lo, q_hi, True)


def test_sampler_reads_counts_and_indices_as_ints():
    # a NumPy integer draws the plain int's pairs; a float count or index,
    # a negative count and a non-integer bound are refused under their names
    want = sample_pairs(7, "x", 0, 4, 2, 1000, True)
    for args in ((np.int64(7), "x", np.int64(0), np.int64(4), np.int64(2),
                  np.int64(1000), True),
                 (7, "x", np.uint8(0), np.uint64(4), np.uint64(2),
                  np.uint64(1000), True)):
        got = sample_pairs(*args)
        assert [col.tolist() for col in got] == [col.tolist() for col in want]
    big = sample_pairs(7, "x", 0, 4, 2, 2 ** 63, True)
    got = sample_pairs(7, "x", 0, 4, 2, np.uint64(2 ** 63), True)
    assert [col.tolist() for col in got] == [col.tolist() for col in big]
    assert derive_seed(1, "x", np.int64(3)) == derive_seed(1, "x", 3)
    assert derive_seed(1, "x", True) == derive_seed(1, "x", 1)
    for name, args in (("count", (7, "x", 0, 2.5, 2, 100, True)),
                       ("count", (7, "x", 0, -3, 2, 100, True)),
                       ("q_lo", (7, "x", 0, 4, 2.0, 100, True)),
                       ("q_hi", (7, "x", 0, 4, 2, 100.0, True)),
                       ("index", (7, "x", 3.0, 4, 2, 100, True))):
        with pytest.raises(DomainError, match=name):
            sample_pairs(*args)
    with pytest.raises(DomainError, match="index"):
        derive_seed(1, "x", 3.0)


def test_part_sums_ints_exactly_and_floats_in_order():
    # the float column is one where pairwise summation (np.sum) would
    # round differently from a running +=
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 9, 1000)
    running = running_sq = 0.0
    for x in floats.tolist():
        running += x
        running_sq += x * x
    assert float(np.sum(floats)) != running
    big = np.array([(1 << 62) + 1, 1 << 62, 3], object)
    ints = np.array([1, 2, 3], np.int64)
    n, sums, squares = part(3, (big, ints), (floats,))
    assert n == 3
    assert sums == [(1 << 63) + 4, 6, running]
    assert squares == [(1 << 124) * 2 + (1 << 63) + 10, 14, running_sq]
    assert [type(x) for x in sums + squares] == [int, int, float] * 2
    empty = np.array([], np.int64)
    n, sums, squares = part(0, (empty,), (empty.astype(float),))
    assert (n, sums, squares) == (0, [0, 0.0], [0, 0.0])
    assert [type(x) for x in sums + squares] == [int, float] * 2


def test_merge_keeps_integer_columns_exact():
    # a float sum would round 2^60 + 2 to 2^60
    n, sums, squares = merge([(3, [(1 << 60) + 1], [7]), (2, [1], [1 << 61])])
    assert n == 5
    assert sums == [(1 << 60) + 2] and type(sums[0]) is int
    assert squares == [(1 << 61) + 7]


def test_merge_rounds_float_columns_once():
    # left to right, 1e16 + 1.0 rounds the 1.0 away and the sum reads 0.0
    parts = [(1, [1e16], [0.5]), (1, [1.0], [0.25]), (1, [-1e16], [0.25])]
    n, sums, squares = merge(parts)
    assert n == 3
    assert sums == [math.fsum([1e16, 1.0, -1e16])] == [1.0]
    assert squares == [1.0]


def test_moments_match_statistics():
    xs = [0.25, 1.5, -0.75, 2.125, 3.0, 0.5, 1.0]
    mean, se = moments(len(xs), math.fsum(xs), math.fsum(x * x for x in xs),
                       1.0)
    assert mean == pytest.approx(statistics.fmean(xs), rel=1e-15)
    assert se * math.sqrt(len(xs)) == pytest.approx(statistics.stdev(xs),
                                                    rel=1e-14)


def test_moments_of_integers_do_not_cancel():
    # the float formula loses all of this variance to cancellation
    xs = [10 ** 9, 10 ** 9 + 1, 10 ** 9 + 2]
    mean, se = moments(len(xs), sum(xs), sum(x * x for x in xs), 1.0)
    assert mean == 10 ** 9 + 1
    assert se == pytest.approx(math.sqrt(1 / 3), rel=1e-15)


@pytest.mark.parametrize("threads, chunks, cpus, sizes", [
    (5000, 2442, 2, [2]),
    (1000, 782, 4, [4]),
    (3, 2, 8, [2]),
    (2, 10, 1, []),         # one CPU: no worker process at all
])
def test_map_chunks_pool_is_capped(monkeypatch, threads, chunks, cpus, sizes):
    # the shares handed to forked workers: as many as the cap allows,
    # worker k taking chunks k, k + P, k + 2P, ...
    forked = []

    def fork_share(worker, share):
        forked.append([index for index, _ in share])
        return fork(worker, share)

    fork = parallel._fork_share
    monkeypatch.setattr(parallel, "_fork_share", fork_share)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert map_chunks(abs, range(-chunks, 0), threads) == list(range(chunks, 0, -1))
    assert ([len(forked)] if forked else []) == sizes
    assert forked == [list(range(k, chunks, len(forked)))
                      for k in range(len(forked))]
    _assert_no_child_left()


def _assert_no_child_left():
    # every worker process was reaped: this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("threads", [0, -2, 1.0, 2.0])
def test_map_chunks_rejects_threads_below_one(threads):
    with pytest.raises(DomainError, match="threads"):
        map_chunks(abs, range(4), threads)
    assert map_chunks(abs, range(-3, 0), np.int64(1)) == [3, 2, 1]


def _fail_on_chunk_3(chunk):
    if chunk == 3:
        raise ValueError("bad chunk")
    return chunk


@pytest.mark.parametrize("threads", [1, 2])
def test_map_chunks_names_the_failing_chunk(monkeypatch, threads):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="bad chunk") as info:
        map_chunks(_fail_on_chunk_3, range(6), threads)
    notes = getattr(info.value, "__notes__", info.value.args)
    assert "raised by chunk 3" in notes
    # a worker process sends the text of the traceback it raised with
    if threads > 1:
        assert any('in _fail_on_chunk_3\n    raise ValueError("bad chunk")'
                   in str(n) for n in notes)


_DIES_ON_CHUNK_3 = """
import os
from clgcd import parallel
from clgcd.errors import DomainError

def work(chunk):
    if chunk == 3:
        os._exit(1)
    return chunk

if __name__ == "__main__":
    parallel.os.cpu_count = lambda: 2
    try:
        parallel.map_chunks(work, range(6), 2)
    except Exception as exc:
        print(type(exc).__name__)
"""


_PRINTS_IN_WORKERS = """
from clgcd import parallel

def work(chunk):
    print("chunk", chunk)
    return chunk

if __name__ == "__main__":
    parallel.os.cpu_count = lambda: 2
    print("before")                 # still buffered when the workers fork
    print(parallel.map_chunks(work, range(4), 2))
"""


def test_map_chunks_prints_each_line_once():
    # stdout is a pipe, so block-buffered: the parent's buffer must not be
    # written again by a worker, and a worker's own lines must not be lost
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", _PRINTS_IN_WORKERS], env=env,
                          capture_output=True, text=True, timeout=60)
    lines = proc.stdout.splitlines()
    assert lines[0] == "before" and lines[-1] == "[0, 1, 2, 3]"
    assert sorted(lines[1:-1]) == [f"chunk {c}" for c in range(4)]


def test_map_chunks_fails_when_a_worker_dies():
    # the map must raise, not wait forever for the dead worker's chunk
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _DIES_ON_CHUNK_3], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["BrokenProcessPool"]


def _exit_in_a_worker(parent, chunk):
    if chunk == 3:
        if os.getpid() == parent:   # never end the test process itself
            raise AssertionError("chunk 3 ran in the parent")
        os._exit(1)
    return chunk


@pytest.mark.parametrize("worker, error", [
    (abs, None),
    (_fail_on_chunk_3, ValueError),
    (partial(_exit_in_a_worker, os.getpid()), BrokenProcessPool),
], ids=["succeeds", "chunk_3_raises", "worker_exits"])
def test_map_chunks_leaves_no_child(monkeypatch, worker, error):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    if error is None:
        assert map_chunks(worker, range(-6, 0), 2) == [6, 5, 4, 3, 2, 1]
    else:
        with pytest.raises(error, match="bad chunk|answering chunk 3"):
            map_chunks(worker, range(6), 2)
    _assert_no_child_left()


def test_map_chunks_runs_a_closure_in_workers(monkeypatch):
    # only results and exceptions are pickled, so a worker may be a
    # closure, and each chunk still runs in a forked process
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    parent, offset = os.getpid(), 10
    out = map_chunks(lambda chunk: (chunk + offset, os.getpid() != parent),
                     range(5), 2)
    assert out == [(chunk + 10, True) for chunk in range(5)]
    _assert_no_child_left()


class _TwoArgError(Exception):
    # pickles, but unpickling calls __init__ with args = (message,) alone
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def _unpicklable_on_chunk_3(kind, chunk):
    if chunk != 3:
        return chunk
    if kind == "result":
        return (x for x in ())                  # a generator
    if kind == "exception":
        raise ValueError("bad chunk", (x for x in ()))
    raise _TwoArgError(7, "bad chunk")


@pytest.mark.parametrize("kind, note", [
    ("result", "raised by chunk 3 pickling its result"),
    ("exception",
     "raised by chunk 3 pickling its exception ValueError('bad chunk'"),
    ("unpickling", "raised by chunk 3 unpickling its answer"),
], ids=["result", "exception", "unpickling"])
def test_map_chunks_names_the_chunk_of_an_unpicklable_answer(monkeypatch, kind,
                                                             note):
    # each fails as a TypeError: a generator does not pickle, and
    # _TwoArgError's __init__ misses an argument when it is unpickled
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    with pytest.raises(TypeError) as info:
        map_chunks(partial(_unpicklable_on_chunk_3, kind), range(6), 2)
    notes = getattr(info.value, "__notes__", info.value.args)
    assert any(str(n).startswith(note) for n in notes)
    _assert_no_child_left()
