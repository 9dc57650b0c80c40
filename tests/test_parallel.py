import math
import os
import statistics
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from clgcd import parallel
from clgcd.errors import DomainError
from clgcd.parallel import chunk_counts, map_chunks, merge, moments, part


@pytest.mark.parametrize("total, size, expect", [
    (12, 4, [(0, 4), (1, 4), (2, 4)]),
    (10, 4, [(0, 4), (1, 4), (2, 2)]),
    (3, 4, [(0, 3)]),
])
def test_chunk_counts(total, size, expect):
    assert list(chunk_counts(total, size)) == expect


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


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the pool size and maps
    in this process, so no worker is started."""

    def __init__(self, sizes, max_workers, mp_context):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("threads, chunks, cpus, sizes", [
    (5000, 2442, 2, [2]),
    (1000, 782, 4, [4]),
    (3, 2, 8, [2]),
    (2, 10, 1, []),         # one CPU: no pool at all
])
def test_map_chunks_pool_is_capped(monkeypatch, threads, chunks, cpus, sizes):
    seen = []
    monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                        partial(_SerialPool, seen))
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert map_chunks(abs, range(-chunks, 0), threads) == list(range(chunks, 0, -1))
    assert seen == sizes


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
    assert "raised by chunk 3" in getattr(info.value, "__notes__",
                                          info.value.args)


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


def test_map_chunks_fails_when_a_worker_dies():
    # the map must raise, not wait forever for the dead worker's chunk
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _DIES_ON_CHUNK_3], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["BrokenProcessPool"]
