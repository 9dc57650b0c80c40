import math
import statistics

import pytest

from clgcd import parallel
from clgcd.parallel import chunk_counts, map_chunks, moments


@pytest.mark.parametrize("total, size, expect", [
    (12, 4, [(0, 4), (1, 4), (2, 4)]),
    (10, 4, [(0, 4), (1, 4), (2, 2)]),
    (3, 4, [(0, 3)]),
])
def test_chunk_counts(total, size, expect):
    assert list(chunk_counts(total, size)) == expect


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


class _SerialContext:
    """Stands in for a multiprocessing context: records the pool size and
    maps in this process, so no worker is started."""

    def __init__(self):
        self.sizes = []

    def Pool(self, processes):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, worker, chunks):
        return [worker(c) for c in chunks]


@pytest.mark.parametrize("threads, chunks, cpus, sizes", [
    (5000, 2442, 2, [2]),
    (1000, 782, 4, [4]),
    (3, 2, 8, [2]),
    (2, 10, 1, []),         # one CPU: no pool at all
])
def test_map_chunks_pool_is_capped(monkeypatch, threads, chunks, cpus, sizes):
    ctx = _SerialContext()
    monkeypatch.setattr(parallel.multiprocessing, "get_context",
                        lambda method: ctx)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert map_chunks(abs, range(-chunks, 0), threads) == list(range(chunks, 0, -1))
    assert ctx.sizes == sizes
