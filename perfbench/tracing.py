"""In-memory spans around calls into the package, recorded from outside it.

A traced op runs under a root span named ``op``.  Package functions are
interposed by replacing the module attribute their caller looks up at call
time (``experiments._exponent_run``, ``algorithm.continuants``, ...) with a
wrapper that records a span: name, start, end, parent span and op id.  The
package itself is not modified, and every attribute is restored when the
traced replay ends.  A target attribute that no longer exists is reported as
absent instead of failing, so the end-to-end workloads keep running when a
later change merges or renames a function.

Self time is a span's duration minus the durations of its direct children;
summed over every span of an op it equals the op's duration by construction,
because all times are integer nanoseconds from one clock.
"""
from __future__ import annotations

import csv
import gzip
import time
from contextlib import contextmanager
from dataclasses import dataclass

ROOT = "op"

# span record fields (lists, so the wrapper can fill them in place)
NAME, START, END, PARENT, OP, COUNT = range(6)


@dataclass(frozen=True)
class Target:
    """One interposition: ``module.attr`` is recorded as span ``name``.

    ``count(args, result)`` optionally extracts work counts (pairs, steps,
    iterations) as a tuple of numbers that is stored on the span.
    """

    module: object
    attr: str
    name: str
    count: object = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                try:
                    rec[COUNT] = count(args, out)
                except (AttributeError, IndexError, TypeError):
                    pass                # result shape changed: no count
            return out

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as op ``op_id`` under a root span; returns its result."""
        self.op = op_id
        try:
            return self.wrap(ROOT, fn)()
        finally:
            self.op = -1

    @contextmanager
    def interposed(self, targets):
        """Install span wrappers for ``targets``; yields the absent span names."""
        saved = []
        absent = []
        try:
            for t in targets:
                fn = getattr(t.module, t.attr, None)
                if not callable(fn):
                    absent.append(t.name)
                    continue
                saved.append((t.module, t.attr, fn))
                setattr(t.module, t.attr, self.wrap(t.name, fn, t.count))
            yield absent
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_csv(self, path) -> None:
        """Write every span as gzipped CSV, one row per span, times in ns."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "op", "name", "start_ns",
                          "end_ns", "count"])
            for i, rec in enumerate(self.spans):
                count = rec[COUNT] or ()
                out.writerow([i, rec[PARENT], rec[OP], rec[NAME], rec[START],
                              rec[END], ";".join(map(str, count))])


def self_times(spans) -> list[int]:
    """Self time in ns of every span: its duration minus its children's.

    Spans come from one stack, so the children of a span never overlap and
    their durations can simply be summed.
    """
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


@dataclass
class SpanTotals:
    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0
    counts: tuple = ()          # elementwise sum of the spans' counts


def summarize(spans) -> dict[str, SpanTotals]:
    """Per span name: calls, inclusive and self time, and summed counts."""
    totals: dict[str, SpanTotals] = {}
    for rec, own in zip(spans, self_times(spans)):
        t = totals.setdefault(rec[NAME], SpanTotals())
        t.calls += 1
        t.inclusive_ns += rec[END] - rec[START]
        t.self_ns += own
        if rec[COUNT]:
            t.counts = tuple(a + b for a, b in
                             zip(rec[COUNT], t.counts or (0,) * len(rec[COUNT])))
    return totals
