"""The interval map behind the algorithm and its invariant density.

The shift-and-subtract gcd step, read on ratios x = p/q, is the piecewise
map T(x) = 1/(2^a x) - 1 on (0, 1], where the branch index a is the unique
integer with 2^-(a+1) < x <= 2^-a (dyadic boundary points take the deeper
branch, matching the maximal-shift rule exactly).  Orbits of rationals are
finite and their branch sequences reproduce the greedy digit strings of the
integer algorithm; that conjugacy is pinned by tests.

The invariant density of T is psi(x) = 1 / (log(4/3) (x+1)(x+2)).  The
weighted transfer operator acting on sampled functions is provided here as
``transfer_apply``; the grid, the branch sum and its truncation rule live in
the spectral module.

``birkhoff_estimates`` measures the per-step growth rates along orbits of
high random rationals: shift rate, entropy, dyadic growth of the continuant
gcd, and the valuation rate of the running gcd from the trace table.  The
pairs are drawn by ``parallel.sample_pairs``, the ensembles' sampler,
uniform on the coprime pairs 1 <= p < q with q in [2^(bits-1), 2^bits - 1].
Chunks of 128 orbits fix the seeds and the order of the sums; each chunk's
column sums run in orbit order, as a running sum would.  One ``map_chunks``
task, in this process or a forked worker, runs a group of 16 chunks through
``algorithm._orbit_runs`` at once; that function and the kernels it calls
say how the orbits run and how each step is checked.  Every orbit's
terminal must be a power of two, checked here on the whole terminal column
as the ensemble's cost stage checks its own.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algorithm import _orbit_runs, _v2, cl_step
from .constants import LN2, LOG43
from .dyadic import dyadic_norm
from .errors import ConsistencyError, DomainError, require_int, require_rational
from .parallel import (chunk_counts, map_chunks, merge, moments, part,
                       sample_pairs)
from .spectral import (CollocationGrid, _branch_matrix, _shared_grid,
                       truncation_depth)

# a chunk's orbits share one seeded generator; a group's share one lockstep
_BIRKHOFF_CHUNK = 128
_BIRKHOFF_GROUP = 16

# the rates of a report, in the order of a chunk part's rows
_RATES = ("shift_rate", "entropy", "e2", "valuation_rate")


def psi(x):
    """Invariant density 1/(log(4/3) (x+1)(x+2)); accepts floats or arrays."""
    return 1.0 / (LOG43 * (x + 1.0) * (x + 2.0))


def branch_of(x) -> int:
    """Branch index of x in (0, 1]: the unique a with 2^-(a+1) < x <= 2^-a."""
    return t_apply(x)[0]


def t_apply(x):
    """One step of the map: returns (a, T_a(x)) with T_a(x) = 1/(2^a x) - 1."""
    x = require_rational("x", x)
    if not 0 < x <= 1:
        raise DomainError(f"need 0 < x <= 1, got {x}")
    a, r, (_, shifted) = cl_step(x.numerator, x.denominator)
    return a, Fraction(r, shifted)


@dataclass(frozen=True)
class OrbitStep:
    x: Fraction
    branch: int
    dyadic_log: float   # 2 log |x|_2, the dyadic observable along the orbit


@dataclass(frozen=True)
class OrbitSample:
    steps: tuple[OrbitStep, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    def branches(self) -> tuple[int, ...]:
        return tuple(s.branch for s in self.steps)


def orbit(x0) -> OrbitSample:
    """Iterate the map from a rational x0 in (0, 1] until it hits 0.

    Every rational p/q gets there, within the proven 2 lg q + 2 steps.
    """
    x = require_rational("x0", x0)
    if not 0 < x <= 1:
        raise DomainError(f"orbit needs 0 < x0 <= 1, got {x}")
    steps = []
    while x:
        a, x_next = t_apply(x)
        steps.append(OrbitStep(x, a, 2.0 * dyadic_norm(x) * LN2))
        x = x_next
    return OrbitSample(tuple(steps))


def transfer_apply(f, t: float, v: float,
                   grid: CollocationGrid | None = None) -> np.ndarray:
    """Apply the weighted transfer operator to a sampled function.

    ``f`` is a callable on [0, 1] or an array of finite samples at the grid
    nodes.  Values between nodes are obtained by the grid's barycentric
    interpolant.  The branch sum is ``spectral``'s collocation matrix,
    truncated by ``spectral.truncation_depth`` at ``TAIL_TOL`` times sup|f|
    and summed by binary doubling (2 to 3 log2(a_max) matrix products and
    no linear solve, so the thousand branches needed near t - v = 0.05 cost
    little more than a few); unlike ``build_matrix`` it does not restrict
    (t, v) to the admissible box.  The default grid is the solvers' shared
    64-point grid.
    """
    if grid is None:
        grid = _shared_grid(64)
    samples = np.asarray(f(grid.nodes) if callable(f) else f, dtype=float)
    if samples.shape != (grid.n,):
        raise DomainError(f"expected {grid.n} samples, got {samples.shape}")
    sup_f = float(np.max(np.abs(samples)))
    if not sup_f < math.inf:        # NaN fails this too
        raise DomainError(f"f must have finite samples, got sup|f| = {sup_f}")
    return _branch_matrix(t, v, grid, truncation_depth(t, v, sup_f)).dot(samples)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only 8-point Gauss-Legendre nodes and weights on [-1, 1]."""
    # imported here: numpy.polynomial costs milliseconds at package import
    from numpy.polynomial.legendre import leggauss
    rule = leggauss(8)
    for array in rule:
        array.flags.writeable = False
    return rule


def quad_gl(f, a: float, b: float) -> float:
    """Composite Gauss-Legendre quadrature used for density checks: the
    8-point rule on each of 64 equal panels of [a, b]."""
    nodes, weights = _gauss_legendre()
    edges = np.linspace(a, b, 65).tolist()
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = (lo + hi) / 2.0
        half = (hi - lo) / 2.0
        total += half * float(weights @ f(mid + half * nodes))
    return total


@dataclass(frozen=True)
class BirkhoffReport:
    """Per-step growth rates averaged over random high orbits.

    ``rates`` and ``std_errors`` hold these, keyed in ``_RATES`` order.
    The theory values of the last three are conjectured; ``m_table()``
    holds them:

    shift_rate      S/K, theory log(3/2)/log(4/3) = 1.40942
    entropy         2 log q / K, theory the entropy constant H_conj
    e2              2 log gcd(P,Q) / K, theory B_conj + D
    valuation_rate  val_2(terminal) / K, the running-gcd probe; equals
                    (S - val_2 gcd(P,Q))/K per trajectory, so its theory
                    is (D - B_conj) / (2 ln 2)
    """

    samples: int
    bits: int
    seed: int
    rates: dict[str, float]
    std_errors: dict[str, float]

    def estimates(self) -> dict[str, float]:
        return dict(self.rates)

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "bits": self.bits,
            "seed": self.seed,
            "estimates": self.estimates(),
            "std_errors": dict(self.std_errors),
        }


def _birkhoff_group(args):
    bits, seed, label, chunks = args
    p, q = (np.concatenate(c) for c in zip(*(
        sample_pairs(seed, label, index, count, 1 << (bits - 1),
                     (1 << bits) - 1, True) for index, count in chunks)))
    k, s, terminal = _orbit_runs(p, q)
    vt = _v2(terminal)
    bad = terminal >> vt != 1
    if bad.any():
        i = int(np.argmax(bad))
        raise ConsistencyError(
            f"coprime input {(int(p[i]), int(q[i]))} left an odd factor "
            f"in its terminal {terminal[i]}")
    k, s, vt = (x.astype(float) for x in (k, s, vt))
    # terminal modulus times continuant gcd is 2^S, so val(g) = S - vt
    rates = {
        "shift_rate": s / k,
        "entropy": 2.0 * np.array([math.log(x) for x in q.tolist()]) / k,
        "e2": 2.0 * (s - vt) * LN2 / k,
        "valuation_rate": vt / k,
    }
    rows = np.array([rates[name] for name in _RATES])
    ends = np.cumsum([count for _, count in chunks])
    return [part(count, (), rows[:, end - count:end])
            for (_, count), end in zip(chunks, ends)]


def birkhoff_estimates(bits: int, samples: int, seed: int,
                       threads: int = 1) -> BirkhoffReport:
    """Estimate per-step growth rates from ``samples`` random coprime pairs
    with a ``bits``-bit denominator.  Deterministic in ``seed`` regardless of
    ``threads``: chunks of ``_BIRKHOFF_CHUNK`` orbits fix the seeds and the
    per-chunk sums, merged in chunk order; groups of ``_BIRKHOFF_GROUP``
    chunks fix the lockstep, one group per ``map_chunks`` task.  Each chunk
    draws its pairs with ``parallel.sample_pairs``, as an ensemble chunk
    does, and a group hands their p and q columns to
    ``algorithm._orbit_runs``; every terminal must be a power of two.
    """
    bits = require_int("bits", bits, 16)
    samples = require_int("samples", samples, 2)
    seed = require_int("seed", seed)
    chunks = list(chunk_counts(samples, _BIRKHOFF_CHUNK))
    groups = [(bits, seed, "birkhoff", chunks[i:i + _BIRKHOFF_GROUP])
              for i in range(0, len(chunks), _BIRKHOFF_GROUP)]
    n, sums, squares = merge(
        part for group in map_chunks(_birkhoff_group, groups, threads)
        for part in group)
    means, ses = zip(*(moments(n, total, total_sq, 1.0)
                       for total, total_sq in zip(sums, squares)))
    return BirkhoffReport(
        samples=n,
        bits=bits,
        seed=seed,
        rates=dict(zip(_RATES, means)),
        std_errors=dict(zip(_RATES, ses)),
    )
