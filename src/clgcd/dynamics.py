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
orbits run through ``algorithm._leading_word_run``, the leading-word
kernel, which gives K, S and the terminal modulus of ``_exponent_run``
bit for bit and checks every batch it applies (|det M| = 2^(shift sum),
0 < u' < w').  Every orbit's terminal must be a power of two.  Chunks of
orbits fix the seeds and the order of the sums; a pool task runs a fixed
group of chunks through the kernel in one lockstep.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

import numpy as np
from scipy.special import roots_legendre

from .algorithm import _leading_word_run
from .constants import LN2, LOG43
from .dyadic import dyadic_valuation
from .errors import ConsistencyError, DomainError
from .parallel import chunk_counts, derive_seed, map_chunks, moments
from .spectral import CollocationGrid, _branch_matrix, truncation_depth

# a chunk's orbits share one seeded generator; a group's share one lockstep
_BIRKHOFF_CHUNK = 128
_BIRKHOFF_GROUP = 16


def psi(x):
    """Invariant density 1/(log(4/3) (x+1)(x+2)); accepts floats or arrays."""
    return 1.0 / (LOG43 * (x + 1.0) * (x + 2.0))


def branch_of(x) -> int:
    """Branch index of x in (0, 1]: the unique a with 2^-(a+1) < x <= 2^-a."""
    x = Fraction(x)
    if not 0 < x <= 1:
        raise DomainError(f"branch index needs 0 < x <= 1, got {x}")
    return (x.denominator // x.numerator).bit_length() - 1


def t_apply(x):
    """One step of the map: returns (a, T_a(x)) with T_a(x) = 1/(2^a x) - 1."""
    x = Fraction(x)
    a = branch_of(x)
    num, den = x.numerator, x.denominator
    shifted = num << a
    return a, Fraction(den - shifted, shifted)


@dataclass(frozen=True)
class OrbitStep:
    x: Fraction
    branch: int
    dyadic_log: float   # 2 log |x|_2, the dyadic observable along the orbit


@dataclass(frozen=True)
class OrbitSample:
    steps: tuple[OrbitStep, ...]
    terminated: bool

    @property
    def length(self) -> int:
        return len(self.steps)

    def branches(self) -> tuple[int, ...]:
        return tuple(s.branch for s in self.steps)


def orbit(x0, max_steps: int = 10_000) -> OrbitSample:
    """Iterate the map from x0 until it hits 0 (rationals always do)."""
    x = Fraction(x0)
    if not 0 < x <= 1:
        raise DomainError(f"orbit needs 0 < x0 <= 1, got {x}")
    steps = []
    for _ in range(max_steps):
        a, x_next = t_apply(x)
        dlog = 2.0 * (dyadic_valuation(x.denominator)
                      - dyadic_valuation(x.numerator)) * LN2
        steps.append(OrbitStep(x, a, dlog))
        x = x_next
        if x == 0:
            return OrbitSample(tuple(steps), True)
    return OrbitSample(tuple(steps), False)


def transfer_apply(f, t: float, v: float, tail_tol: float = 1e-10,
                   grid: CollocationGrid | None = None) -> np.ndarray:
    """Apply the weighted transfer operator to a sampled function.

    ``f`` is either a callable on [0, 1] or an array of samples at the grid
    nodes.  Values between nodes are obtained by the grid's barycentric
    interpolant.  The branch sum is ``spectral``'s collocation matrix,
    truncated by ``spectral.truncation_depth`` at ``tail_tol`` and sup|f|;
    unlike ``build_matrix`` it does not restrict (t, v) to the admissible box.
    """
    if grid is None:
        grid = CollocationGrid(64)
    samples = np.asarray(f(grid.nodes) if callable(f) else f, dtype=float)
    if samples.shape != (grid.n,):
        raise DomainError(f"expected {grid.n} samples, got {samples.shape}")
    a_max = truncation_depth(t, v, tail_tol, float(np.max(np.abs(samples))))
    return _branch_matrix(t, v, grid, a_max) @ samples


def quad_gl(f, a: float, b: float, panels: int = 64, order: int = 8) -> float:
    """Composite Gauss-Legendre quadrature used for density checks."""
    nodes, weights = roots_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = (lo + hi) / 2.0
        half = (hi - lo) / 2.0
        total += half * float(weights @ f(mid + half * nodes))
    return total


@dataclass(frozen=True)
class BirkhoffReport:
    """Per-step growth rates averaged over random high orbits.

    mean_shift_per_step    S/K, theory log(3/2)/log(4/3) = 1.40942
    entropy_estimate       2 log q / K, theory the entropy constant 1.33973
    e2_estimate            2 log gcd(P,Q) / K, theory B+D = 1.26071
    valuation_rate         val_2(terminal) / K, the running-gcd probe; equals
                           (S - val_2 gcd(P,Q))/K per trajectory, so the
                           conjectured dyadic rate makes it approach 1/2
    """

    samples: int
    bits: int
    seed: int
    mean_shift_per_step: float
    entropy_estimate: float
    e2_estimate: float
    valuation_rate: float
    std_errors: dict[str, float]

    def estimates(self) -> dict[str, float]:
        return {
            "shift_rate": self.mean_shift_per_step,
            "entropy": self.entropy_estimate,
            "e2": self.e2_estimate,
            "valuation_rate": self.valuation_rate,
        }

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
    lo, hi = 1 << (bits - 1), 1 << bits
    pairs = []
    for index, count in chunks:
        rng = random.Random(derive_seed(seed, label, index))
        for _ in range(count):
            q = rng.randrange(lo, hi)
            p = rng.randrange(1, q)
            while gcd(p, q) != 1:
                p = rng.randrange(1, q)
            pairs.append((p, q))
    orbits = zip(pairs, *_leading_word_run(pairs))
    parts = []
    for _, count in chunks:
        sums = [0.0] * 4
        sumsq = [0.0] * 4
        for (_, q), k, s, terminal in islice(orbits, count):
            vt = dyadic_valuation(terminal)
            if terminal != (1 << vt):
                raise ConsistencyError("coprime input left an odd factor")
            # terminal modulus times continuant gcd is 2^S, so val(g) = S - vt
            vg = s - vt
            vals = (
                s / k,
                2.0 * math.log(q) / k,
                2.0 * vg * LN2 / k,
                vt / k,
            )
            for j, val in enumerate(vals):
                sums[j] += val
                sumsq[j] += val * val
        parts.append((count, sums, sumsq))
    return parts


def birkhoff_estimates(bits: int, samples: int, seed: int,
                       threads: int = 1) -> BirkhoffReport:
    """Estimate per-step growth rates from ``samples`` random coprime pairs
    with a ``bits``-bit denominator.  Deterministic in ``seed`` regardless of
    ``threads``: chunks of ``_BIRKHOFF_CHUNK`` orbits fix the seeds and the
    per-chunk sums, merged in chunk order; groups of ``_BIRKHOFF_GROUP``
    chunks fix the lockstep, one group per pool task.  Each orbit runs
    through the leading-word kernel, whose applied batches are checked
    exactly, and must end on a power-of-two terminal.
    """
    if bits < 16:
        raise DomainError(f"need bits >= 16 for asymptotic rates, got {bits}")
    if samples < 2:
        raise DomainError("need at least 2 samples")
    chunks = list(chunk_counts(samples, _BIRKHOFF_CHUNK))
    groups = [(bits, seed, "birkhoff", chunks[i:i + _BIRKHOFF_GROUP])
              for i in range(0, len(chunks), _BIRKHOFF_GROUP)]
    parts = [part for group in map_chunks(_birkhoff_group, groups, threads)
             for part in group]
    n = sum(p[0] for p in parts)
    means, ses = zip(*(
        moments(n, math.fsum(p[1][j] for p in parts),
                math.fsum(p[2][j] for p in parts), 1.0)
        for j in range(4)
    ))
    keys = ("shift_rate", "entropy", "e2", "valuation_rate")
    return BirkhoffReport(
        samples=n,
        bits=bits,
        seed=seed,
        mean_shift_per_step=means[0],
        entropy_estimate=means[1],
        e2_estimate=means[2],
        valuation_rate=means[3],
        std_errors=dict(zip(keys, ses)),
    )
