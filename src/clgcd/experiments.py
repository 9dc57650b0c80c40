"""Mean-value experiments over the coprime ensembles Omega_N.

Omega_N is the set of coprime pairs (p, q) with 0 < p < q <= N under the
uniform measure.  Exhaustive mode enumerates it outright (capped at
N = 10^4, about 3 x 10^7 pairs; the ensemble grows like 0.3 N^2).
Sampled mode draws from the same law: two values uniform below N, drawn
again when equal, give p = min + 1 and q = max + 1, uniform on the pairs
0 < p < q <= N; a coprime ensemble draws a pair with a common factor
again.  So a sampled mean estimates the exhaustive mean of the same N,
and the two modes can be compared on raw means as well as on slopes.

Sampling is chunked, with each chunk's generator seeded by
(seed, "omega", chunk index) and drawn by ``parallel.sample_pairs``, the
sampler the Birkhoff orbits share; below 2^62 it parses each chunk's
draws in bulk into int64 columns.  Results are bitwise reproducible for
a given seed no matter how many worker processes are used.

The ``theory`` column attached to reports is the leading-order prediction
M(c) * (2/H) * log N.  Its error term is O(1) in N, so ``deviation`` does
not shrink; it is a sanity column, not an assertion.  Hard assertions run
on every pair of every run: the worst-case bounds K <= 2 lg q + 2 and
S <= (2 lg q + 2) lg q, the terminal's odd part against the odd gcd, and
the costs read off the run (shift count, terminal modulus, gcd) checked
exactly against the continuant pair of the digits.

Each chunk runs in two stages on its p and q columns
(``_chunk_columns``): a kernel stage, ``_lockstep_costs`` on int64
columns (every q below 2^62) or ``_scalar_costs`` on object columns,
then the one cost stage, ``_chunk_part``, which derives and checks every
cost.  ``_stats_chunk`` picks the kernel stage; those functions and
``_lockstep_continuants`` say how each stage runs and what it checks.
Both kernel stages give the same sums bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .algorithm import (
    _BATCH_LIMIT,
    _bitlen,
    _exponent_run,
    _lockstep_passes,
    _v2,
)
from .constants import LN2, m_table
from .dynamics import BirkhoffReport, birkhoff_estimates
from .errors import ConsistencyError, DomainError, require_int
from .parallel import (chunk_counts, derive_seed, map_chunks, merge, moments,
                       part, sample_pairs)
from .report import fields_json

# A chunk part's columns are K, S, v(g), v(Q) (ints) and ln Q, ln R
# (floats); each cost reads one column at one scale, sigma being S in nats.
_COST_COLUMNS = {"K": (0, 1.0), "S": (1, 1.0), "sigma": (1, LN2),
                 "q": (4, 2.0), "rho": (2, 2.0 * LN2), "r": (5, 2.0),
                 "q2": (3, 2.0 * LN2)}
COST_KEYS = tuple(_COST_COLUMNS)

EXHAUSTIVE_LIMIT = 10_000

# the totient sieve of dirichlet_check is cheap well past EXHAUSTIVE_LIMIT
DIRICHLET_LIMIT = 100_000

# every entry point that takes a seed defaults to this one, and every
# slope ladder to this many pairs per rung
DEFAULT_SEED = 0x5EED
LADDER_PAIRS = 1_000_000

_CHUNK = 4096


@dataclass(frozen=True)
class OmegaSpec:
    """Which slice of Omega_N to measure, and how.

    ``coprime_only=False`` opens the ensemble to all pairs 0 < p < q <= N
    (exploration only; the analysis constants are stated for coprime
    inputs).
    """

    N: int
    mode: str = "sampled"
    sample_count: int = 100_000
    seed: int = DEFAULT_SEED
    coprime_only: bool = True

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise DomainError(f"mode must be exhaustive or sampled, got {self.mode!r}")
        sampled = self.mode == "sampled"
        object.__setattr__(self, "N", require_int(
            "N", self.N, 2, None if sampled else EXHAUSTIVE_LIMIT))
        object.__setattr__(self, "sample_count", require_int(
            "sample_count", self.sample_count, 2 if sampled else None))
        object.__setattr__(self, "seed", require_int("seed", self.seed))


def _chunk_tasks(spec: OmegaSpec) -> Iterator[tuple]:
    """Split a spec into self-contained chunk descriptors.

    A descriptor regenerates its own pairs, so workers need no shared
    state and ``omega_iter`` equals the concatenation of all chunks.
    """
    if spec.mode == "sampled":
        for index, count in chunk_counts(spec.sample_count, _CHUNK):
            yield ("sampled", spec.N, spec.seed, index, count, spec.coprime_only)
        return
    q = 2
    while q <= spec.N:
        hi = q
        load = 0
        while hi <= spec.N and load < _CHUNK:
            load += hi - 1          # pairs with this denominator, at most
            hi += 1
        yield ("exhaustive", q, hi, spec.coprime_only)
        q = hi


def _chunk_columns(task: tuple) -> tuple:
    """The p and q columns of one chunk, in the order ``omega_iter`` yields:
    int64 arrays, or object arrays of ints for a sampled N of 2^62 or
    more."""
    if task[0] == "sampled":
        _, n, seed, index, count, coprime_only = task
        return sample_pairs(seed, "omega", index, count, 2, n, coprime_only)
    _, q_lo, q_hi, coprime_only = task
    ps, qs = [], []
    gcd = math.gcd
    for q in range(q_lo, q_hi):
        row = [p for p in range(1, q) if not coprime_only or gcd(p, q) == 1]
        ps += row
        qs += [q] * len(row)
    return np.array(ps, np.int64), np.array(qs, np.int64)


def omega_iter(spec: OmegaSpec) -> Iterator[tuple[int, int]]:
    """Yield the pairs of ``spec`` in their canonical order.

    Exhaustive mode walks q ascending, p ascending within q.  Sampled
    mode replays the chunked substreams in chunk order.
    """
    for task in _chunk_tasks(spec):
        p, q = _chunk_columns(task)
        yield from zip(p.tolist(), q.tolist())


def check_worstcase_bounds(p: int, q: int, k: int, s: int) -> None:
    """Hard assertion: the proven step and shift bounds for input (p, q).

    K <= 2 lg q + 2 is checked in exact integer form (q^2 >= 2^(K-2));
    the shift bound multiplies by lg q and is checked in floats with a
    rounding guard.  With b = q.bit_length(), q >= 2^(b-1) puts the step
    bound at 2b or above and the shift bound at 2b(b-1) or above, so K <= 2b
    and S <= 2b(b-1) return before any logarithm.
    """
    b = q.bit_length()
    if k <= 2 * b and s <= 2 * b * (b - 1):
        return
    if k > 2 and q * q < (1 << (k - 2)):
        raise ConsistencyError(
            f"step bound violated: K={k} on (p,q)=({p},{q})"
        )
    lg = math.log2(q)
    if s > (2.0 * lg + 2.0) * lg + 1e-9:
        raise ConsistencyError(
            f"shift bound violated: S={s} on (p,q)=({p},{q})"
        )


def _stats_chunk(task: tuple):
    # the column dtype picks the kernel stage: the sampler and the
    # enumerator give int64 columns for every q below 2^62
    p, q = _chunk_columns(task)
    stage = _scalar_costs if q.dtype == object else _lockstep_costs
    return _chunk_part(*stage(p, q), coprime=task[-1])


def _lockstep_costs(p, q):
    """Kernel stage on int64 arrays, every q < 2^62.

    Takes a chunk's p and q columns and returns p, q, K, S, the terminal
    modulus and the reduced continuant pair (X, Y, E) of every pair, from
    one lockstep run of the chunk.
    """
    p, q = np.asarray(p, np.int64), np.asarray(q, np.int64)
    k, s, terminal, passes = _lockstep_passes(p, q)
    return (p, q, k, s, terminal, *_lockstep_continuants(passes, k))


def _scalar_costs(p, q):
    """Kernel stage pair by pair through ``_exponent_run``, any size.

    Returns what ``_lockstep_costs`` returns, as object arrays.  The
    continuant pair is read innermost first, x, y = y, (x + y) << a, and
    loses its common power of two 2^E at the end.
    """
    p, q = np.asarray(p).tolist(), np.asarray(q).tolist()
    rows = []
    for pi, qi in zip(p, q):
        exps, terminal = _exponent_run(pi, qi, canonical=True)
        x, y = 0, 1
        for a in reversed(exps):
            x, y = y, (x + y) << a
        e = ((x | y) & -(x | y)).bit_length() - 1
        rows.append((len(exps), sum(exps), terminal, x >> e, y >> e, e))
    return (np.array(p, object), np.array(q, object),
            *np.array(rows, object).reshape(-1, 6).T)


def _lockstep_continuants(passes: list, k: np.ndarray):
    """Reduced continuant pair (X, Y) and content exponent E per pair.

    ``passes`` are the (live indices, greedy digits) of
    ``_lockstep_passes`` and ``k`` the canonical step counts it returns.
    The greedy end (..., a) and its canonical relabel (..., a - 1, 0)
    have the same continuant pair, and the relabel adds one to the K of
    every pair with p < q, so K orders the pairs by their passes too.
    The digits are read innermost first, x, y = y, (x + y) << a, carried
    as x = X 2^E, y = Y 2^E with the common power of two stripped every
    step.  The pairs run sorted by K, descending and stable, so the pairs
    live at pass j are the first ones: each pass places its digits in
    that order with one scatter and updates a prefix of x, y and e in
    place.  The result comes back in pair order.  Every suffix of a run
    is the run of one of its states, so X and Y stay that state reduced,
    below q < 2^62; a step that would leave that range raises instead of
    wrapping.
    """
    n = len(k)
    order = np.argsort(-k, kind="stable")
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n)
    x = np.zeros(n, np.int64)
    y = np.ones(n, np.int64)
    e = np.zeros(n, np.int64)
    for live, a in reversed(passes):
        m = live.size
        digits = np.empty(m, np.int64)
        digits[rank[live]] = a
        xl, yl = x[:m], y[:m]
        # gcd(X, Y) = 1, so gcd(Y, (X + Y) 2^a) = 2^min(v(Y), a)
        c = np.minimum(_v2(yl), digits)
        shift = digits - c
        t = xl + yl
        over = t >= _BATCH_LIMIT >> shift
        if over.any():
            raise ConsistencyError(f"continuant pair of chunk pair "
                                   f"{order[np.argmax(over)]} leaves 2^62")
        np.right_shift(yl, c, out=xl)
        np.left_shift(t, shift, out=yl)
        e[:m] += c
    return x[rank], y[rank], e[rank]


def _log_columns(r, g_exp):
    # math.log of Q = R 2^g and of R per pair, as float64 arrays.  On int64
    # the logs take the floats fl(R) 2^g, which equal fl(Q) and so give
    # math.log(Q) exactly; Python ints stand in for object arrays and
    # wherever fl(Q) overflows.
    if r.dtype == object:
        q_vals, r_vals = (r << g_exp).tolist(), r.tolist()
    else:
        rf = r.astype(np.float64)
        with np.errstate(over="ignore"):
            qf = np.ldexp(rf, g_exp)
        big = np.isinf(qf)
        if big.any():
            qf = qf.astype(object)
            qf[big] = r[big].astype(object) << g_exp[big].astype(object)
        q_vals, r_vals = qf.tolist(), rf.tolist()
    log = math.log
    return [np.fromiter(map(log, v), np.float64, len(v))
            for v in (q_vals, r_vals)]


def _pair(p, q, i) -> tuple:
    return int(p[i]), int(q[i])


def _chunk_part(p, q, k, s, terminal, x, y, e, coprime: bool):
    # The cost stage, on either kernel stage's arrays.  Every cost is an
    # integer the run already holds.  With d = gcd(p, q) the terminal
    # modulus carries the odd part of d, the continuant pair has
    # power-of-two content g = 2^(v(d) + S - v(terminal)), R = q / d and
    # Q = R g.  A coprime chunk takes d = 1, which its own gcd established
    # when it accepted each pair; any other chunk computes d.  The bounds
    # are decided by check_worstcase_bounds on a prefilter that keeps
    # every violator: q >= 2^(b-1) makes a violation need K > 2b or
    # S > 2b(b-1), the bound of that function's early return.  The reduced
    # continuant pair of the digits must give back X = p / d, Y = R and
    # E = v(g) exactly; E is built without S, so the last comparison pins
    # S and v(terminal).
    b = _bitlen(q)
    for i in np.flatnonzero((k > 2 * b) | (s > 2 * b * (b - 1))):
        check_worstcase_bounds(*_pair(p, q, i), int(k[i]), int(s[i]))
    vt = _v2(terminal)
    if coprime:
        odd_d, g_exp, x_want, r = 1, s - vt, p, q
    else:
        d = np.gcd(p, q)
        vd = _v2(d)
        odd_d, g_exp, x_want, r = d >> vd, vd + s - vt, p // d, q // d
    bad = terminal >> vt != odd_d
    if bad.any():
        i = int(np.argmax(bad))
        raise ConsistencyError(
            f"terminal {terminal[i]} lacks the odd gcd of {_pair(p, q, i)}")
    q_exp = g_exp + _v2(r)
    bad = (x != x_want) | (y != r) | (e != g_exp)
    if bad.any():
        raise ConsistencyError("run and continuant pair disagree on "
                               f"{_pair(p, q, int(np.argmax(bad)))}")
    # the logs stay math.log of the exact integers, summed in pair order
    return part(len(p), (k, s, g_exp, q_exp), _log_columns(r, g_exp))


def theory_means(n: int) -> dict:
    """Leading-order predictions M(c) * (2/H) * log N for every cost."""
    table = m_table()
    steps = table.two_over_H * math.log(n)
    out = {"K": steps, "S": steps * table.D / LN2}
    for key, growth in table.mean_costs.items():
        out[key] = steps * growth
    return out


@dataclass(frozen=True)
class ExperimentReport:
    """Mean costs over one ensemble, with leading-order reference values."""

    spec: OmegaSpec
    samples: int
    means: dict
    stderrs: dict
    # every ensemble runs under the one convention
    convention = "canonical"

    @property
    def seed(self) -> int | None:
        """The seed the pairs were drawn with; None for an exhaustive run."""
        return None if self.spec.mode == "exhaustive" else self.spec.seed

    @property
    def ratios_to_k(self) -> dict:
        return {key: self.means[key] / self.means["K"] for key in COST_KEYS}

    @property
    def theory(self) -> dict:
        return theory_means(self.spec.N)

    def deviations(self) -> dict:
        theory = self.theory
        return {key: self.means[key] - theory[key] for key in COST_KEYS}

    def to_csv_rows(self) -> list:
        rows = [["N", "mode", "samples", "cost", "mean", "stderr",
                 "ratio_to_K", "theory", "deviation"]]
        ratios, theory, dev = self.ratios_to_k, self.theory, self.deviations()
        for key in COST_KEYS:
            rows.append([
                self.spec.N, self.spec.mode, self.samples, key,
                repr(self.means[key]), repr(self.stderrs[key]),
                repr(ratios[key]), repr(theory[key]), repr(dev[key]),
            ])
        return rows

    def to_json_dict(self) -> dict:
        return {
            "N": self.spec.N,
            "mode": self.spec.mode,
            "coprime_only": self.spec.coprime_only,
            "seed": self.seed,
            "convention": self.convention,
            "samples": self.samples,
            "means": dict(self.means),
            "stderrs": dict(self.stderrs),
            "ratios_to_K": self.ratios_to_k,
            "theory": self.theory,
            "deviations": self.deviations(),
        }


def mean_costs(spec: OmegaSpec, threads: int = 1) -> ExperimentReport:
    """Mean cost vector over ``spec``, canonical convention.

    Every pair is checked against the worst-case bounds, its terminal
    against its odd gcd, and its costs, read off the run, exactly against
    its continuant pair, so one experiment is also as many exact identity
    checks as pairs.  Each chunk hands its p and q columns to a kernel
    stage: the int64 lockstep on int64 columns (every q below 2^62),
    else pair by pair.  One cost stage serves both, and the result does
    not depend on which kernel ran.  A coprime chunk checks each terminal
    against d = 1, from the gcd that accepted the pair, and computes no
    second gcd.
    Deterministic in ``spec.seed`` for any thread count.
    """
    n, sums, squares = merge(
        map_chunks(_stats_chunk, _chunk_tasks(spec), threads))
    if n < 2:
        raise DomainError(f"ensemble too small: {n} pairs")
    means = {}
    stderrs = {}
    for key, (col, scale) in _COST_COLUMNS.items():
        means[key], stderrs[key] = moments(n, sums[col], squares[col], scale)
    return ExperimentReport(spec=spec, samples=n, means=means, stderrs=stderrs)


@dataclass(frozen=True)
class SlopeReport:
    """Two-rung slope estimates d(mean cost)/d(log N).

    The rungs are N_max // 16 and N_max, so each slope is a mean
    difference over the log of their ratio, log 16 when 16 divides N_max.
    ``ratios`` holds slope(c)/slope(K); ratio standard errors treat the
    two slopes as independent, which overstates the error slightly
    (shared pairs correlate them positively).
    ``targets`` holds the limit values: for K the slope itself (2/H),
    for every other cost the slope ratio.
    """

    N_max: int
    sample_count: int
    seed: int
    slopes: dict
    slope_stderrs: dict
    ratios: dict
    ratio_stderrs: dict
    targets: dict
    rungs: tuple

    to_json_dict = fields_json


def slope_estimate(N_max: int, sample_count: int = LADDER_PAIRS,
                   seed: int = DEFAULT_SEED, threads: int = 1) -> SlopeReport:
    """Estimate the growth slopes of all mean costs at scale ``N_max``.

    Uses sampled ensembles at N_max // 16 and N_max with independent
    substreams.  Requires N_max >= 2^16 so the lower rung is itself
    asymptotic enough to difference against.
    """
    N_max = require_int("N_max", N_max, 1 << 16)
    seed = require_int("seed", seed)
    ns = (N_max // 16, N_max)
    log_step = math.log(ns[1] / ns[0])
    rungs = []
    for i, n in enumerate(ns):
        spec = OmegaSpec(N=n, mode="sampled", sample_count=sample_count,
                         seed=derive_seed(seed, "rung", i))
        rungs.append(mean_costs(spec, threads=threads))
    lo, hi = rungs

    table = m_table()
    slopes = {}
    errs = {}
    for key in COST_KEYS:
        slopes[key] = (hi.means[key] - lo.means[key]) / log_step
        errs[key] = math.hypot(hi.stderrs[key], lo.stderrs[key]) / log_step
    if slopes["K"] == 0:
        raise DomainError(f"slope(K) is 0 from N = {ns[0]} to {ns[1]}")
    ratios = {key: slopes[key] / slopes["K"] for key in COST_KEYS}
    ratio_errs = {}
    for key in COST_KEYS:
        if slopes[key]:
            ratio_errs[key] = abs(ratios[key]) * math.hypot(
                errs[key] / slopes[key], errs["K"] / slopes["K"])
        else:           # the limit of the expression as slope(c) -> 0
            ratio_errs[key] = errs[key] / abs(slopes["K"])
    targets = {"K": table.two_over_H, "S": table.D / LN2, **table.mean_costs}
    return SlopeReport(
        N_max=N_max,
        sample_count=hi.spec.sample_count,
        seed=seed,
        slopes=slopes,
        slope_stderrs=errs,
        ratios=ratios,
        ratio_stderrs=ratio_errs,
        targets=targets,
        rungs=(lo, hi),
    )


def _totients(n: int) -> list:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:             # p is prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _zeta(z: float) -> float:
    """zeta(z) by direct summation with Euler-Maclaurin tail.

    Three correction terms leave a truncation error below 1e-16 relative
    for z >= 2 at this cutoff.  Where 2^-z underflows, every term past
    k = 1 is 0 and the sum is 1.0; the tail would take inf * 0 there.
    """
    if 2.0 ** -z == 0.0:
        return 1.0
    m = 20_000      # the cutoff
    head = math.fsum(k ** -z for k in range(m, 0, -1))
    # head includes k = m, so the boundary term enters with minus
    tail = m ** (1.0 - z) / (z - 1.0) - 0.5 * m ** -z + z * m ** (-z - 1.0) / 12.0
    tail -= z * (z + 1.0) * (z + 2.0) * m ** (-z - 3.0) / 720.0
    return head + tail


@dataclass(frozen=True)
class DirichletReport:
    s: float
    N: int
    partial_sum: float
    zeta_ratio: float
    deviation: float
    tail_scale: float

    to_json_dict = fields_json


def dirichlet_check(s: float = 2.0, N: int = 10_000) -> DirichletReport:
    """Partial sums of the pair series S(s) against zeta(2s-1)/zeta(2s).

    S(s) = sum over coprime 0 < p <= q of q^(-2s) = sum phi(q) q^(-2s),
    where the q = 1 term is the single pair (1, 1).  The truncation error
    is on the order of N^(2-2s), hence the s >= 1.5 floor.
    """
    if not 1.5 <= s < math.inf:
        raise DomainError(f"need a finite s >= 1.5 for a convergent check, "
                          f"got {s}")
    N = require_int("N", N, 2, DIRICHLET_LIMIT)
    phi = _totients(N)
    z = 2.0 * s
    partial = math.fsum(phi[q] * q ** -z for q in range(N, 0, -1))
    ratio = _zeta(z - 1.0) / _zeta(z)
    return DirichletReport(
        s=s,
        N=N,
        partial_sum=partial,
        zeta_ratio=ratio,
        deviation=partial - ratio,
        tail_scale=N ** (2.0 - 2.0 * s),
    )


@dataclass(frozen=True)
class WorstCaseReport:
    """K and S on the extremal family (1, 2^n - 1) under both conventions.

    ``rows`` holds (n, K_greedy, S_greedy, K_canonical, S_canonical).
    ``fits`` holds per-convention least-squares coefficients: alpha and
    beta from K = alpha n + beta, gamma from the n^2 term of S.
    """

    n_max: int
    rows: tuple
    fits: dict

    def to_csv_rows(self) -> list:
        out = [["n", "K_greedy", "S_greedy", "K_canonical", "S_canonical"]]
        out.extend(list(row) for row in self.rows)
        return out

    to_json_dict = fields_json


def worstcase_scan(n_max: int = 64) -> WorstCaseReport:
    """Scan the worst-case family (1, 2^n - 1) for n = 2 .. n_max.

    Checks the hard bounds on every run and fits K = alpha n + beta,
    S = gamma n^2 + (lower order).  Both conventions are scanned; they
    differ by exactly one step on this family.  The S fit is quadratic,
    so n_max must be at least 4: three points or more.
    """
    n_max = require_int("n_max", n_max, 4, 512)
    rows = []
    for n in range(2, n_max + 1):
        q = (1 << n) - 1
        row = [n]
        for canonical in (False, True):
            exps, _terminal = _exponent_run(1, q, canonical=canonical)
            k = len(exps)
            s = sum(exps)
            check_worstcase_bounds(1, q, k, s)
            row.extend((k, s))
        rows.append(tuple(row))
    ns = np.array([row[0] for row in rows], dtype=float)
    fits = {}
    for conv, (ki, si) in (("greedy", (1, 2)), ("canonical", (3, 4))):
        ks = np.array([row[ki] for row in rows], dtype=float)
        ss = np.array([row[si] for row in rows], dtype=float)
        alpha, beta = np.polyfit(ns, ks, 1)
        gamma = np.polyfit(ns, ss, 2)[0]
        fits[conv] = {"alpha": float(alpha), "beta": float(beta),
                      "gamma": float(gamma)}
    return WorstCaseReport(n_max=n_max, rows=tuple(rows), fits=fits)


# Per-trajectory Birkhoff averages carry an O(1/K) edge effect from the
# non-equilibrium first and last steps; for e2 the coefficient sits near
# -2.3 (measured (target - e2) * mean(K) at 64/128/256/512-bit inputs:
# 3.07, 2.57, 2.38, 2.28 with 4000 orbits each).  2.5 covers the range
# and enters the combined error of the conjecture test as 2.5 / mean(K).
EDGE_COEFF = 2.5


@dataclass(frozen=True)
class ConjectureReport:
    """Two estimators of B + D against the conjectured 2D - log 2.

    The conjecture D - B = log 2 pins B + D; it is probed by the
    trajectory estimator e2 (Birkhoff averages of the continuant-gcd
    valuation) and the ensemble estimator slope(rho)/slope(K).  Each
    estimate also implies a value of D - B via the closed-form D.

    ``e2_systematic`` is the known finite-trajectory scale EDGE_COEFF/K
    of the e2 estimator; ``combined_stderr`` folds it in alongside both
    statistical errors, and ``z_score`` is the difference in those units.
    """

    target: float
    e2_estimate: float
    e2_stderr: float
    e2_systematic: float
    ratio_estimate: float
    ratio_stderr: float
    difference: float
    combined_stderr: float
    z_score: float
    implied_d_minus_b: dict
    log2: float
    birkhoff: BirkhoffReport
    slope: SlopeReport

    to_json_dict = fields_json


def conjecture_check(bits: int = 256, trajectory_samples: int = 10_000,
                     N_max: int = 1_000_000, pair_samples: int = LADDER_PAIRS,
                     seed: int = DEFAULT_SEED,
                     threads: int = 1) -> ConjectureReport:
    """Test D - B = log 2 through its consequence for B + D, the target
    ``B_conj + D`` of ``m_table()`` (its ``mean_costs["rho"]``).

    The two estimators share nothing: one averages dyadic valuations
    along long trajectories, the other differences ensemble means across
    a factor-16 ladder.
    """
    # refused before the Birkhoff run, under the names given here
    require_int("N_max", N_max, 1 << 16)
    require_int("pair_samples", pair_samples, 2)
    table = m_table()
    target = table.mean_costs["rho"]
    birkhoff = birkhoff_estimates(bits, trajectory_samples,
                                  derive_seed(seed, "conjecture", 0), threads)
    slope = slope_estimate(N_max, pair_samples,
                           derive_seed(seed, "conjecture", 1), threads)
    e2 = birkhoff.rates["e2"]
    e2_se = birkhoff.std_errors["e2"]
    # asymptotic mean trajectory length for inputs of this size
    mean_steps = table.two_over_H * birkhoff.bits * LN2
    e2_sys = EDGE_COEFF / mean_steps
    ratio = slope.ratios["rho"]
    ratio_se = slope.ratio_stderrs["rho"]
    diff = e2 - ratio
    combined = math.hypot(e2_se, ratio_se, e2_sys)
    return ConjectureReport(
        target=target,
        e2_estimate=e2,
        e2_stderr=e2_se,
        e2_systematic=e2_sys,
        ratio_estimate=ratio,
        ratio_stderr=ratio_se,
        difference=diff,
        combined_stderr=combined,
        z_score=diff / combined if combined > 0 else math.inf,
        implied_d_minus_b={
            "trajectory": 2.0 * table.D - e2,
            "ensemble": 2.0 * table.D - ratio,
        },
        log2=LN2,
        birkhoff=birkhoff,
        slope=slope,
    )
