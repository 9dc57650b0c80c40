"""Mean-value experiments over the coprime ensembles Omega_N.

Omega_N is the set of coprime pairs (p, q) with 0 < p < q <= N under the
uniform measure.  Exhaustive mode enumerates it outright (capped at
N = 10^4, about 3 x 10^7 pairs; the ensemble grows like 0.3 N^2).
Sampled mode draws q uniform on [2, N], p uniform on [1, q-1], and
rejects until the pair is coprime.  That keeps q roughly uniform instead
of phi-weighted, which shifts every mean cost by an N-independent amount
and so cancels from slope estimates; comparisons against exhaustive runs
should therefore be made on slopes or on cost ratios, not on raw means.

Sampling is chunked, with each chunk's generator seeded by
(seed, "omega", chunk index).  Results are bitwise reproducible for a
given seed no matter how many worker processes are used.

The ``theory`` column attached to reports is the leading-order prediction
M(c) * (2/H) * log N.  Its error term is O(1) in N, so ``deviation`` does
not shrink; it is a sanity column, not an assertion.  Hard assertions run
on every pair of every run: the worst-case bounds K <= 2 lg q + 2 and
S <= (2 lg q + 2) lg q, the terminal's odd part against the odd gcd, and
the costs read off the run (shift count, terminal modulus, gcd) checked
exactly against the continuant pair of the digits.

Each chunk runs in two stages.  The sampler or the exhaustive enumerator
hands the chunk's p and q columns (``_chunk_columns``) straight to a
kernel stage, which returns K, S, the terminal modulus and the continuant
pair of the digits in reduced form, (X, Y) with content exponent E: in
int64 lockstep (``_lockstep_costs``) when the chunk's own bound on q (N
for a sampled chunk, the last denominator of an exhaustive one) is below
2^62, else pair by pair through ``_exponent_run`` (``_scalar_costs``).
The int64 stage runs its forward passes in pair order and reads the
continuant pair back with the pairs sorted by K, so the pairs a pass
touches are a prefix (``_lockstep_continuants``).  One cost stage
(``_chunk_part``) derives every cost from K, S and the terminal, checks
it exactly against (X, Y, E) and sums; both kernel stages give the same
sums bit for bit.  A coprime chunk checks the terminal against d = 1,
which its own gcd established when it accepted each pair; a chunk open
to all pairs computes d = gcd(p, q).  The logs are ``math.log`` of the
exact Q and R, taken on floats that round them exactly as ``math.log``
does, and added one by one in pair order.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .algorithm import (
    _BATCH_LIMIT,
    _bitlen,
    _exponent_run,
    _lockstep_passes,
    _v2,
)
from .constants import LN2, ConstantsTable, m_table
from .dynamics import BirkhoffReport, birkhoff_estimates
from .errors import ConsistencyError, DomainError, require_int
from .parallel import (chunk_counts, derive_seed, map_chunks, merge, moments,
                       part)

# A chunk part's columns are K, S, v(g), v(Q) (ints) and ln Q, ln R
# (floats); each cost reads one column at one scale, sigma being S in nats.
_COST_COLUMNS = {"K": (0, 1.0), "S": (1, 1.0), "sigma": (1, LN2),
                 "q": (4, 2.0), "rho": (2, 2.0 * LN2), "r": (5, 2.0),
                 "q2": (3, 2.0 * LN2)}
COST_KEYS = tuple(_COST_COLUMNS)

EXHAUSTIVE_LIMIT = 10_000

# the totient sieve of dirichlet_check is cheap well past EXHAUSTIVE_LIMIT
DIRICHLET_LIMIT = 100_000

# every entry point that takes a seed defaults to this one
DEFAULT_SEED = 0x5EED

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


def _sample_chunk(n: int, seed: int, index: int, count: int,
                  coprime_only: bool) -> tuple[list, list]:
    # q = randint(2, n) and p = randint(1, q - 1), drawn the way
    # random.Random draws them: getrandbits(k), k the bit length of the
    # range width, redrawn until below the width.  Same stream, 3x faster.
    # Returns the p and q columns of the chunk.
    getrandbits = random.Random(derive_seed(seed, "omega", index)).getrandbits
    gcd = math.gcd
    width = n - 1
    bits = width.bit_length()
    ps, qs = [], []
    p_append, q_append = ps.append, qs.append
    for _ in range(count):
        while True:
            q = getrandbits(bits)
            while q >= width:
                q = getrandbits(bits)
            q += 2
            p_width = q - 1
            p_bits = p_width.bit_length()
            p = getrandbits(p_bits)
            while p >= p_width:
                p = getrandbits(p_bits)
            p += 1
            if not coprime_only or gcd(p, q) == 1:
                break
        p_append(p)
        q_append(q)
    return ps, qs


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


def _chunk_columns(task: tuple) -> tuple[list, list]:
    """The p and q columns of one chunk, in the order ``omega_iter`` yields."""
    if task[0] == "sampled":
        return _sample_chunk(*task[1:])
    _, q_lo, q_hi, coprime_only = task
    ps, qs = [], []
    gcd = math.gcd
    for q in range(q_lo, q_hi):
        row = [p for p in range(1, q) if not coprime_only or gcd(p, q) == 1]
        ps += row
        qs += [q] * len(row)
    return ps, qs


def omega_iter(spec: OmegaSpec) -> Iterator[tuple[int, int]]:
    """Yield the pairs of ``spec`` in their canonical order.

    Exhaustive mode walks q ascending, p ascending within q.  Sampled
    mode replays the chunked substreams in chunk order.
    """
    for task in _chunk_tasks(spec):
        yield from zip(*_chunk_columns(task))


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
    # the task's own bound on q picks the kernel stage: N for a sampled
    # chunk, q_hi - 1 for an exhaustive one
    bound = task[1] if task[0] == "sampled" else task[2] - 1
    stage = _lockstep_costs if bound < _BATCH_LIMIT else _scalar_costs
    return _chunk_part(*stage(*_chunk_columns(task)), coprime=task[-1])


def _lockstep_costs(p: list, q: list):
    """Kernel stage on int64 arrays, every q < 2^62.

    Takes a chunk's p and q columns and returns p, q, K, S, the terminal
    modulus and the reduced continuant pair (X, Y, E) of every pair, from
    one lockstep run of the chunk.
    """
    p, q = np.array(p, np.int64), np.array(q, np.int64)
    k, s, terminal = (np.zeros(p.size, np.int64) for _ in range(3))
    steps = list(_lockstep_passes(p, q, k, s, terminal))
    return (p, q, k, s, terminal, *_lockstep_continuants(steps, k))


def _scalar_costs(p: list, q: list):
    """Kernel stage pair by pair through ``_exponent_run``, any size.

    Returns what ``_lockstep_costs`` returns, as object arrays.  The
    continuant pair is read innermost first, x, y = y, (x + y) << a, and
    loses its common power of two 2^E at the end.
    """
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


def _lockstep_continuants(steps: list, k: np.ndarray):
    """Reduced continuant pair (X, Y) and content exponent E per pair.

    ``steps`` are the (live indices, greedy digits) of
    ``_lockstep_passes`` and ``k`` the canonical step counts it filled in.
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
    for live, a in reversed(steps):
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


def theory_means(n: int, table: Optional[ConstantsTable] = None) -> dict:
    """Leading-order predictions M(c) * (2/H) * log N for every cost."""
    table = table or m_table()
    steps = table.two_over_H * math.log(n)
    out = {"K": steps, "S": steps * table.D / LN2}
    for key, growth in table.mean_costs.items():
        out[key] = steps * growth
    return out


@dataclass(frozen=True)
class ExperimentReport:
    """Mean costs over one ensemble, with leading-order reference values."""

    spec: OmegaSpec
    convention: str
    samples: int
    means: dict
    stderrs: dict
    ratios_to_k: dict
    theory: dict

    def deviations(self) -> dict:
        return {key: self.means[key] - self.theory[key] for key in COST_KEYS}

    def to_csv_rows(self) -> list:
        rows = [["N", "mode", "samples", "cost", "mean", "stderr",
                 "ratio_to_K", "theory", "deviation"]]
        dev = self.deviations()
        for key in COST_KEYS:
            rows.append([
                self.spec.N, self.spec.mode, self.samples, key,
                repr(self.means[key]), repr(self.stderrs[key]),
                repr(self.ratios_to_k[key]), repr(self.theory[key]),
                repr(dev[key]),
            ])
        return rows

    def to_json_dict(self) -> dict:
        return {
            "N": self.spec.N,
            "mode": self.spec.mode,
            "coprime_only": self.spec.coprime_only,
            "seed": self.spec.seed,
            "convention": self.convention,
            "samples": self.samples,
            "means": dict(self.means),
            "stderrs": dict(self.stderrs),
            "ratios_to_K": dict(self.ratios_to_k),
            "theory": dict(self.theory),
            "deviations": self.deviations(),
        }


def mean_costs(spec: OmegaSpec, threads: int = 1) -> ExperimentReport:
    """Mean cost vector over ``spec``, canonical convention.

    Every pair is checked against the worst-case bounds, its terminal
    against its odd gcd, and its costs, read off the run, exactly against
    its continuant pair, so one experiment is also as many exact identity
    checks as pairs.  Each chunk hands its p and q columns to a kernel
    stage: the int64 lockstep when the chunk's bound on q is below 2^62,
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
    ratios = {key: means[key] / means["K"] for key in COST_KEYS}
    return ExperimentReport(
        spec=spec,
        convention="canonical",
        samples=n,
        means=means,
        stderrs=stderrs,
        ratios_to_k=ratios,
        theory=theory_means(spec.N),
    )


@dataclass(frozen=True)
class SlopeReport:
    """Two-rung slope estimates d(mean cost)/d(log N).

    The rungs are N_max/16 and N_max, so each slope is a mean difference
    over log 16.  ``ratios`` holds slope(c)/slope(K); ratio standard
    errors treat the two slopes as independent, which overstates the
    error slightly (shared pairs correlate them positively).
    ``targets`` holds the limit values: for K the slope itself (2/H),
    for every other cost the slope ratio.
    """

    N_max: int
    sample_count: int
    seed: int
    rungs: tuple
    slopes: dict
    slope_stderrs: dict
    ratios: dict
    ratio_stderrs: dict
    targets: dict

    def to_json_dict(self) -> dict:
        return {
            "N_max": self.N_max,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "slopes": dict(self.slopes),
            "slope_stderrs": dict(self.slope_stderrs),
            "ratios": dict(self.ratios),
            "ratio_stderrs": dict(self.ratio_stderrs),
            "targets": dict(self.targets),
            "rungs": [r.to_json_dict() for r in self.rungs],
        }


def slope_estimate(N_max: int, sample_count: int = 1_000_000,
                   seed: int = DEFAULT_SEED, threads: int = 1) -> SlopeReport:
    """Estimate the growth slopes of all mean costs at scale ``N_max``.

    Uses sampled ensembles at N_max/16 and N_max with independent
    substreams.  Requires N_max >= 2^16 so the lower rung is itself
    asymptotic enough to difference against.
    """
    N_max = require_int("N_max", N_max, 1 << 16)
    log_step = math.log(16.0)
    rungs = []
    for i, n in enumerate((N_max // 16, N_max)):
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
    ratios = {}
    ratio_errs = {}
    for key in COST_KEYS:
        ratio = slopes[key] / slopes["K"]
        ratios[key] = ratio
        ratio_errs[key] = abs(ratio) * math.hypot(
            errs[key] / slopes[key], errs["K"] / slopes["K"])
    targets = {"K": table.two_over_H, "S": table.D / LN2, **table.mean_costs}
    return SlopeReport(
        N_max=N_max,
        sample_count=sample_count,
        seed=seed,
        rungs=(lo, hi),
        slopes=slopes,
        slope_stderrs=errs,
        ratios=ratios,
        ratio_stderrs=ratio_errs,
        targets=targets,
    )


def _totients(n: int) -> list:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:             # p is prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _zeta(z: float, cutoff: int = 20_000) -> float:
    """zeta(z) by direct summation with Euler-Maclaurin tail.

    Three correction terms leave a truncation error below 1e-16 relative
    for z >= 2 at this cutoff.  Where 2^-z underflows, every term past
    k = 1 is 0 and the sum is 1.0; the tail would take inf * 0 there.
    """
    if 2.0 ** -z == 0.0:
        return 1.0
    head = math.fsum(k ** -z for k in range(cutoff, 0, -1))
    # head includes k = cutoff, so the boundary term enters with minus
    m = float(cutoff)
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

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "N": self.N,
            "partial_sum": self.partial_sum,
            "zeta_ratio": self.zeta_ratio,
            "deviation": self.deviation,
            "tail_scale": self.tail_scale,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "rows": [list(row) for row in self.rows],
            "fits": {conv: dict(fit) for conv, fit in self.fits.items()},
        }


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

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "e2_estimate": self.e2_estimate,
            "e2_stderr": self.e2_stderr,
            "e2_systematic": self.e2_systematic,
            "ratio_estimate": self.ratio_estimate,
            "ratio_stderr": self.ratio_stderr,
            "difference": self.difference,
            "combined_stderr": self.combined_stderr,
            "z_score": self.z_score,
            "implied_d_minus_b": dict(self.implied_d_minus_b),
            "log2": self.log2,
            "birkhoff": self.birkhoff.to_json_dict(),
            "slope": self.slope.to_json_dict(),
        }


def conjecture_check(bits: int = 256, trajectory_samples: int = 10_000,
                     N_max: int = 1_000_000, pair_samples: int = 1_000_000,
                     seed: int = DEFAULT_SEED, threads: int = 1,
                     birkhoff: Optional[BirkhoffReport] = None,
                     slope: Optional[SlopeReport] = None) -> ConjectureReport:
    """Test D - B = log 2 through its consequence B + D = 1.26071...

    The two estimators share nothing: one averages dyadic valuations
    along long trajectories, the other differences ensemble means across
    a factor-16 ladder.  A precomputed ``birkhoff`` or ``slope`` report
    reuses an expensive run; its size arguments then go unused.
    """
    table = m_table()
    target = table.mean_costs["rho"]
    if birkhoff is None:
        birkhoff = birkhoff_estimates(bits, trajectory_samples,
                                      derive_seed(seed, "conjecture", 0),
                                      threads)
    if slope is None:
        slope = slope_estimate(N_max, pair_samples,
                               derive_seed(seed, "conjecture", 1), threads)
    e2 = birkhoff.e2_estimate
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
