"""The continued-logarithm gcd algorithm and its cost algebra.

A pseudo-division step replaces the pair (p, q), 0 < p <= q, by (r, 2^a p)
where a is the largest shift with 2^a p <= q and r = q - 2^a p.  Iterating
until the remainder vanishes computes the odd part of gcd(p, q) while only
using shifts, subtractions and comparisons.

Two termination conventions are supported:

``greedy``
    every step uses the maximal shift; the run ends on the first zero
    remainder, whatever the final shift was.

``canonical``
    identical except the final shift is forced to 0.  Operationally: when the
    maximal shift a would produce remainder zero, the step is taken with
    shift a-1 instead (its remainder 2^(a-1) p is then equal to the new
    modulus, and one more step with shift 0 finishes).  Equivalently the
    greedy expansion (..., a) is rewritten (..., a-1, 0).  The greedy run
    always ends on a shift a >= 1 (its last step divides a modulus w by a
    strictly smaller u with w = 2^a u), so the rewrite fires on every
    canonical run.  This is the convention under which every digit string
    ends in 0, and the default for all cost reporting.

The expansion digits a_1 .. a_K reconstruct p/q through the inverse branches
h_a(x) = 2^-a / (1 + x) evaluated innermost-first at 0, or equivalently
through products of the step matrices [[0,1],[2^a,2^a]].  ``cost_vector``
computes every cost of a run from its digit string alone, twice: directly
from the continuant pair, and through exact identities relating |h'(0)|, its
dyadic norm, the determinant and the dyadic gcd weight.  Both routes must
agree bit for bit or a ConsistencyError is raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .constants import LN2
from .dyadic import (
    IntMatrix2,
    dyadic_valuation,
    g2,
    lft_apply,
    lft_derivative_at,
)
from .errors import ConsistencyError, DomainError

GREEDY = "greedy"
CANONICAL = "canonical"


def _check_pair(p, q, allow_equal=False):
    if not (isinstance(p, int) and isinstance(q, int)):
        raise DomainError(f"pair must be integers, got ({p!r}, {q!r})")
    if p <= 0 or q <= 0 or (p > q if allow_equal else p >= q):
        rel = "p <= q" if allow_equal else "p < q"
        raise DomainError(f"need 0 < {rel}, got ({p}, {q})")


def cl_step(p: int, q: int):
    """One pseudo-division of q by p: returns (a, r, (r, 2^a p)).

    a is maximal with 2^a p <= q, and r = q - 2^a p satisfies 0 <= r < 2^a p.
    """
    _check_pair(p, q, allow_equal=True)
    a = (q // p).bit_length() - 1
    shifted = p << a
    r = q - shifted
    return a, r, (r, shifted)


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One row of a run table.

    ``index`` 0 is the input row (exponent None, shifted = q, remainder = p);
    rows 1..K are the division steps.  ``val_*`` are 2-adic valuations, with
    ``math.inf`` for the valuation of a zero remainder.  ``val_gcd`` is the
    valuation of gcd(shifted, remainder), the running power-of-two content.
    """

    index: int
    exponent: int | None
    shifted: int
    remainder: int
    val_shifted: float
    val_remainder: float
    val_gcd: float


@dataclass(frozen=True)
class Trace:
    """Complete record of one continued-logarithm run.

    Only the input, the convention, the digit string and the terminal pair
    are stored; every other view is derived on read.  ``records`` replays
    the run from (p, q) and the digits (shifted = u << a, r = w - shifted)
    the first time it is read and is cached from then on.
    """

    p: int
    q: int
    convention: str
    exponents: tuple[int, ...]
    terminal: tuple[int, int]

    @property
    def steps(self) -> int:
        """Number of divisions, K."""
        return len(self.exponents)

    @property
    def shifts(self) -> int:
        """Total shift count, S."""
        return sum(self.exponents)

    @property
    def odd_gcd(self) -> int:
        m = self.terminal[1]
        return m >> dyadic_valuation(m)

    @property
    def rewritten(self) -> bool:
        """True when the canonical final rewrite fired: on every canonical run."""
        return self.convention == CANONICAL

    @cached_property
    def records(self) -> tuple[StepRecord, ...]:
        rows = []
        u, w = self.p, self.q
        for i, a in enumerate(self.exponents, 1):
            shifted = u << a
            r = w - shifted
            rows.append(_row(i, a, shifted, r))
            u, w = r, shifted
        return tuple(rows)

    def input_row(self) -> StepRecord:
        return _row(0, None, self.q, self.p)

    def table_rows(self) -> list[StepRecord]:
        """All rows of the run table, input row first (matches the JSON form)."""
        return [self.input_row(), *self.records]

    def to_json_dict(self) -> dict:
        def v(x):
            return None if x == math.inf else x

        return {
            "input": [self.p, self.q],
            "convention": self.convention,
            "K": self.steps,
            "S": self.shifts,
            "terminal": list(self.terminal),
            "odd_gcd": self.odd_gcd,
            "rows": [
                {
                    "i": r.index,
                    "a_i": r.exponent,
                    "shifted": r.shifted,
                    "remainder": r.remainder,
                    "val_shifted": v(r.val_shifted),
                    "val_remainder": v(r.val_remainder),
                    "val_gcd": v(r.val_gcd),
                }
                for r in self.table_rows()
            ],
        }


def _row(i, a, shifted, r) -> StepRecord:
    # shifted > 0, so min() of the two valuations is v(gcd(shifted, r))
    vs, vr = dyadic_valuation(shifted), dyadic_valuation(r)
    return StepRecord(i, a, shifted, r, vs, vr, min(vs, vr))


def cl_run(p: int, q: int, convention: str = CANONICAL) -> Trace:
    """Run the algorithm on 0 < p < q and return the full trace.

    Inputs need not be coprime; the terminal pair is (0, 2^a_K q_K) whose odd
    part equals the odd part of gcd(p, q).
    """
    _check_pair(p, q)
    if convention not in (GREEDY, CANONICAL):
        raise DomainError(f"unknown convention {convention!r}")
    exps, terminal_m = _exponent_run(p, q, convention == CANONICAL)
    return Trace(p, q, convention, tuple(exps), (0, terminal_m))


def _exponent_run(p: int, q: int, canonical: bool = True):
    """The step kernel: (exponent list, terminal modulus) of one run.

    ``cl_run`` wraps it; the bulk experiments call it directly.  When the
    canonical flag is set, the zero-remainder step with maximal shift a is
    taken with shift a-1 instead, which forces one more step with shift 0.
    """
    exps = []
    append = exps.append
    u, w = p, q
    while True:
        a = (w // u).bit_length() - 1
        r = w - (u << a)
        if canonical and r == 0 and a >= 1:
            a -= 1
            r = u << a
        append(a)
        if r == 0:
            return exps, u << a
        u, w = r, u << a


# The int64 lockstep serves every pair below 2^62, and the leading-word
# kernel decides digits on words of 62 bits.
_WORD_BITS = 62
_BATCH_LIMIT = 1 << _WORD_BITS
# a leading-word batch stops before an entry of its matrix could pass 2^61
_MATRIX_BITS = 61

_bit_length = np.frompyfunc(int.bit_length, 1, 1)


def _bitlen(x: np.ndarray) -> np.ndarray:
    """int.bit_length of every entry of a positive int64 array."""
    b = np.frexp(x.astype(np.float64))[1].astype(np.int64)
    # above 2^53 the conversion can round up to the next power of two
    b -= (x >> (b - 1)) == 0
    return b


def _v2(x: np.ndarray) -> np.ndarray:
    """2-adic valuation of every entry of a positive int64 array."""
    return _bitlen(x & -x) - 1


def _lockstep_run(p: np.ndarray, q: np.ndarray):
    """``_exponent_run`` (canonical) on every pair at once, in int64.

    Returns K, S and the terminal modulus per pair, and the digits as
    one (indices of the live pairs, their digits) entry per pass.
    """
    n = len(p)
    k = np.zeros(n, np.int64)
    s = np.zeros(n, np.int64)
    terminal = np.zeros(n, np.int64)
    steps = list(_lockstep_passes(p, q, k, s, terminal))
    return k, s, terminal, steps


def _lockstep_passes(p, q, k, s, terminal):
    """The passes of ``_lockstep_run``: all live pairs take one step per
    pass and finished pairs drop out.  Yields (indices of the live pairs,
    their digits) per pass and fills in K, S and the terminal modulus.
    """
    passes = 0
    live = np.arange(len(p))
    u, w = p, q
    while live.size:
        a = _bitlen(w // u) - 1
        # canonical: a zero remainder under a >= 1 is taken with a - 1
        a -= (w == u << a) & (a >= 1)
        shifted = u << a
        r = w - shifted
        yield live, a
        passes += 1
        s[live] += a
        done = r == 0
        k[live[done]] = passes
        terminal[live[done]] = shifted[done]
        keep = ~done
        live, u, w = live[keep], r[keep], shifted[keep]


def _certified_batch(uh: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """Digits of u/w decided on its leading words uh = u >> sh, wh = w >> sh.

    x = u/w lies strictly between uh/(wh+1) and (uh+1)/wh.  Both endpoints
    step in int64 lockstep; T_a is decreasing, so they swap every step.  A
    digit a is certified when both endpoints take branch a and the upper
    endpoint's remainder is positive: x then takes branch a with a positive
    remainder (the canonical rewrite cannot fire), and the next lower
    endpoint stays positive.  The forward matrix accumulates as
    M <- [[-2^a, 1], [2^a, 0]] M, whose entries stay below
    2^(sum of (a + 1)); a batch stops before that bound passes
    2^_MATRIX_BITS.  Returns rows m00, m01, m10, m11, shift sum and digit
    count, one column per pair; a pair with uh = 0 certifies nothing.
    """
    n = len(uh)
    out = np.zeros((6, n), np.int64)
    out[0] = out[3] = 1
    live = np.flatnonzero(uh > 0)
    # lower endpoint nl/dl, upper endpoint nh/dh, matrix, shift sum
    nl, dh = uh[live], wh[live]
    dl, nh = dh + 1, nl + 1
    m01 = m10 = sb = np.zeros(live.size, np.int64)
    m00 = m11 = sb + 1
    count = 0
    while live.size:
        a = _bitlen(dl // nl) - 1
        lo, hi = nl << a, nh << a
        rh = dh - hi
        sb2 = sb + a
        # the upper endpoint's branch is at most a; nh <= dh >> a makes it a
        ok = (nh <= dh >> a) & (rh > 0) & (sb2 < _MATRIX_BITS - count)
        if not ok.all():
            stop = ~ok
            index = live[stop]
            out[:5, index] = (m00[stop], m01[stop], m10[stop], m11[stop],
                              sb[stop])
            out[5, index] = count
            (live, a, nl, dl, lo, hi, rh, m00, m01, m10, m11,
             sb2) = (x[ok] for x in (live, a, nl, dl, lo, hi, rh, m00, m01,
                                     m10, m11, sb2))
        s0, s1 = m00 << a, m01 << a
        nl, dl, nh, dh = rh, hi, dl - lo, lo
        m00, m01, m10, m11 = m10 - s0, m11 - s1, s0, s1
        sb = sb2
        count += 1
    return out


def _leading_word_run(pairs):
    """``_exponent_run`` (canonical) on pairs of any size: K, S, terminal.

    Lehmer's leading-word method in rounds, on object arrays of the big
    integers.  Every (u, w) first loses its common power of two: the step
    is scale-invariant, so the digits do not change and the power joins
    v(terminal).  Pairs with w < 2^62 leave for ``_lockstep_passes``,
    which finishes them all at once.  The rest hand their leading 62-bit
    words to ``_certified_batch`` and apply its matrix once to the big
    integers; a pair with no certified digit takes one scalar step
    instead.  Every applied batch is checked exactly, |det M| = 2^(shift
    sum) and 0 < u' < w', or ConsistencyError is raised.  Returns K, S
    and terminal as lists.
    """
    n = len(pairs)
    k = np.zeros(n, np.int64)
    s = np.zeros(n, np.int64)
    scale = np.zeros(n, np.int64)
    terminal = np.zeros(n, object)
    finish = []
    live = np.arange(n)
    u = np.array([p for p, _ in pairs], object)
    w = np.array([q for _, q in pairs], object)
    while live.size:
        z = u | w
        z = _bit_length(z & -z) - 1
        u, w = u >> z, w >> z
        scale[live] += z.astype(np.int64)
        small = w < _BATCH_LIMIT
        if small.any():
            finish.append((live[small], u[small], w[small]))
            big = ~small
            live, u, w = live[big], u[big], w[big]
            if not live.size:
                break
        sh = _bit_length(w) - _WORD_BITS
        batch = _certified_batch((u >> sh).astype(np.int64),
                                 (w >> sh).astype(np.int64))
        m00, m01, m10, m11 = batch[:4].astype(object)
        shifts, count = batch[4], batch[5]
        u, w = m00 * u + m01 * w, m10 * u + m11 * w
        bad = ((np.abs(m00 * m11 - m01 * m10) != 1 << shifts.astype(object))
               | (u <= 0) | (u >= w)) & (count > 0)
        if bad.any():
            raise ConsistencyError("leading-word batch broke the run of "
                                   f"{pairs[live[np.argmax(bad)]]}")
        k[live] += count
        s[live] += shifts
        stuck = np.flatnonzero(count == 0)
        if stuck.size:
            done = np.zeros(live.size, bool)
            for j in stuck.tolist():
                i, uj, wj = live[j], u[j], w[j]
                a = (wj // uj).bit_length() - 1
                r = wj - (uj << a)
                if r == 0 and a >= 1:
                    a -= 1
                    r = uj << a
                k[i] += 1
                s[i] += a
                if r == 0:
                    terminal[i] = uj << a << int(scale[i])
                    done[j] = True
                else:
                    u[j], w[j] = r, uj << a
            if done.any():
                live, u, w = live[~done], u[~done], w[~done]
    if finish:
        live, u, w = (np.concatenate(x) for x in zip(*finish))
        ks, ss, ts = (np.zeros(live.size, np.int64) for _ in range(3))
        # run the passes for K, S and the terminal; the digits are not kept
        for _ in _lockstep_passes(u.astype(np.int64), w.astype(np.int64),
                                  ks, ss, ts):
            pass
        k[live] += ks
        s[live] += ss
        terminal[live] = ts.astype(object) << scale[live].astype(object)
    return k.tolist(), s.tolist(), terminal.tolist()


def cf_eval(exponents) -> Fraction:
    """Exact value of the expansion: h_{a_1}( ... h_{a_K}(0) ... ).

    Evaluated through the integer continuant recurrence rather than nested
    Fraction division; the result is identical (a property test compares the
    two) and this form is what bulk verification uses.
    """
    exponents = tuple(exponents)
    _check_exponents(exponents)
    x, y = 0, 1
    for a in reversed(exponents):
        x, y = y, (x + y) << a
    return Fraction(x, y)


def _check_exponents(exponents):
    if len(exponents) == 0:
        raise DomainError("empty exponent sequence")
    for a in exponents:
        if not isinstance(a, int) or a < 0:
            raise DomainError(f"exponents must be integers >= 0, got {a!r}")


def is_canonical(exponents) -> bool:
    return len(exponents) > 0 and exponents[-1] == 0


@dataclass(frozen=True)
class ContinuantPair:
    """Continuants of a digit string: (P, Q)^T = M_{a_1} ... M_{a_K} (0, 1)^T.

    P/Q equals cf_eval of the string before reduction; g = gcd(P, Q) is
    always a power of two and R = Q/g is the true (reduced) denominator.
    """

    P: int
    Q: int
    matrix: IntMatrix2
    g: int
    R: int


def continuants(exponents) -> ContinuantPair:
    exponents = tuple(exponents)
    _check_exponents(exponents)
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in exponents:
        # right-multiply by [[0,1],[2^a,2^a]]
        s0, s1 = m01 << a, m11 << a
        m00, m01 = s0, m00 + s0
        m10, m11 = s1, m10 + s1
    P, Q = m01, m11
    g = gcd(P, Q)
    return ContinuantPair(P, Q, IntMatrix2(m00, m01, m10, m11), g, Q // g)


@dataclass(frozen=True)
class CostVector:
    """Every cost of a run, derived exactly from its digit string.

    Integer-exponent costs are stored as integers; the logarithmic views are
    exposed as float properties.  rho and q2 are integer multiples of 2 log 2
    by construction, r = q - rho exactly, and q2 - rho = 2 val(R) log 2 (the
    two coincide exactly when the reduced denominator is odd).
    """

    steps: int        # K
    shifts: int       # S
    Q: int
    R: int
    g_exp: int        # val(gcd(P, Q)); gcd is the pure power of two 2^g_exp
    q_exp: int        # val(Q)

    @property
    def sigma(self) -> float:
        """log of the accumulated determinant 2^S."""
        return self.shifts * LN2

    @property
    def q(self) -> float:
        """log Q^2, growth of the unreduced denominator."""
        return 2.0 * math.log(self.Q)

    @property
    def rho(self) -> float:
        """log g^2, growth of the power-of-two content."""
        return 2.0 * self.g_exp * LN2

    @property
    def r(self) -> float:
        """log R^2, growth of the reduced denominator."""
        return 2.0 * math.log(self.R)

    @property
    def q2(self) -> float:
        """log |Q|_2^-2, the dyadic counterpart of q."""
        return 2.0 * self.q_exp * LN2

    def as_dict(self) -> dict[str, float]:
        return {
            "K": float(self.steps),
            "S": float(self.shifts),
            "sigma": self.sigma,
            "q": self.q,
            "rho": self.rho,
            "r": self.r,
            "q2": self.q2,
        }


def cost_vector(exponents) -> CostVector:
    """Compute the cost vector of a digit string, verifying it two ways.

    Route one reads Q^2, g^2, R^2 and |Q|_2^-2 off the continuant pair.
    Route two evaluates the transformation h = h_{a_1} o ... o h_{a_K}
    generically (derivative at 0, dyadic norm of the derivative, determinant
    2^S, dyadic gcd weight at h(0)) and applies the exact identities

        Q^2       = d(h) / |h'(0)|
        |Q|_2^-2  = d(h) * |h'(0)|_2
        R^2       = 1 / (|h'(0)| * |h'(0)|_2 * g2(h(0)))
        g^2       = d(h) * |h'(0)|_2 * g2(h(0)).

    Any mismatch raises ConsistencyError.
    """
    exponents = tuple(exponents)
    cp = continuants(exponents)
    S = sum(exponents)
    m = cp.matrix

    det = m.det()
    if abs(det) != (1 << S):
        raise ConsistencyError(f"|det| != 2^S for {exponents}")

    hprime = lft_derivative_at(m, 0)
    habs = abs(hprime)
    # |h'(0)|_2 as an exponent of 2
    hp2_exp = dyadic_valuation(hprime.denominator) - dyadic_valuation(hprime.numerator)
    weight = g2(lft_apply(m, 0))

    d = Fraction(1 << S)
    two = Fraction(2)
    q2_direct = Fraction(1 << (2 * dyadic_valuation(cp.Q)))
    checks = (
        (d / habs, Fraction(cp.Q * cp.Q), "Q^2"),
        (d * two ** hp2_exp, q2_direct, "|Q|_2^-2"),
        (1 / (habs * two ** hp2_exp * weight), Fraction(cp.R * cp.R), "R^2"),
        (d * two ** hp2_exp * weight, Fraction(cp.g * cp.g), "g^2"),
    )
    for lhs, rhs, name in checks:
        if lhs != rhs:
            raise ConsistencyError(
                f"cost identity {name} failed for {exponents}: {lhs} != {rhs}"
            )

    return CostVector(
        steps=len(exponents),
        shifts=S,
        Q=cp.Q,
        R=cp.R,
        g_exp=dyadic_valuation(cp.g),
        q_exp=dyadic_valuation(cp.Q),
    )
