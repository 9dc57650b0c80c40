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

import numpy as np

from .constants import LN2
from .dyadic import (
    IntMatrix2,
    dyadic_norm,
    dyadic_valuation,
    g2,
    lft_apply,
    lft_derivative_at,
)
from .errors import ConsistencyError, DomainError, require_int

GREEDY = "greedy"
CANONICAL = "canonical"

# fill immutable instances (Trace, Fraction) without running their __init__
_new = object.__new__
_setattr = object.__setattr__


def _check_pair(p, q, allow_equal=False) -> tuple[int, int]:
    p, q = require_int("p", p), require_int("q", q)
    if p <= 0 or q <= 0 or (p > q if allow_equal else p >= q):
        rel = "p <= q" if allow_equal else "p < q"
        raise DomainError(f"need 0 < {rel}, got ({p}, {q})")
    return p, q


def cl_step(p: int, q: int):
    """One pseudo-division of q by p: returns (a, r, (r, 2^a p)).

    a is maximal with 2^a p <= q, and r = q - 2^a p satisfies 0 <= r < 2^a p.
    """
    p, q = _check_pair(p, q, allow_equal=True)
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

    def table_rows(self) -> list[StepRecord]:
        """All rows of the run table, input row first (matches the JSON form)."""
        return [_row(0, None, self.q, self.p), *self.records]

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
    part equals the odd part of gcd(p, q).  The digits' continuant pair
    (P, Q), read by ``cf_eval`` and ``continuants``, is (p, q) / gcd(p, q)
    times g = gcd(P, Q).  g divides the continuant matrix's determinant
    +-2^S, so it is a power of two, and stripping the common power of two
    from (P, Q) gives p/q in lowest terms with no further gcd.

    The trace is built by filling its ``__dict__`` in one assignment rather
    than through the frozen dataclass ``__init__``; it equals, hashes,
    pickles and prints as ``Trace(p, q, convention, exponents, terminal)``.
    """
    if p.__class__ is not int or q.__class__ is not int or not 0 < p < q:
        p, q = _check_pair(p, q)
    if convention not in (GREEDY, CANONICAL):
        raise DomainError(f"unknown convention {convention!r}")
    exps, terminal_m = _exponent_run(p, q, convention == CANONICAL)
    trace = _new(Trace)
    _setattr(trace, "__dict__", {"p": p, "q": q, "convention": convention,
                                 "exponents": tuple(exps),
                                 "terminal": (0, terminal_m)})
    return trace


def _exponent_run(p: int, q: int, canonical: bool = True):
    """The step kernel: (exponent list, terminal modulus) of one run.

    ``cl_run`` wraps it; the bulk experiments call it directly.  When the
    canonical flag is set, the zero-remainder step with maximal shift a is
    taken with shift a-1 instead, which forces one more step with shift 0:
    the run ends on the digits (a-1, 0) and the terminal modulus 2^(a-1) u.
    """
    exps = []
    append = exps.append
    u, w = p, q
    while True:
        a = (w // u).bit_length() - 1
        shifted = u << a
        r = w - shifted
        if r == 0:
            if canonical and a >= 1:
                exps += (a - 1, 0)
                return exps, shifted >> 1
            append(a)
            return exps, shifted
        append(a)
        u, w = r, shifted


# The int64 lockstep serves every pair below 2^62, and the leading-word
# kernel decides digits on words of 62 bits.
_WORD_BITS = 62
_BATCH_LIMIT = 1 << _WORD_BITS
_WORD_MASK = _BATCH_LIMIT - 1
# a leading-word batch stops before an entry of its matrix could pass 2^61
_MATRIX_BITS = 61

_bit_length = np.frompyfunc(int.bit_length, 1, 1)


# the biased exponent field of a float64 read as int64: v >> 52 less this
_EXP_BIAS = 1023


def _float_exponent(x: np.ndarray) -> np.ndarray:
    """The unbiased exponent of every entry of a positive float64 array."""
    e = x.view(np.int64) >> 52
    e -= _EXP_BIAS
    return e


def _bitlen(x: np.ndarray) -> np.ndarray:
    """int.bit_length of every entry of a positive int64 or object array."""
    if x.dtype == object:           # a float would overflow above 2^1024
        return _bit_length(x)
    b = _float_exponent(x.astype(np.float64)) + 1
    # above 2^53 the conversion can round up to the next power of two
    b -= (x >> (b - 1)) == 0
    return b


def _v2(x: np.ndarray) -> np.ndarray:
    """2-adic valuation of every entry of a positive int64 or object array.

    On int64, x & -x is a power of two below 2^63, so its float64 is
    exact and the valuation is that float's exponent.
    """
    if x.dtype == object:
        return _bitlen(x & -x) - 1
    return _float_exponent((x & -x).astype(np.float64))


def _digit(u: np.ndarray, w: np.ndarray):
    """a = floor(log2(w / u)) and u << a, for int64 arrays 0 < u <= w <= 2^62.

    a is read off the exponent of the float quotient fl(fl(w) / fl(u)).
    Rounding to nearest is monotone and exact on powers of two, so from
    2^a u <= w < 2^(a+1) u it follows that 2^a fl(u) <= fl(w) <=
    2^(a+1) fl(u) and 2^a <= fl(w) / fl(u) <= 2^(a+1): the exponent is a
    or a + 1, never below.  One exact comparison, u << a > w, settles it.
    That shift cannot overflow: u 2^(a+1) <= 2w <= 2^63, with equality
    only when w = 2^a u = 2^62, and there the quotient is exact.
    """
    ratio = w.astype(np.float64)
    ratio /= u.astype(np.float64)
    a = _float_exponent(ratio)
    shifted = u << a
    over = shifted > w
    if over.any():
        a -= over
        shifted = u << a
    return a, shifted


def _lockstep_passes(p, q):
    """The greedy ``_exponent_run`` on every pair at once, in int64.

    All live pairs take one greedy step per pass and finished pairs drop
    out.  Returns the canonical K, S and terminal modulus of every pair
    and the passes, one (indices of the live pairs, their greedy digits)
    each: a pair that finishes on a digit a >= 1 is relabelled (..., a) ->
    (..., a - 1, 0), one more step, one shift less and half the modulus;
    p = q ends on a = 0 and keeps it.  While no pair has finished, nothing
    is compacted or scattered: the live arrays and S run on in place.
    """
    k, s, terminal = (np.zeros(len(p), np.int64) for _ in range(3))
    passes = []
    live = np.arange(len(p))
    sl = np.zeros(len(p), np.int64)     # S of the live pairs
    u, w = p, q
    while live.size:
        a, shifted = _digit(u, w)
        r = w - shifted
        passes.append((live, a))
        sl += a
        done = r == 0
        if done.any():
            index = live[done]
            end = np.minimum(a[done], 1)    # 1 where the relabel applies
            k[index] = len(passes) + end
            s[index] = sl[done] - end
            terminal[index] = shifted[done] >> end
            keep = ~done
            live, sl, r, shifted = live[keep], sl[keep], r[keep], shifted[keep]
        u, w = r, shifted
    return k, s, terminal, passes


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
        a, lo = _digit(nl, dl)
        hi = nh << a
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


# entries of at most 2^61 in absolute value keep the int64 determinant exact
_DET_ENTRY_MAX = 1 << 61
_HALF_MASK = (1 << 31) - 1


def _det_is_power_of_two(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """|m00 m11 - m01 m10| == 2^s for every column of the int64 rows
    m = (m00, m01, m10, m11), decided exactly.

    Each entry splits as h 2^31 + l with 0 <= l < 2^31, and the partial
    products sum, with carries, to det = top 2^62 + low, 0 <= low < 2^62.
    Then det = 2^s is top = 0, low = 2^s, and det = -2^s is top = -1,
    low = 2^62 - 2^s.  No sum overflows while every |entry| <= 2^61, and
    s < 62 keeps 2^s below the word; ``_MATRIX_BITS`` keeps every batch
    inside both bounds.  Past them the determinants are taken on Python
    ints.
    """
    if (m.min() < -_DET_ENTRY_MAX or m.max() > _DET_ENTRY_MAX
            or s.max() >= _WORD_BITS):
        m = m.astype(object)
        return np.abs(m[0] * m[3] - m[1] * m[2]) == 1 << s.astype(object)
    h, l = m >> 31, m & _HALF_MASK
    mid = h[0] * l[3] + l[0] * h[3] - h[1] * l[2] - l[1] * h[2]
    low = l[0] * l[3] - l[1] * l[2] + ((mid & _HALF_MASK) << 31)
    top = h[0] * h[3] - h[1] * h[2] + (mid >> 31) + (low >> _WORD_BITS)
    low &= _WORD_MASK
    power = 1 << s
    return (((top == 0) & (low == power))
            | ((top == -1) & (low == _BATCH_LIMIT - power)))


# The multi-limb stage holds 2^62 <= w < 2^(62 _LIMB_ROWS) as int64 rows of
# 62-bit limbs, least significant row first, one column per lane.  Eight
# rows (496 bits) is where the stage stops beating the leading-word rounds:
# per 2048-orbit group it was ahead by 9-12% at 400 and 448 bits and level
# with them from 640 to 1024 bits, and fell behind there at 11 rows or more.
_LIMB_ROWS = 8
_LIMB_SCALE = 2.0 ** (_WORD_BITS * np.arange(_LIMB_ROWS))
_SIGN_WEIGHTS = 1 << np.arange(_LIMB_ROWS)
# the float quotient of two limb columns is within 2^-48 of w/u; biased up
# by more than that, its exponent is the digit or one above it
_DIGIT_BIAS = 1.0 + 2.0 ** -45
# passes between strips of the common power of two
_STRIP_EVERY = 8


def _limbs(x: np.ndarray) -> np.ndarray:
    """The (_LIMB_ROWS, n) int64 limbs of an object array of ints."""
    words = -(-_WORD_BITS * _LIMB_ROWS // 64)
    raw = b"".join(v.to_bytes(8 * words, "little") for v in x.tolist())
    w64 = np.frombuffer(raw, np.uint64).reshape(-1, words).T
    out = np.empty((_LIMB_ROWS, len(x)), np.int64)
    for i in range(_LIMB_ROWS):
        j, o = divmod(_WORD_BITS * i, 64)
        v = w64[j] >> np.uint64(o)
        if o > 64 - _WORD_BITS and j + 1 < words:
            v |= w64[j + 1] << np.uint64(64 - o)
        out[i] = (v & np.uint64(_WORD_MASK)).view(np.int64)
    return out


def _from_limbs(column: np.ndarray) -> int:
    return sum(int(v) << (_WORD_BITS * i)
               for i, v in enumerate(column.tolist()))


def _limb_float(x: np.ndarray) -> np.ndarray:
    """Every column of limbs as a float, to a relative error below
    _LIMB_ROWS 2^-53 <= 2^-50: the terms are nonnegative, so rounding
    every limb costs at most 2^-53 of the sum, and each of the
    _LIMB_ROWS - 1 additions at most 2^-53 more."""
    return _LIMB_SCALE[:len(x)] @ x.astype(np.float64)


def _limb_less(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u < w on columns of limbs, exactly: the top differing row decides."""
    return (_SIGN_WEIGHTS[:len(u)] @ np.sign(w - u)) > 0


def _limb_shift_right(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x >> v on columns of limbs, for 0 <= v < 62."""
    out = x >> v
    out[:-1] |= (x[1:] & ((1 << v) - 1)) << (_WORD_BITS - v)
    return out


def _limb_step(u: np.ndarray, w: np.ndarray, a: np.ndarray):
    """u << a and w - (u << a) on columns of limbs, for 0 <= a < 62, with
    the bits shifted past the top row: (shifted, r, hi).  r carries its
    borrows down to the top row, which is negative when 2^a u > w."""
    shifted = (u & (_WORD_MASK >> a)) << a
    hi = u >> (_WORD_BITS - a)
    shifted[1:] |= hi[:-1]
    r = w - shifted
    while len(r) > 1:
        borrow = r[:-1] >> _WORD_BITS
        r[:-1] &= _WORD_MASK
        r[1:] += borrow
        if len(r) < 3 or r[1:-1].min() >= 0:
            break
    return shifted, r, hi[-1]


def _limb_passes(index, u, w, p, q):
    """The greedy ``_exponent_run`` on columns of limbs, one step per pass.

    ``u`` and ``w`` are (_LIMB_ROWS, n) limbs of the lanes ``index`` of
    the columns p and q.  The digit is the exponent of the biased float
    quotient of the two columns, a or a + 1; a borrow out of the top row
    or a bit shifted past it takes it down by one.  Every _STRIP_EVERY
    passes the common power of two goes into the lane's scale and empty
    top rows are dropped.  A lane leaves at the first pass start where
    its remainder is 0 (ended canonically, u = 0) or its digit is 62 or
    more, and at the first strip where its w is below 2^62 or its low
    limbs are both 0, so up to _STRIP_EVERY - 1 passes after it got
    there; its exact (u, w) is returned: K, S, scale, u and w.  From the
    second pass on, 0 < u < w is checked, by the float quotient where it
    is clear and on the limbs where it is not; a wrong digit raises
    ConsistencyError.
    """
    n = u.shape[1]
    k, s, scale = (np.zeros(n, np.int64) for _ in range(3))
    u_end, w_end = np.zeros_like(u), np.zeros_like(w)
    live = np.arange(n)
    sl = np.zeros(n, np.int64)
    a = sl
    count = 0

    def broken(j):
        i = index[live[j]]
        return ConsistencyError("multi-limb step broke the run of "
                                f"{(int(p[i]), int(q[i]))}")

    while live.size:
        fu, fw = _limb_float(u), _limb_float(w)
        if fu.min() == 0:
            # the last remainder was 0: relabel (..., a) -> (..., a - 1, 0)
            end = fu == 0
            e = np.minimum(a[end], 1)
            j = live[end]
            k[j] = count + e
            s[j] = sl[end] - e
            w_end[:len(w), j] = _limb_shift_right(w[:, end], e)
            keep = ~end
            live, sl, u, w, fu, fw = (live[keep], sl[keep], u[:, keep],
                                      w[:, keep], fu[keep], fw[keep])
            if not live.size:
                break
        ratio = fw / fu
        if count and ratio.min() <= _DIGIT_BIAS:
            near = np.flatnonzero(ratio <= _DIGIT_BIAS)
            bad = ~_limb_less(u[:, near], w[:, near])
            if bad.any():
                raise broken(near[np.argmax(bad)])
        ratio *= _DIGIT_BIAS
        a = _float_exponent(ratio)
        leave = a >= _WORD_BITS if a.max() >= _WORD_BITS else None
        if count % _STRIP_EVERY == 0:
            z = u[0] | w[0]
            zero = z == 0
            v = _v2(z | zero)
            u, w = _limb_shift_right(u, v), _limb_shift_right(w, v)
            scale[live] += v
            rows = len(w)
            while rows > 1 and not w[rows - 1].any():
                rows -= 1
            u, w = u[:rows], w[:rows]
            out = zero | ~w[1:].any(axis=0)
            leave = out if leave is None else leave | out
        if leave is not None and leave.any():
            j = live[leave]
            k[j] = count
            s[j] = sl[leave]
            u_end[:len(u), j] = u[:, leave]
            w_end[:len(w), j] = w[:, leave]
            keep = ~leave
            live, sl, u, w, a = (live[keep], sl[keep], u[:, keep],
                                 w[:, keep], a[keep])
            if not live.size:
                break
        shifted, r, hi = _limb_step(u, w, a)
        if r[-1].min() < 0 or hi.any():
            a -= (r[-1] < 0) | (hi != 0)
            shifted, r, hi = _limb_step(u, w, a)
            if r[-1].min() < 0 or hi.any():
                raise broken(np.argmax((r[-1] < 0) | (hi != 0)))
        sl += a
        count += 1
        u, w = r, shifted
    return k, s, scale, u_end, w_end


def _leading_word_run(p, q):
    """``_exponent_run`` (canonical) on the p and q columns of pairs of any
    size: K, S, terminal.

    Three stages, each exact.  Every (u, w) first loses its common power
    of two: the step is scale-invariant, so the digits do not change and
    the power joins v(terminal).
    1. Lehmer's leading-word rounds, on object arrays of the big integers,
       while w >= 2^(62 _LIMB_ROWS): each pair hands its leading 62-bit
       words to ``_certified_batch`` and applies its matrix once.  Every
       applied batch is checked, |det M| = 2^(shift sum) on the int64
       matrix (``_det_is_power_of_two``) and 0 < u' < w' on the big
       integers, or ConsistencyError is raised.  A pair with no certified
       digit finishes in ``_exponent_run``.
    2. ``_limb_passes`` below 2^(62 _LIMB_ROWS): one exact step per pass
       on int64 limbs, each digit checked by 0 < u < w on the limbs.  A
       lane whose remainder vanishes there ends canonically in place; a
       digit of 62 or more or a common power of two of 62 or more sends
       the lane to ``_exponent_run`` from its exact (u, w).
    3. ``_lockstep_passes`` below 2^62, all remaining lanes at once.
    The kernel holds no step rule of its own: the digits come from
    ``_certified_batch``, ``_limb_step``, ``_lockstep_passes`` or
    ``_exponent_run``.  The power-of-two terminal of every orbit is
    checked by the caller.  Returns K and S as int64 arrays and the
    terminal as an object array.  ``_orbit_runs`` sends groups too small
    to pay for the passes to ``_exponent_run`` instead.
    """
    n = len(p)
    k = np.zeros(n, np.int64)
    s = np.zeros(n, np.int64)
    scale = np.zeros(n, np.int64)
    terminal = np.zeros(n, object)
    limbs, scalar = [], []
    limit = _WORD_BITS * _LIMB_ROWS
    live = np.arange(n)
    u, w = np.array(p, object), np.array(q, object)
    while live.size:
        z = u | w
        low = (z & _WORD_MASK).astype(np.int64)
        # the common power of two, read off the low word unless it is 0
        z = _v2(low) if low.all() else _v2(z).astype(np.int64)
        u, w = u >> z, w >> z
        scale[live] += z
        wbits = _bitlen(w).astype(np.int64)
        small = wbits <= limit
        if small.any():
            limbs.append((live[small], u[small], w[small]))
            big = ~small
            live, u, w, wbits = live[big], u[big], w[big], wbits[big]
            if not live.size:
                break
        sh = wbits - _WORD_BITS
        batch = _certified_batch((u >> sh).astype(np.int64),
                                 (w >> sh).astype(np.int64))
        shifts, count = batch[4], batch[5]
        m00, m01, m10, m11 = batch[:4].astype(object)
        u, w = m00 * u + m01 * w, m10 * u + m11 * w
        bad = (~_det_is_power_of_two(batch[:4], shifts)
               | (u <= 0) | (u >= w)) & (count > 0)
        if bad.any():
            i = live[np.argmax(bad)]
            raise ConsistencyError("leading-word batch broke the run of "
                                   f"{(int(p[i]), int(q[i]))}")
        k[live] += count
        s[live] += shifts
        stuck = count == 0
        if stuck.any():
            scalar += zip(live[stuck].tolist(), u[stuck].tolist(),
                          w[stuck].tolist())
            live, u, w = live[~stuck], u[~stuck], w[~stuck]
    if limbs:
        index, u, w = (np.concatenate(x) for x in zip(*limbs))
        ks, ss, zs, u, w = _limb_passes(index, _limbs(u), _limbs(w), p, q)
        k[index] += ks
        s[index] += ss
        scale[index] += zs
        ended = ~u.any(axis=0)
        small = ~ended & ~w[1:].any(axis=0)
        for j in np.flatnonzero(~small).tolist():
            i = index[j]
            if ended[j]:
                terminal[i] = _from_limbs(w[:, j]) << int(scale[i])
            else:
                scalar.append((i, _from_limbs(u[:, j]), _from_limbs(w[:, j])))
        live = index[small]
        ks, ss, ts, _ = _lockstep_passes(u[0, small], w[0, small])
        k[live] += ks
        s[live] += ss
        terminal[live] = ts.astype(object) << scale[live].astype(object)
    for i, u, w in scalar:
        exps, end = _exponent_run(u, w)
        k[i] += len(exps)
        s[i] += sum(exps)
        terminal[i] = end << int(scale[i])
    return k, s, terminal


# Below this many pairs one ``_exponent_run`` per pair beats the vector
# stages, whose cost per pass hardly depends on the lane count.  Measured
# break-even (one 2-core box): 64-128 pairs at 64 bits, 128-256 at 256
# bits and 64-128 at 1024 bits; one pair took 0.02, 0.11 and 0.32 ms alone
# against 1.7, 11.8 and 31.8 ms in the vector stages.
_VECTOR_MIN = 128


def _orbit_runs(p, q):
    """K, S, terminal of ``_exponent_run`` (canonical) on the p and q
    columns, as ``_leading_word_run`` gives them: pair by pair below
    _VECTOR_MIN pairs, in ``_leading_word_run`` from there on."""
    if len(p) >= _VECTOR_MIN:
        return _leading_word_run(p, q)
    runs = [_exponent_run(u, w) for u, w in zip(p.tolist(), q.tolist())]
    k = np.array([len(exps) for exps, _ in runs], np.int64)
    s = np.array([sum(exps) for exps, _ in runs], np.int64)
    terminal = np.empty(len(runs), object)
    terminal[:] = [end for _, end in runs]
    return k, s, terminal


def cf_eval(exponents) -> Fraction:
    """Exact value of the expansion: h_{a_1}( ... h_{a_K}(0) ... ).

    Evaluated through the integer continuant recurrence rather than nested
    Fraction division; the result is identical (a property test compares the
    two) and this form is what bulk verification uses.  The loop checks
    each digit as it reads it.  The recurrence ends on the continuant pair
    (P, Q), the second column of M_{a_1} ... M_{a_K}.  gcd(P, Q) divides
    that matrix's determinant, +-2^S, so it is the common power of two of
    P and Q; stripping it leaves the pair in lowest terms, and the Fraction
    is filled in directly, without a second gcd.
    """
    digits = _digit_tuple(exponents)
    x, y = 0, 1
    for a in reversed(digits):
        if a.__class__ is not int or a < 0:
            return cf_eval(_int_digits(digits))
        x, y = y, (x + y) << a
    z = x | y
    v = (z & -z).bit_length() - 1
    value = _new(Fraction)
    value._numerator = x >> v
    value._denominator = y >> v
    return value


def _digit_tuple(exponents) -> tuple:
    """The digits as a nonempty tuple, not copied if they already are one."""
    digits = exponents if exponents.__class__ is tuple else tuple(exponents)
    if not digits:
        raise DomainError("empty exponent sequence")
    return digits


def _int_digits(digits: tuple) -> tuple:
    """The digits as ints >= 0 by ``require_int``, named exponents[i]."""
    return tuple(require_int(f"exponents[{i}]", a, 0)
                 for i, a in enumerate(digits))


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
    """The product of the step matrices [[0,1],[2^a,2^a]], each the map
    x -> 2^-a / (1 + x), the inverse branch of the shift-and-subtract map.

    A digit that is not an int >= 0 raises DomainError.
    """
    digits = _digit_tuple(exponents)
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in digits:
        if a.__class__ is not int or a < 0:
            return continuants(_int_digits(digits))
        # right-multiply by [[0,1],[2^a,2^a]]
        s0, s1 = m01 << a, m11 << a
        m00, m01 = s0, m00 + s0
        m10, m11 = s1, m10 + s1
    P, Q = m01, m11
    # gcd(P, Q) divides the determinant +-2^S: the common power of two
    z = P | Q
    g = z & -z
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
    exponents = _digit_tuple(exponents)
    if not all(a.__class__ is int for a in exponents):
        exponents = _int_digits(exponents)
    cp = continuants(exponents)
    S = sum(exponents)
    m = cp.matrix

    det = m.det()
    if abs(det) != (1 << S):
        raise ConsistencyError(f"|det| != 2^S for {exponents}")

    hprime = lft_derivative_at(m, 0)
    habs = abs(hprime)
    hp2_exp = dyadic_norm(hprime)     # |h'(0)|_2 = 2^hp2_exp
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
