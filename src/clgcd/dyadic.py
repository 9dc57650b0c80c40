"""Exact arithmetic substrate: 2-adic valuations and norms, the dyadic gcd
weight, and 2x2 integer matrices acting as linear fractional transformations.

Rationals are carried by ``fractions.Fraction`` (lowest terms, positive
denominator, exact arithmetic); every argument is read by
``errors.require_rational`` or ``require_int``.  All is pure and immutable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleError, require_int, require_rational

#: Valuation assigned to 0; compares greater than every finite valuation.
INF_VALUATION = math.inf


def dyadic_valuation(n: int):
    """Exponent of the largest power of two dividing ``n``.

    Returns ``INF_VALUATION`` for ``n == 0``.  Negative inputs are allowed,
    the valuation ignores sign.
    """
    try:    # no check for a positive int; on a positive NumPy integer
        if n > 0:       # n - 1 cannot overflow, as -n can, and bit_length fails
            return (n ^ (n - 1)).bit_length() - 1
    except (AttributeError, TypeError):
        pass
    n = require_int("n", n)
    return dyadic_valuation(abs(n)) if n else INF_VALUATION


def dyadic_norm(r) -> int | None:
    """Exponent e of the 2-adic norm |a/b|_2 = 2**e, e = v(b) - v(a), of a
    rational or integer; ``None`` for 0, whose norm is 0.

    Well defined on unreduced representations since common factors cancel in
    the exponent difference.
    """
    r = require_rational("r", r)
    if r == 0:
        return None
    return dyadic_valuation(r.denominator) - dyadic_valuation(r.numerator)


def g2(y) -> Fraction:
    """Dyadic gcd weight min(1, |y|^-2) where |.| is the 2-adic norm.

    ``g2(0) == 1`` by the same convention (|0| = 0, so the minimum is 1).
    """
    e = dyadic_norm(require_rational("y", y))
    if e is None or e <= 0:
        return Fraction(1)
    return Fraction(1, 1 << (2 * e))


@dataclass(frozen=True)
class IntMatrix2:
    """2x2 integer matrix, used as a linear fractional transformation."""

    m00: int
    m01: int
    m10: int
    m11: int

    def det(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10


def _lft_denominator(m: IntMatrix2, x) -> tuple[Fraction, int]:
    x = require_rational("x", x)
    den = m.m10 * x.numerator + m.m11 * x.denominator
    if den == 0:
        raise PoleError(f"pole of {m} at {x}")
    return x, den


def lft_apply(m: IntMatrix2, x) -> Fraction:
    """Evaluate the transformation (m00*x + m01)/(m10*x + m11) exactly."""
    x, den = _lft_denominator(m, x)
    return Fraction(m.m00 * x.numerator + m.m01 * x.denominator, den)


def lft_derivative_at(m: IntMatrix2, x) -> Fraction:
    """Signed derivative det(m)/(m10*x + m11)^2 of the transformation at x."""
    x, den = _lft_denominator(m, x)
    # the x-denominator squared rescales to the derivative in x itself
    return Fraction(m.det() * x.denominator * x.denominator, den * den)
