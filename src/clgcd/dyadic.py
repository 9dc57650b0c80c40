"""Exact arithmetic substrate: 2-adic valuations and norms, the dyadic gcd
map, and 2x2 integer matrices acting as linear fractional transformations.

Rationals are carried by ``fractions.Fraction``, which already guarantees the
invariants we rely on everywhere (lowest terms, positive denominator, exact
arithmetic).  Everything in this module is pure and immutable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleError, require_int

#: Valuation assigned to 0; compares greater than every finite valuation.
INF_VALUATION = math.inf


def dyadic_valuation(n: int):
    """Exponent of the largest power of two dividing ``n``.

    Returns ``INF_VALUATION`` for ``n == 0``.  Negative inputs are allowed,
    the valuation ignores sign.
    """
    if n == 0:
        return INF_VALUATION
    return ((n & -n).bit_length() - 1)


@dataclass(frozen=True)
class DyadicNorm:
    """The 2-adic absolute value ``2**exponent``, with ``None`` encoding |0| = 0."""

    exponent: int | None

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def value(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        if self.exponent >= 0:
            return Fraction(1 << self.exponent)
        return Fraction(1, 1 << -self.exponent)

    def __mul__(self, other: "DyadicNorm") -> "DyadicNorm":
        if self.exponent is None or other.exponent is None:
            return DyadicNorm(None)
        return DyadicNorm(self.exponent + other.exponent)

    def le_one(self) -> bool:
        return self.exponent is None or self.exponent <= 0

    def __float__(self) -> float:
        return 0.0 if self.exponent is None else 2.0 ** self.exponent


def dyadic_norm(r) -> DyadicNorm:
    """2-adic norm |a/b| = 2**(v(b) - v(a)) of a rational or integer.

    Well defined on unreduced representations since common factors cancel in
    the exponent difference.
    """
    r = Fraction(r)
    if r == 0:
        return DyadicNorm(None)
    return DyadicNorm(dyadic_valuation(r.denominator) - dyadic_valuation(r.numerator))


def g2(y) -> Fraction:
    """Dyadic gcd weight min(1, |y|^-2) where |.| is the 2-adic norm.

    ``g2(0) == 1`` by the same convention (|0| = 0, so the minimum is 1).
    """
    e = dyadic_norm(y).exponent
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

    @staticmethod
    def identity() -> "IntMatrix2":
        return IntMatrix2(1, 0, 0, 1)

    @staticmethod
    def step_matrix(a: int) -> "IntMatrix2":
        """Matrix of the pseudo-division step with shift ``a``: [[0,1],[2^a,2^a]].

        As a transformation this is x -> 2^-a / (1 + x), the inverse branch of
        the shift-and-subtract map.
        """
        p = 1 << require_int("a", a, 0)
        return IntMatrix2(0, 1, p, p)

    def __matmul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
        )

    def det(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10

    def apply_vector(self, x: int, y: int) -> tuple[int, int]:
        return (self.m00 * x + self.m01 * y, self.m10 * x + self.m11 * y)


def lft_apply(m: IntMatrix2, x) -> Fraction:
    """Evaluate the transformation (m00*x + m01)/(m10*x + m11) exactly."""
    x = Fraction(x)
    num = m.m00 * x.numerator + m.m01 * x.denominator
    den = m.m10 * x.numerator + m.m11 * x.denominator
    if den == 0:
        raise PoleError(f"pole of {m} at {x}")
    return Fraction(num, den)


def lft_derivative_at(m: IntMatrix2, x) -> Fraction:
    """Signed derivative det(m)/(m10*x + m11)^2 of the transformation at x."""
    x = Fraction(x)
    den = m.m10 * x.numerator + m.m11 * x.denominator
    if den == 0:
        raise PoleError(f"pole of {m} at {x}")
    # the x-denominator squared rescales to the derivative in x itself
    return Fraction(m.det() * x.denominator * x.denominator, den * den)
