import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clgcd.algorithm import continuants
from clgcd.dyadic import (
    INF_VALUATION,
    IntMatrix2,
    dyadic_norm,
    dyadic_valuation,
    g2,
    lft_apply,
    lft_derivative_at,
)
from clgcd.errors import DomainError, PoleError

nonzero_ints = st.integers(min_value=-(10**9), max_value=10**9).filter(bool)
digit_strings = st.lists(st.integers(min_value=0, max_value=5),
                         min_size=1, max_size=8)


def test_valuation_small_values():
    assert dyadic_valuation(1) == 0
    assert dyadic_valuation(2) == 1
    assert dyadic_valuation(12) == 2
    assert dyadic_valuation(-8) == 3
    assert dyadic_valuation(0) == INF_VALUATION
    assert dyadic_valuation(0) == math.inf


def test_valuation_reads_any_integer_and_refuses_the_rest():
    # the NumPy extremes whose negation overflows: -n would warn on them
    for n, want in ((np.int64(-2**63), 63), (np.int32(-2**31), 31),
                    (np.uint64(2**63), 63), (np.uint8(0), math.inf),
                    (True, 0), (False, math.inf)):
        assert dyadic_valuation(n) == want
    for bad in (0.0, 8.0, -8.0, Fraction(8), None, "8"):
        with pytest.raises(DomainError, match="^n must be an integer"):
            dyadic_valuation(bad)


def test_rational_arguments_go_through_one_rule():
    m = _step(1)
    # floats and strings still pass, as the exact rationals they are
    assert dyadic_norm(0.375) == dyadic_norm("3/8") == 3
    assert g2("5/8") == Fraction(1, 64)
    assert lft_apply(m, "1/3") == lft_apply(m, Fraction(1, 3))
    for bad in (None, math.inf, math.nan, "x", "1/0", 1j, np.float32(0.5)):
        for fn, name in ((dyadic_norm, "r"), (g2, "y"),
                         (lambda x: lft_apply(m, x), "x"),
                         (lambda x: lft_derivative_at(m, x), "x")):
            with pytest.raises(DomainError, match=f"^{name} must be a rational"):
                fn(bad)


@given(nonzero_ints)
def test_valuation_splits_off_odd_part(n):
    v = dyadic_valuation(n)
    assert n % (1 << v) == 0
    assert (n >> v) % 2 != 0


@given(nonzero_ints, nonzero_ints)
def test_valuation_additive(a, b):
    assert dyadic_valuation(a * b) == dyadic_valuation(a) + dyadic_valuation(b)


def test_norm_values():
    # dyadic_norm(r) is the exponent e of |r|_2 = 2^e, None for |0| = 0
    assert dyadic_norm(Fraction(3, 4)) == 2
    assert dyadic_norm(8) == -3
    assert dyadic_norm(5) == 0
    assert dyadic_norm(Fraction(1, 2)) == 1
    assert dyadic_norm(0) is None


def test_norm_le_one():
    # |r|_2 <= 1 reads as an exponent <= 0, or None for r = 0
    assert dyadic_norm(6) <= 0
    assert dyadic_norm(0) is None
    assert not dyadic_norm(Fraction(1, 2)) <= 0


@given(st.fractions(), st.fractions())
def test_norm_multiplicative(x, y):
    # |xy|_2 = |x|_2 |y|_2 is additivity of the exponents
    ex, ey = dyadic_norm(x), dyadic_norm(y)
    want = None if ex is None or ey is None else ex + ey
    assert dyadic_norm(x * y) == want


@given(st.fractions())
def test_norm_zero_absorbs(x):
    assert dyadic_norm(0 * x) is None
    assert dyadic_norm(x * 0) is None


def test_g2_weight():
    # g2(y) = min(1, |y|_2^-2): only dyadically large y are penalized
    assert g2(0) == 1
    assert g2(3) == 1
    assert g2(2) == 1
    assert g2(Fraction(4, 3)) == 1
    assert g2(Fraction(1, 2)) == Fraction(1, 4)
    assert g2(Fraction(5, 8)) == Fraction(1, 64)


@given(st.fractions())
def test_g2_matches_definition(y):
    e = dyadic_norm(y)
    norm = Fraction(0) if e is None else Fraction(2) ** e
    expected = Fraction(1) if norm <= 1 else 1 / (norm * norm)
    assert g2(y) == expected


def _matrix(digits):
    return continuants(digits).matrix


def _step(a):
    return _matrix((a,))


def test_step_matrix():
    # the one-digit product is the step matrix [[0,1],[2^a,2^a]]
    assert _step(0) == IntMatrix2(0, 1, 1, 1)
    assert _step(2) == IntMatrix2(0, 1, 4, 4)
    for a in (-1, 2.0):
        with pytest.raises(DomainError, match=r"exponents\[0\]"):
            _step(a)


@given(st.integers(min_value=0, max_value=30))
def test_step_matrix_det(a):
    assert _step(a) == IntMatrix2(0, 1, 1 << a, 1 << a)
    assert _step(a).det() == -(1 << a)


@given(digit_strings, digit_strings)
def test_continuants_of_a_concatenation_is_the_product(left, right):
    ml, mr = _matrix(left), _matrix(right)
    m = _matrix(left + right)
    assert m == IntMatrix2(ml.m00 * mr.m00 + ml.m01 * mr.m10,
                           ml.m00 * mr.m01 + ml.m01 * mr.m11,
                           ml.m10 * mr.m00 + ml.m11 * mr.m10,
                           ml.m10 * mr.m01 + ml.m11 * mr.m11)
    assert m.det() == ml.det() * mr.det()


def test_lft_of_step_matrix():
    # step matrix acts as x -> 2^-a / (1 + x)
    assert lft_apply(_step(1), 0) == Fraction(1, 2)
    assert lft_apply(_step(0), 1) == Fraction(1, 2)
    assert lft_apply(_step(3), Fraction(1, 3)) == Fraction(3, 32)


def test_lft_pole():
    m = IntMatrix2(0, 1, 1, -1)
    with pytest.raises(PoleError):
        lft_apply(m, 1)
    with pytest.raises(PoleError):
        lft_derivative_at(m, 1)


def test_lft_derivative_value():
    # det(M_1) = -2, denominator at 0 is 2, so h'(0) = -1/2
    assert lft_derivative_at(_step(1), 0) == Fraction(-1, 2)


@given(digit_strings, digit_strings,
       st.fractions(min_value=0, max_value=1))
def test_lft_composition_chain_rule(left, right, x):
    ml = _matrix(left)
    mr = _matrix(right)
    m = _matrix(left + right)
    inner = lft_apply(mr, x)
    assert lft_apply(m, x) == lft_apply(ml, inner)
    assert (lft_derivative_at(m, x)
            == lft_derivative_at(ml, inner) * lft_derivative_at(mr, x))
