import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clgcd.dyadic import (
    INF_VALUATION,
    DyadicNorm,
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


@given(nonzero_ints)
def test_valuation_splits_off_odd_part(n):
    v = dyadic_valuation(n)
    assert n % (1 << v) == 0
    assert (n >> v) % 2 != 0


@given(nonzero_ints, nonzero_ints)
def test_valuation_additive(a, b):
    assert dyadic_valuation(a * b) == dyadic_valuation(a) + dyadic_valuation(b)


def test_norm_values():
    assert dyadic_norm(Fraction(3, 4)).value() == 4
    assert dyadic_norm(8).value() == Fraction(1, 8)
    assert dyadic_norm(5).value() == 1
    assert dyadic_norm(0).is_zero
    assert dyadic_norm(0).value() == 0
    assert float(dyadic_norm(Fraction(1, 2))) == 2.0
    assert float(dyadic_norm(0)) == 0.0


def test_norm_le_one():
    assert dyadic_norm(6).le_one()
    assert dyadic_norm(0).le_one()
    assert not dyadic_norm(Fraction(1, 2)).le_one()


@given(st.fractions(), st.fractions())
def test_norm_multiplicative(x, y):
    prod = dyadic_norm(x) * dyadic_norm(y)
    assert prod.value() == dyadic_norm(x * y).value()


def test_norm_zero_absorbs():
    assert (dyadic_norm(0) * DyadicNorm(3)).is_zero


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
    norm = dyadic_norm(y).value()
    expected = Fraction(1) if norm <= 1 else 1 / (norm * norm)
    assert g2(y) == expected


def test_step_matrix():
    assert IntMatrix2.step_matrix(0) == IntMatrix2(0, 1, 1, 1)
    assert IntMatrix2.step_matrix(2) == IntMatrix2(0, 1, 4, 4)
    for a in (-1, 2.0):
        with pytest.raises(DomainError, match=r"^(need )?a\b"):
            IntMatrix2.step_matrix(a)


@given(st.integers(min_value=0, max_value=30))
def test_step_matrix_det(a):
    assert IntMatrix2.step_matrix(a).det() == -(1 << a)


def test_identity_matrix():
    ident = IntMatrix2.identity()
    m = IntMatrix2(3, 1, 4, 1)
    assert ident @ m == m
    assert m @ ident == m
    assert ident.apply_vector(7, 9) == (7, 9)


def test_matmul_and_apply_vector_agree():
    m1 = IntMatrix2.step_matrix(1)
    m2 = IntMatrix2.step_matrix(2)
    prod = m1 @ m2
    assert prod.apply_vector(0, 1) == m1.apply_vector(*m2.apply_vector(0, 1))
    assert prod.det() == m1.det() * m2.det()


def test_lft_of_step_matrix():
    # step matrix acts as x -> 2^-a / (1 + x)
    assert lft_apply(IntMatrix2.step_matrix(1), 0) == Fraction(1, 2)
    assert lft_apply(IntMatrix2.step_matrix(0), 1) == Fraction(1, 2)
    assert lft_apply(IntMatrix2.step_matrix(3), Fraction(1, 3)) == Fraction(3, 32)


def test_lft_pole():
    m = IntMatrix2(0, 1, 1, -1)
    with pytest.raises(PoleError):
        lft_apply(m, 1)
    with pytest.raises(PoleError):
        lft_derivative_at(m, 1)


def test_lft_derivative_value():
    # det(M_1) = -2, denominator at 0 is 2, so h'(0) = -1/2
    assert lft_derivative_at(IntMatrix2.step_matrix(1), 0) == Fraction(-1, 2)


@given(digit_strings, digit_strings,
       st.fractions(min_value=0, max_value=1))
def test_lft_composition_chain_rule(left, right, x):
    ml = _product(left)
    mr = _product(right)
    inner = lft_apply(mr, x)
    assert lft_apply(ml @ mr, x) == lft_apply(ml, inner)
    assert (lft_derivative_at(ml @ mr, x)
            == lft_derivative_at(ml, inner) * lft_derivative_at(mr, x))


def _product(digits):
    m = IntMatrix2.identity()
    for a in digits:
        m = m @ IntMatrix2.step_matrix(a)
    return m
