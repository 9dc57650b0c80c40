import json
import math

import numpy as np
import pytest
from scipy.special import spence

from clgcd.constants import (
    LN2,
    LOG32,
    LOG43,
    SERIES_TERMS_MAX,
    _alt_series,
    const_A,
    const_B_conjectured,
    const_D,
    const_E,
    const_H_conjectured,
    m_table,
    series_tail_bound,
)
from clgcd.errors import DomainError

# six-figure reference values; the closed forms must sit within 1e-4
REFERENCE = {
    "E": 2.60045,
    "D": 0.97693,
    "A": 1.62352,
    "H_conj": 1.33973,
    "two_over_H": 1.49283,
}


def test_reference_values():
    table = m_table()
    for name, ref in REFERENCE.items():
        assert getattr(table, name) == pytest.approx(ref, abs=1e-4), name
    assert table.B_conj + table.D == pytest.approx(1.26071, abs=1e-4)


def test_algebraic_identities():
    table = m_table()
    assert table.A == pytest.approx(table.E - table.D, abs=1e-15)
    assert table.B_conj == pytest.approx(table.D - LN2, abs=1e-15)
    assert table.H_conj == pytest.approx(table.A - table.B_conj, abs=1e-12)
    assert table.two_over_H * table.H_conj == pytest.approx(2.0, rel=1e-15)
    assert LOG43 == pytest.approx(2 * LN2 - math.log(3), abs=1e-16)


def test_mean_cost_table():
    table = m_table()
    mc = table.mean_costs
    assert set(mc) == {"sigma", "q", "rho", "r", "q2"}
    assert mc["sigma"] == table.D
    assert mc["q"] == pytest.approx(table.E, abs=1e-15)
    assert mc["rho"] == mc["q2"]
    assert mc["rho"] == pytest.approx(2 * table.D - LN2, abs=1e-15)
    # one H: r's limit is the H behind two_over_H, not A - B recomputed
    assert mc["r"] == table.H_conj


def test_series_against_dilogarithm():
    # the alternating sum is Li2(-1/2), which scipy reaches as spence(3/2)
    assert _alt_series(64) == pytest.approx(float(spence(1.5)), abs=1e-15)


def test_shift_constant_against_branch_measure():
    # independent route: D = log2 * E[a] with E[a] summed from the measure
    # of the branch intervals [2^-(a+1), 2^-a] under the invariant density
    def F(x):
        return math.log((x + 1.0) / (x + 2.0))

    mean_branch = sum(
        a * (F(0.5 ** a) - F(0.5 ** (a + 1))) / LOG43 for a in range(1, 400)
    )
    assert mean_branch == pytest.approx(LOG32 / LOG43, abs=1e-12)
    assert const_D() == pytest.approx(LN2 * mean_branch, abs=1e-12)


def test_series_truncation():
    assert abs(const_E(40) - const_E(64)) <= series_tail_bound(40)
    assert series_tail_bound(64) < 1e-20
    assert series_tail_bound(10) > series_tail_bound(20)
    with pytest.raises(DomainError):
        _alt_series(0)
    with pytest.raises(DomainError):
        const_E(terms=0)


def test_series_terms_capped_below_float_overflow():
    # the cap keeps k^2 2^k a float; every term count up to it still sums
    assert abs(const_E(SERIES_TERMS_MAX) - const_E(64)) <= series_tail_bound(64)
    for terms in (SERIES_TERMS_MAX + 1, 2000, 10 ** 6, 64.0):
        with pytest.raises(DomainError, match="terms"):
            _alt_series(terms)
        with pytest.raises(DomainError, match="terms"):
            const_E(terms)
        with pytest.raises(DomainError, match="terms"):
            m_table(terms)
    assert m_table(np.int64(64)) == m_table(64)


def test_h_internal_cross_check():
    # evaluates both the direct bracket form and A - B; raises on mismatch
    assert const_H_conjectured() == pytest.approx(
        const_A() - const_B_conjectured(), abs=1e-12)


def test_table_json_round_trip():
    table = m_table(terms=32)
    d = json.loads(json.dumps(table.to_json_dict()))
    assert d["terms"] == 32
    assert d["E"] == pytest.approx(const_E(32), abs=0)
    assert set(d["mean_costs"]) == {"sigma", "q", "rho", "r", "q2"}
