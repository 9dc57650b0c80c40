import json
import math

import pytest
from scipy.special import spence

from clgcd import constants
from clgcd.constants import LN2, LN3, LOG32, LOG43, m_table
from clgcd.errors import ConsistencyError

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
    # the alternating sum is Li2(-1/2), which scipy reaches as spence(3/2);
    # E = (pi^2/6 + 2 Li2(-1/2)) / log(4/3) gives the sum back
    series = (m_table().E * LOG43 - math.pi ** 2 / 6.0) / 2.0
    assert series == pytest.approx(float(spence(1.5)), abs=1e-15)


def test_shift_constant_against_branch_measure():
    # independent route: D = log2 * E[a] with E[a] summed from the measure
    # of the branch intervals [2^-(a+1), 2^-a] under the invariant density
    def F(x):
        return math.log((x + 1.0) / (x + 2.0))

    mean_branch = sum(
        a * (F(0.5 ** a) - F(0.5 ** (a + 1))) / LOG43 for a in range(1, 400)
    )
    assert mean_branch == pytest.approx(LOG32 / LOG43, abs=1e-12)
    assert m_table().D == pytest.approx(LN2 * mean_branch, abs=1e-12)


def test_series_truncation():
    # the first omitted term 1/(65^2 2^65) bounds the tail of the 64-term
    # alternating sum; through E's factor 2/log(4/3) it stays below 1e-20
    assert 2.0 / (65 * 65 * 2.0 ** 65) / LOG43 < 1e-20
    # so the sum is converged in floats: 1000 terms, summed in the same
    # order, give the same E bit for bit
    series = 0.0
    for k in range(1, 1001):
        series += (-1) ** k / (k * k * 2.0 ** k)
    assert (math.pi ** 2 / 6.0 + 2.0 * series) / LOG43 == m_table().E


def test_h_internal_cross_check():
    # the table's H passed the A - B cross-check, and it is the closed
    # form evaluated on scipy's dilogarithm
    table = m_table()
    assert table.H_conj == pytest.approx(table.A - table.B_conj, abs=1e-12)
    li2 = float(spence(1.5))
    closed = ((math.pi ** 2 / 6.0 + 2.0 * li2 - LN2 * (3.0 * LN3 - 4.0 * LN2))
              / (2.0 * LN2 - LN3))
    assert table.H_conj == pytest.approx(closed, abs=1e-14)


def test_m_table_keeps_the_h_cross_check(monkeypatch):
    # LN3 enters only H's own closed form at call time (log(4/3) and
    # log(3/2) were fixed at import), so A - B no longer matches it
    monkeypatch.setattr(constants, "LN3", LN3 + 1e-11)
    with pytest.raises(ConsistencyError, match="A - B"):
        m_table()


def test_table_json_round_trip():
    table = m_table()
    d = json.loads(json.dumps(table.to_json_dict()))
    assert list(d) == ["E", "D", "A", "B_conj", "H_conj", "two_over_H",
                       "mean_costs"]
    assert d["E"] == table.E
    assert set(d["mean_costs"]) == {"sigma", "q", "rho", "r", "q2"}
