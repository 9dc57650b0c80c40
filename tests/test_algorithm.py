import dataclasses
import json
import math
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clgcd import algorithm
from clgcd.dyadic import dyadic_valuation
from clgcd.algorithm import (
    CANONICAL,
    GREEDY,
    ContinuantPair,
    StepRecord,
    Trace,
    _exponent_run,
    cf_eval,
    cl_run,
    cl_step,
    continuants,
    cost_vector,
    is_canonical,
)
from clgcd.errors import DomainError

LN2 = math.log(2)

# reference run on (31, 75), canonical convention:
# (i, a_i, shifted, remainder, v(shifted), v(remainder), v(gcd))
RUN_31_75 = (
    (0, None, 75, 31, 0, 0, 0),
    (1, 1, 62, 13, 1, 0, 0),
    (2, 2, 52, 10, 2, 1, 1),
    (3, 2, 40, 12, 3, 2, 2),
    (4, 1, 24, 16, 3, 4, 3),
    (5, 0, 16, 8, 4, 3, 3),
    (6, 0, 8, 8, 3, 3, 3),
    (7, 0, 8, 0, 3, math.inf, 3),
)

digit_strings = st.lists(st.integers(min_value=0, max_value=6),
                         min_size=1, max_size=12)


@st.composite
def pairs(draw, max_q=2000, coprime=False):
    q = draw(st.integers(min_value=2, max_value=max_q))
    p = draw(st.integers(min_value=1, max_value=q - 1))
    if coprime:
        while gcd(p, q) != 1:
            p = p - 1 if p > 1 else q - 1
    return p, q


def test_step_examples():
    assert cl_step(31, 75) == (1, 13, (13, 62))
    assert cl_step(13, 62) == (2, 10, (10, 52))
    assert cl_step(1, 2) == (1, 0, (0, 2))
    # p == q is allowed for a single step (shift 0, remainder 0)
    assert cl_step(5, 5) == (0, 0, (0, 5))


def test_step_rejects_bad_pairs():
    with pytest.raises(DomainError):
        cl_step(75, 31)
    with pytest.raises(DomainError):
        cl_step(0, 5)
    with pytest.raises(DomainError):
        cl_step(3, -6)
    with pytest.raises(DomainError):
        cl_step(1.5, 4)


@given(pairs())
def test_step_invariants(pq):
    p, q = pq
    a, r, new_pair = cl_step(p, q)
    assert new_pair == (r, p << a)
    assert 0 <= r < (p << a) <= q
    assert q == (p << a) + r


def test_run_reference_table():
    tr = cl_run(31, 75)
    assert tr.convention == CANONICAL
    assert tr.steps == 7
    assert tr.shifts == 6
    assert tr.terminal == (0, 8)
    assert tr.odd_gcd == 1
    assert tr.rewritten
    assert tr.exponents == (1, 2, 2, 1, 0, 0, 0)
    rows = tr.table_rows()
    assert len(rows) == len(RUN_31_75)
    for rec, expect in zip(rows, RUN_31_75):
        assert (rec.index, rec.exponent, rec.shifted, rec.remainder,
                rec.val_shifted, rec.val_remainder, rec.val_gcd) == expect


def test_run_greedy_variant():
    tr = cl_run(31, 75, GREEDY)
    assert tr.exponents == (1, 2, 2, 1, 0, 1)
    assert (tr.steps, tr.shifts) == (6, 7)
    assert tr.terminal == (0, 16)
    assert tr.odd_gcd == 1
    assert not tr.rewritten
    assert tr.records[-1].val_gcd == 4


def test_run_non_coprime():
    tr = cl_run(6, 21)
    assert tr.odd_gcd == 3
    assert tr.terminal == (0, 3)


def test_run_rejects_bad_input():
    with pytest.raises(DomainError):
        cl_run(5, 5)
    with pytest.raises(DomainError):
        cl_run(31, 75, "eager")


@given(pairs())
def test_run_computes_odd_gcd(pq):
    p, q = pq
    for convention in (GREEDY, CANONICAL):
        tr = cl_run(p, q, convention)
        g = gcd(p, q)
        assert tr.odd_gcd == g >> (g & -g).bit_length() - 1
        # terminal modulus is the odd gcd times a power of two
        m = tr.terminal[1]
        assert m % tr.odd_gcd == 0
        assert (m // tr.odd_gcd) & (m // tr.odd_gcd - 1) == 0


@given(pairs())
def test_conventions_differ_by_final_rewrite(pq):
    p, q = pq
    greedy = cl_run(p, q, GREEDY)
    canon = cl_run(p, q, CANONICAL)
    assert canon.exponents[-1] == 0
    # the greedy run ends on w = 2^a u with w > u, so a >= 1 and the
    # canonical rewrite fires on every run
    a = greedy.exponents[-1]
    assert a >= 1
    assert canon.exponents == greedy.exponents[:-1] + (a - 1, 0)
    assert canon.rewritten
    assert not greedy.rewritten
    assert (canon.steps, canon.shifts) == (greedy.steps + 1, greedy.shifts - 1)
    # the rewrite leaves the continuant column untouched (the full matrix
    # differs: M_a and M_{a-1} M_0 only agree on (0, 1)^T)
    cg, cc = continuants(greedy.exponents), continuants(canon.exponents)
    assert (cg.P, cg.Q, cg.g, cg.R) == (cc.P, cc.Q, cc.g, cc.R)


@given(pairs())
def test_lean_runner_matches_trace(pq):
    p, q = pq
    for convention, canonical in ((GREEDY, False), (CANONICAL, True)):
        tr = cl_run(p, q, convention)
        exps, terminal = _exponent_run(p, q, canonical=canonical)
        assert tuple(exps) == tr.exponents
        assert terminal == tr.terminal[1]


def _eager_rows(p, q, convention):
    """The run table replayed one cl_step at a time, valuations from gcd."""
    v = dyadic_valuation
    rows = [StepRecord(0, None, q, p, v(q), v(p), v(gcd(q, p)))]
    u, w = p, q
    while True:
        a, r, (_, shifted) = cl_step(u, w)
        if convention == CANONICAL and r == 0 and a >= 1:
            a -= 1
            shifted = r = u << a
        rows.append(StepRecord(len(rows), a, shifted, r,
                               v(shifted), v(r), v(gcd(shifted, r))))
        if r == 0:
            return rows
        u, w = r, shifted


@given(pairs(), st.sampled_from((GREEDY, CANONICAL)))
def test_lazy_records_match_eager_replay(pq, convention):
    p, q = pq
    rows = _eager_rows(p, q, convention)
    tr = cl_run(p, q, convention)
    assert tr.records == tuple(rows[1:])
    assert tr.table_rows() == rows
    g = gcd(p, q)
    assert tr.to_json_dict() == {
        "input": [p, q],
        "convention": convention,
        "K": len(rows) - 1,
        "S": sum(r.exponent for r in rows[1:]),
        "terminal": [0, rows[-1].shifted],
        "odd_gcd": g >> dyadic_valuation(g),
        "rows": [
            {"i": r.index, "a_i": r.exponent, "shifted": r.shifted,
             "remainder": r.remainder, "val_shifted": r.val_shifted,
             "val_remainder": None if r.remainder == 0 else r.val_remainder,
             "val_gcd": r.val_gcd}
            for r in rows
        ],
    }


def test_scalar_views_build_no_records(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return StepRecord(*args)

    monkeypatch.setattr(algorithm, "StepRecord", counting)
    for convention in (GREEDY, CANONICAL):
        tr = cl_run(31, 75, convention)
        _ = (tr.exponents, tr.steps, tr.shifts, tr.odd_gcd, tr.terminal)
    assert built == []
    tr.records
    assert len(built) == tr.steps


def test_records_cached_and_trace_frozen():
    tr = cl_run(31, 75)
    first = tr.records
    assert tr.records is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.p = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.exponents = ()


def test_trace_json_shape():
    d = cl_run(31, 75).to_json_dict()
    json.dumps(d)
    assert d["input"] == [31, 75]
    assert d["K"] == 7 and d["S"] == 6
    assert len(d["rows"]) == 8
    assert d["rows"][0]["a_i"] is None
    assert d["rows"][-1]["val_remainder"] is None   # inf encodes as null


def test_eval_examples():
    assert cf_eval((1, 2)) == Fraction(2, 5)
    assert cf_eval((0,)) == 1
    assert cf_eval((2,)) == Fraction(1, 4)
    assert cf_eval((1, 2, 2, 1, 0, 0, 0)) == Fraction(31, 75)


def test_eval_rejects_bad_digits():
    for bad in ((), (1, -1), (1.5,), ("2",)):
        with pytest.raises(DomainError):
            cf_eval(bad)


@given(digit_strings)
def test_eval_matches_nested_branches(digits):
    x = Fraction(0)
    for a in reversed(digits):
        x = Fraction(1, 1 << a) / (1 + x)
    assert cf_eval(digits) == x


@given(pairs(max_q=300))
def test_expansion_reconstructs_input(pq):
    p, q = pq
    for convention in (GREEDY, CANONICAL):
        tr = cl_run(p, q, convention)
        assert cf_eval(tr.exponents) == Fraction(p, q)


def test_is_canonical():
    assert is_canonical((1, 2, 0))
    assert not is_canonical((1, 2))
    assert not is_canonical(())


def test_continuants_examples():
    assert continuants((1, 2)) == ContinuantPair(
        4, 10, continuants((1, 2)).matrix, 2, 5)
    cp = continuants((0,))
    assert (cp.P, cp.Q, cp.g, cp.R) == (1, 1, 1, 1)
    cp = continuants((1, 1))
    assert (cp.P, cp.Q, cp.g, cp.R) == (2, 6, 2, 3)
    cp = continuants((2, 0))
    assert (cp.P, cp.Q, cp.g, cp.R) == (1, 8, 1, 8)


@given(digit_strings)
def test_continuant_invariants(digits):
    cp = continuants(digits)
    assert Fraction(cp.P, cp.Q) == cf_eval(digits)
    assert cp.g == gcd(cp.P, cp.Q)
    assert cp.g & (cp.g - 1) == 0          # always a power of two
    assert cp.R * cp.g == cp.Q
    assert abs(cp.matrix.det()) == 1 << sum(digits)


@given(pairs(coprime=True))
def test_terminal_times_content_is_determinant(pq):
    # for coprime inputs the terminal modulus and the continuant gcd
    # split 2^S between them
    p, q = pq
    for convention in (GREEDY, CANONICAL):
        tr = cl_run(p, q, convention)
        g = continuants(tr.exponents).g
        assert tr.terminal[1] * g == 1 << tr.shifts


def test_cost_vector_example():
    cost = cost_vector((1, 2))
    assert (cost.steps, cost.shifts) == (2, 3)
    assert (cost.Q, cost.R, cost.g_exp, cost.q_exp) == (10, 5, 1, 1)
    assert cost.sigma == 3 * LN2
    assert cost.q == pytest.approx(2 * math.log(10), rel=1e-15)
    assert cost.rho == 2 * LN2
    assert cost.r == pytest.approx(2 * math.log(5), rel=1e-15)
    assert cost.q2 == 2 * LN2
    assert tuple(cost.as_dict()) == ("K", "S", "sigma", "q", "rho", "r", "q2")


@given(digit_strings)
def test_cost_vector_agrees_with_continuants(digits):
    # cost_vector re-derives everything through the transformation
    # identities internally and raises if the routes disagree, so a clean
    # return here is already the dual-route check
    cost = cost_vector(digits)
    cp = continuants(digits)
    assert cost.Q == cp.Q
    assert cost.R == cp.R
    assert 1 << cost.g_exp == cp.g
    assert cost.q - cost.rho == pytest.approx(2 * math.log(cp.Q / cp.g), rel=1e-12)
    # Q = g R, so the valuation of Q splits as content plus reduced part
    assert cost.q_exp - cost.g_exp == dyadic_valuation(cp.R)
    assert cost.q2 - cost.rho == pytest.approx(
        2 * LN2 * dyadic_valuation(cp.R), rel=1e-13, abs=1e-13)
