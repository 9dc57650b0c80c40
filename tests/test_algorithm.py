import dataclasses
import json
import math
import pickle
import random
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clgcd import algorithm
from clgcd.dyadic import (
    dyadic_norm,
    dyadic_valuation,
    g2,
    lft_apply,
    lft_derivative_at,
)
from clgcd.dynamics import branch_of, orbit, t_apply
from clgcd.algorithm import (
    CANONICAL,
    GREEDY,
    ContinuantPair,
    StepRecord,
    Trace,
    _bitlen,
    _det_is_power_of_two,
    _digit,
    _exponent_run,
    _leading_word_run,
    _v2,
    cf_eval,
    cl_run,
    cl_step,
    continuants,
    cost_vector,
)
from clgcd.errors import ConsistencyError, DomainError

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
    # the greedy run ends (..., 1), rewritten (..., 0, 0)
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
    assert tr.exponents[-1] >= 1
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
    for bad in ((3.0, 7), (3, 7.0), ("3", 7), (-3, 7), (0, 7), (7, 3)):
        with pytest.raises(DomainError):
            cl_run(*bad)


def test_run_accepts_bools_and_int_subclasses():
    class Int(int):
        pass

    assert cl_run(True, 3) == cl_run(1, 3)
    # stored as the int it stands for, so the trace serialises as 1's does
    assert type(cl_run(True, 3).p) is int
    assert cl_run(True, 3).to_json_dict()["input"] == [1, 3]
    assert type(cl_run(Int(31), Int(75)).q) is int
    assert cl_run(Int(31), Int(75)).exponents == (1, 2, 2, 1, 0, 0, 0)
    with pytest.raises(DomainError):
        cl_run(Int(5), Int(5))


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
    # every reader of a digit string, given a tuple, a list or a generator
    for bad in ((), (1, -1), (1.5,), ("2",), (1, None), (2, np.int64(-1), 0),
                (-3,)):
        for reader in (cf_eval, continuants, cost_vector):
            for arg in (bad, list(bad), iter(bad)):
                with pytest.raises(DomainError):
                    reader(arg)
    # the loops run in opposite directions; the message names the first
    # bad digit of the string either way
    for reader in (cf_eval, continuants):
        with pytest.raises(DomainError, match="got -1$"):
            reader((1, -1, 2, -2))
        with pytest.raises(DomainError, match="got 1.5$"):
            reader((1.5, "x"))


def test_digit_readers_take_lists_generators_and_bools():
    digits = (1, 2, 2, 1, 0, 0, 0)
    for reader in (cf_eval, continuants, cost_vector):
        want = reader(digits)
        assert reader(list(digits)) == want
        assert reader(a for a in digits) == want
        assert reader((True, 2, 2, True, False, 0, 0)) == want
    value = cf_eval([True, False])
    assert type(value.numerator) is int and type(value.denominator) is int
    assert value == Fraction(1, 4)


def _plain(x) -> bool:
    """Every integer in x, through Fractions, dataclasses and sequences, is
    a Python int: no NumPy scalar got through."""
    if isinstance(x, np.generic):
        return False
    if isinstance(x, Fraction):
        return type(x.numerator) is int and type(x.denominator) is int
    if dataclasses.is_dataclass(x):
        return all(_plain(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return all(map(_plain, x))
    return True


@pytest.mark.parametrize("n", (np.int64, np.uint64, np.int32, np.uint16))
def test_numpy_integers_are_the_ints_they_stand_for(n):
    # each scalar entry point of the exact layer, given NumPy integers or
    # Fractions of them, returns its plain-int result held in Python ints;
    # a NumPy overflow would warn, and a warning fails the test
    digits = (1, 2, 2, 1, 0, 0, 0)
    m = continuants((3, 1)).matrix
    x, nx = Fraction(31, 75), Fraction(n(31), n(75))

    def trace_rows(p, q):
        return cl_run(p, q).table_rows()

    cases = [
        (cl_run, (31, 75), (n(31), n(75))),
        (cl_run, (31, 75), (31, n(75))),
        (cl_run, (31, 75, GREEDY), (n(31), 75, GREEDY)),
        (trace_rows, (31, 75), (n(31), n(75))),
        (cl_step, (31, 75), (n(31), n(75))),
        (cl_step, (3, 3), (n(3), n(3))),
        (dyadic_valuation, (96,), (n(96),)),
        (dyadic_valuation, (0,), (n(0),)),
        (dyadic_norm, (12,), (n(12),)),
        (dyadic_norm, (Fraction(3, 8),), (Fraction(n(3), n(8)),)),
        (g2, (Fraction(5, 8),), (Fraction(n(5), n(8)),)),
        (lft_apply, (m, 3), (m, n(3))),
        (lft_apply, (m, x), (m, nx)),
        (lft_derivative_at, (m, 3), (m, n(3))),
        (lft_derivative_at, (m, x), (m, nx)),
        (branch_of, (1,), (n(1),)),
        (branch_of, (x,), (nx,)),
        (t_apply, (x,), (nx,)),
        (orbit, (x,), (nx,)),
    ]
    for reader in (cf_eval, continuants, cost_vector):
        cases += [(reader, (digits,), (tuple(map(n, digits)),)),
                  (reader, ((2,),), ((n(2),),)),
                  (reader, ((2, 1, 0),), ([2, n(1), 0],)),
                  (reader, ((70, 0),), ([n(70), 0],))]
    for fn, plain, numpy in cases:
        got = fn(*numpy)
        assert got == fn(*plain), (fn, numpy)
        assert _plain(got), (fn, numpy)
    assert (json.dumps(cl_run(n(3), n(5)).to_json_dict())
            == json.dumps(cl_run(3, 5).to_json_dict()))
    if np.iinfo(n).bits == 64:
        big = Fraction(n(2**40 + 1), n(2**41 + 3))
        assert (lft_apply(continuants((30, 30)).matrix, big)
                == Fraction(3298534883332, 3541774864355552133123))


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


# ---------------------------------------- the trace path against references

def _reference_exponent_run(p, q, canonical=True):
    # the step kernel as first written: two shifts per step, and the
    # canonical end taken as one more pass of the loop
    exps = []
    u, w = p, q
    while True:
        a = (w // u).bit_length() - 1
        r = w - (u << a)
        if canonical and r == 0 and a >= 1:
            a -= 1
            r = u << a
        exps.append(a)
        if r == 0:
            return exps, u << a
        u, w = r, u << a


def _kernel_pairs():
    rng = random.Random(11)
    out = [(p, q) for q in range(2, 70) for p in range(1, q)]
    # p | q, powers of two and common factors, small and past 2^62
    out += [(p, p << a) for p in (1, 3, 5, 2 ** 61 - 1, 3 ** 50)
            for a in (1, 2, 5, 63, 100)]
    out += [(p, p * m) for p in (3, 7, 2 ** 40 + 1) for m in (3, 5, 9, 12)]
    out += [(1 << i, 1 << j) for j in (1, 2, 10, 62, 64, 200)
            for i in range(j)]
    for bits in (10, 62, 63, 64, 300, 1000):
        for _ in range(40):
            q = rng.getrandbits(bits) | 2
            d = rng.choice((1, 1, 3, 12, 2 ** 20 * 7))
            out.append((d * rng.randrange(1, q), d * q))
    return out


def test_kernel_matches_the_reference_kernel():
    for p, q in _kernel_pairs():
        for canonical in (True, False):
            assert _exponent_run(p, q, canonical) == \
                _reference_exponent_run(p, q, canonical), (p, q, canonical)


@given(pairs(max_q=10 ** 30), st.booleans())
def test_kernel_matches_the_reference_kernel_on_random_pairs(pq, canonical):
    assert _exponent_run(*pq, canonical) == _reference_exponent_run(*pq, canonical)


@pytest.mark.parametrize("pair", [(31, 75), (6, 21), (1, 2), (3, 2 ** 70)])
@pytest.mark.parametrize("convention", [GREEDY, CANONICAL])
def test_cl_run_trace_equals_the_dataclass_trace(pair, convention):
    fast = cl_run(*pair, convention)
    exps, m = _exponent_run(*pair, convention == CANONICAL)
    ref = Trace(*pair, convention, tuple(exps), (0, m))
    assert type(fast) is Trace
    assert fast == ref and not fast != ref
    assert hash(fast) == hash(ref)
    assert repr(fast) == repr(ref)
    assert vars(fast) == vars(ref)
    assert list(vars(fast)) == [f.name for f in dataclasses.fields(Trace)]
    assert pickle.dumps(fast) == pickle.dumps(ref)
    back = pickle.loads(pickle.dumps(fast))
    assert back == ref and hash(back) == hash(ref)
    moved = dataclasses.replace(fast, p=pair[0] + 1)
    assert moved == dataclasses.replace(ref, p=pair[0] + 1)
    assert moved.p == pair[0] + 1 and fast.p == pair[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.q = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del fast.p
    first = fast.records
    assert fast.records is first
    assert first == ref.records
    assert fast == ref       # the cached records take no part in equality


def _reduced(digits):
    x, y = 0, 1
    for a in reversed(digits):
        x, y = y, (x + y) << a
    return Fraction(x, y)


long_digit_strings = st.lists(
    st.one_of(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=200)),
    min_size=1, max_size=400)


@given(long_digit_strings)
def test_eval_equals_the_normalised_fraction(digits):
    for arg in (digits, tuple(digits)):
        got, want = cf_eval(arg), _reduced(digits)
        assert type(got) is Fraction
        assert got == want
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)
        assert hash(got) == hash(want)
        assert str(got) == str(want)


def test_eval_large_digits():
    for digits in ((10 ** 4,), (0,) * 3000, (5000, 0, 7, 0), (1,) * 2000):
        got, want = cf_eval(digits), _reduced(digits)
        assert (got.numerator, got.denominator, hash(got)) == \
            (want.numerator, want.denominator, hash(want))


# ------------------------------------------------ the leading-word kernel

def _scalar_runs(pairs):
    runs = [_exponent_run(p, q) for p, q in pairs]
    return ([len(e) for e, _ in runs], [sum(e) for e, _ in runs],
            [t for _, t in runs])


def _leading_word_lists(pairs):
    # the kernel on the pairs' p and q columns: K and S come back as int64
    # arrays, the terminal as an object array of Python ints
    k, s, terminal = _leading_word_run([p for p, _ in pairs],
                                       [q for _, q in pairs])
    assert (k.dtype, s.dtype, terminal.dtype) == (np.int64, np.int64, object)
    return k.tolist(), s.tolist(), terminal.tolist()


@st.composite
def big_pairs(draw):
    # often next to a row boundary of the multi-limb stage
    bits = draw(st.integers(min_value=1, max_value=2048)
                | st.sampled_from([62 * j + d
                                   for j in range(1, algorithm._LIMB_ROWS + 1)
                                   for d in (-1, 0, 1)]))
    q = draw(st.integers(min_value=2, max_value=max(2, 1 << bits)))
    return draw(st.integers(min_value=1, max_value=q - 1)), q


# a division by zero in the certificate shows up as a numpy warning, which
# fails the test (tests/conftest.py); one call costs about as many numpy
# passes for ten pairs as for one
@settings(max_examples=50)
@given(st.lists(big_pairs(), min_size=1, max_size=10))
def test_leading_word_run_matches_scalar_kernel(pairs):
    assert _leading_word_lists(pairs) == _scalar_runs(pairs)


def _edge_pairs():
    rng = random.Random(7)
    out = []
    for bits in (40, 62, 63, 64, 100, 256, 1000):
        p = rng.getrandbits(bits) | 1 << (bits - 1)
        for a in (0, 1, 2, 7, 30, 61, 62, 64):
            # q = 2^a p +- 1, and +- the last bit of q's leading word
            q0 = p << a
            sh = max(q0.bit_length() - 62, 0)
            for d in {1, (1 << sh) - 1 or 1, 1 << sh, (1 << sh) + 1}:
                out += [(p, q) for q in (q0 - d, q0 + d) if p < q]
    for a in (0, 1, 3, 20, 60):
        for sh in (1, 10, 100, 500):
            # the upper endpoint (uh + 1)/wh sits exactly on 2^-a: its
            # remainder is 0, so the first digit must not be certified
            # (at sh = 500 in the leading-word rounds, below in the stage)
            top = (1 << (62 - a)) - 1
            big_u = rng.randrange(top >> 1, top)
            out.append((big_u << sh | ((1 << sh) - 1),
                        (big_u + 1) << (a + sh)))
    out += [(1, 1 << n) for n in (1, 2, 61, 62, 63, 64, 300, 2048)]
    out += [(q - 1, q) for q in (2, 3, (1 << 62) - 1, 1 << 62, (1 << 62) + 1,
                                 (1 << 256) + 1, rng.getrandbits(500) | 1)]
    for q in ((1 << 62) - 1, 1 << 62, (1 << 62) + 1, (1 << 62) + 3):
        out += [(p, q) for p in (1, 2, q // 3, q // 2, rng.randrange(1, q))]
    # common power of two times a common odd factor, also one >= 2^62
    for d in (3, 3 ** 40, 5 * 3 ** 45):
        for e in (1, 5, 70):
            p, q = sorted(rng.getrandbits(200) | 1 for _ in range(2))
            out.append(((d * p) << e, (d * q) << e))
    # the multi-limb stage: q at and next to its row boundaries, (q - 1, q)
    # and (1, 2^b +- 1) there, a digit of 62 or more, a common power of
    # two of 62 or more, an odd gcd that ends the run inside the stage,
    # and pairs that cross from the leading-word rounds into the stage
    for b in range(124, 62 * algorithm._LIMB_ROWS + 1, 62):
        for q in ((1 << b) - 1, 1 << b, (1 << b) + 1):
            out += [(q - 1, q), (rng.randrange(1, q), q), (q // 3, q)]
        out += [(1, (1 << b) - 1), (1, (1 << b) + 1)]
    out += [(3, 3 * (1 << 150) + 5), (5, (5 << 200) + 1),
            (rng.getrandbits(100) << 62,
             rng.getrandbits(150) << 62 | 1 << 211)]
    odd = rng.getrandbits(80) | 1 << 79 | 1
    out += [(odd * 3, odd * 7), (odd << 3, odd * 11), (odd, odd << 65)]
    for bits in (1000, 2048):
        q = rng.getrandbits(bits) | 1 << (bits - 1)
        out += [(rng.randrange(1, q), q) for _ in range(3)]
    return out


def test_leading_word_run_edge_families():
    pairs = _edge_pairs()
    assert _leading_word_lists(pairs) == _scalar_runs(pairs)


def test_lockstep_passes_step_greedily_and_end_canonically():
    # the passes hold the greedy digits; the canonical end is one relabel
    # (..., a) -> (..., a - 1, 0) of K, S and the terminal, and p = q,
    # which ends on a = 0, keeps its greedy end
    rng = random.Random(16)
    top = 1 << 62
    pairs = [(p, q) for p, q in _edge_pairs() if q < top]
    pairs += [(1, 1), (5, 5), (top - 1, top - 1), (1, 2), (1, top - 1)]
    for bits in (2, 10, 40, 62):
        for _ in range(50):
            q = rng.getrandbits(bits) | 1 << (bits - 1)
            pairs.append((rng.randrange(1, q), q))
    p = np.array([p for p, _ in pairs], np.int64)
    q = np.array([q for _, q in pairs], np.int64)
    k, s, terminal, passes = algorithm._lockstep_passes(p, q)
    digits = [[] for _ in pairs]
    for live, a in passes:
        for i, d in zip(live.tolist(), a.tolist()):
            digits[i].append(d)
    assert digits == [_exponent_run(p, q, canonical=False)[0]
                      for p, q in pairs]
    assert [k.tolist(), s.tolist(), terminal.tolist()] == \
        list(_scalar_runs(pairs))


def test_leading_word_run_leaves_uncertified_pairs_to_the_scalar_kernel(
        monkeypatch):
    # a pair whose leading words certify no digit finishes in
    # _exponent_run; the leading-word kernel takes no step of its own
    def no_step(*args):
        raise AssertionError("cl_step on a kernel path")

    finished = []
    exponent_run = algorithm._exponent_run

    def recording(u, w, *args):
        finished.append((u, w))
        return exponent_run(u, w, *args)

    monkeypatch.setattr(algorithm, "cl_step", no_step)
    monkeypatch.setattr(algorithm, "_exponent_run", recording)
    # each w is above the multi-limb stage, so the rounds see it first
    pairs = [(1, 1 << 600), (3, 3 << 570), (5 ** 250, 5 ** 250)]
    assert min(q for _, q in pairs) >> 62 * algorithm._LIMB_ROWS
    assert _leading_word_lists(pairs) == _scalar_runs(pairs)
    assert finished == pairs
    edge = _edge_pairs()
    assert _leading_word_lists(edge) == _scalar_runs(edge)


def test_leading_word_batches_stay_below_the_matrix_limit(monkeypatch):
    # at a low limit the guard cuts every batch short; the runs must not
    # change and no applied matrix may reach the limit
    seen = []
    certified_batch = algorithm._certified_batch

    def recording(uh, wh):
        batch = certified_batch(uh, wh)
        seen.append(int(np.abs(batch[:4]).max()))
        return batch

    monkeypatch.setattr(algorithm, "_MATRIX_BITS", 12)
    monkeypatch.setattr(algorithm, "_certified_batch", recording)
    rng = random.Random(5)
    pairs = [(rng.getrandbits(699), rng.getrandbits(700) | 1 << 699)
             for _ in range(40)]
    assert _leading_word_lists(pairs) == _scalar_runs(pairs)
    assert 0 < max(seen) < 1 << 12


def test_certificate_alone_keeps_the_digits(monkeypatch):
    # with the matrix guard off, batches run on until their endpoints
    # straddle several branches; the same-digit and positive-remainder
    # tests alone must still reject every digit they do not prove.  Runs
    # with large digits and their neighbours reach that state often.
    monkeypatch.setattr(algorithm, "_MATRIX_BITS", 1 << 20)
    rng = random.Random(8)
    pairs = []
    # an odd factor above the multi-limb stage keeps every w there, so the
    # rounds take each run to its end
    odd = rng.getrandbits(520) | 1 << 519 | 1
    while len(pairs) < 600:
        digits = [rng.choice((0, 0, 1, rng.randrange(2, 40)))
                  for _ in range(rng.randrange(3, 40))] + [0]
        cp = continuants(digits)
        pairs += [(odd * (cp.P + dp), odd * (cp.Q + dq)) for dp, dq in
                  ((0, 0), (1, 0), (0, 1), (-1, 1)) if 0 < cp.P + dp < cp.Q + dq]
    assert _leading_word_lists(pairs) == _scalar_runs(pairs)


def test_leading_word_run_finishes_coprime_orbits_in_int64(monkeypatch):
    # the common power of two comes out every round, so a coprime orbit
    # always reaches w < 2^62 and the int64 lockstep finishes it
    finished = []
    lockstep_passes = algorithm._lockstep_passes

    def counting(p, q):
        finished.append(len(p))
        return lockstep_passes(p, q)

    monkeypatch.setattr(algorithm, "_lockstep_passes", counting)
    rng = random.Random(6)
    pairs = []
    while len(pairs) < 64:
        q = rng.getrandbits(256) | 1 << 255
        p = rng.randrange(1, q)
        if gcd(p, q) == 1:
            pairs.append((p, q))
    assert _leading_word_lists(pairs) == _scalar_runs(pairs)
    assert finished == [len(pairs)]


def test_small_groups_take_the_scalar_kernel(monkeypatch):
    # one orbit runs in _exponent_run alone; a group of _VECTOR_MIN runs
    # in the vector stages, and both give _exponent_run's K, S, terminal
    calls = []
    exponent_run, leading_word_run = (algorithm._exponent_run,
                                      algorithm._leading_word_run)

    def scalar(u, w, *args):
        calls.append("scalar")
        return exponent_run(u, w, *args)

    def vector(p, q):
        calls.append(("vector", len(p)))
        return leading_word_run(p, q)

    monkeypatch.setattr(algorithm, "_exponent_run", scalar)
    monkeypatch.setattr(algorithm, "_leading_word_run", vector)
    rng = random.Random(9)
    pairs = []
    while len(pairs) < algorithm._VECTOR_MIN:
        q = rng.getrandbits(256) | 1 << 255
        p = rng.randrange(1, q)
        if gcd(p, q) == 1:
            pairs.append((p, q))
    for group in (pairs[:1], pairs):
        p = np.array([p for p, _ in group], object)
        q = np.array([q for _, q in group], object)
        calls.clear()
        k, s, terminal = algorithm._orbit_runs(p, q)
        assert (k.dtype, s.dtype, terminal.dtype) == (np.int64, np.int64,
                                                      object)
        monkeypatch.setattr(algorithm, "_exponent_run", exponent_run)
        assert [k.tolist(), s.tolist(), terminal.tolist()] == \
            list(_scalar_runs(group))
        monkeypatch.setattr(algorithm, "_exponent_run", scalar)
        assert calls == (["scalar"] if len(group) == 1
                         else [("vector", len(group))])


def test_multi_limb_stage_rejects_a_digit_one_too_low(monkeypatch):
    # halving the bias puts the float estimate one below the digit; the
    # remainder then reaches the shifted term, which the check catches
    monkeypatch.setattr(algorithm, "_DIGIT_BIAS", 0.5)
    pair = (3 ** 100, 5 ** 90)
    with pytest.raises(ConsistencyError, match=re.escape(
            f"multi-limb step broke the run of {pair}")):
        _leading_word_run([2, pair[0]], [3, pair[1]])


def test_leading_word_run_rejects_a_broken_batch(monkeypatch):
    certified_batch = algorithm._certified_batch

    def one_shift_more(uh, wh):
        batch = certified_batch(uh, wh)
        batch[4] += batch[5] > 0
        return batch

    monkeypatch.setattr(algorithm, "_certified_batch", one_shift_more)
    # the message names the pair from its p and q columns
    with pytest.raises(ConsistencyError, match=re.escape(
            f"leading-word batch broke the run of {(3 ** 400, 5 ** 275)}")):
        _leading_word_run([2, 3 ** 400], [3, 5 ** 275])


@pytest.mark.parametrize("row", [0, 1, 2, 3])
def test_leading_word_run_rejects_a_moved_matrix_entry(monkeypatch, row):
    certified_batch = algorithm._certified_batch

    def moved(uh, wh):
        batch = certified_batch(uh, wh)
        batch[row] += batch[5] > 0
        return batch

    monkeypatch.setattr(algorithm, "_certified_batch", moved)
    with pytest.raises(ConsistencyError, match="leading-word"):
        _leading_word_run([3 ** 400], [5 ** 275])


def _matrix_with_det(rng, det, bound=(1 << 61) - 1):
    # (c, d) coprime, x d - y c = 1, and (a, b) = det (x, y) reduced
    # against (c, d), so that a d - b c = det with every entry in bound
    while True:
        c, d = (rng.randrange(-bound, bound + 1) for _ in range(2))
        if c == 0 or gcd(c, d) != 1:
            continue
        x = pow(d, -1, abs(c))
        y = (x * d - 1) // c
        k = x * det // c
        a, b = x * det - k * c, y * det - k * d
        if max(abs(a), abs(b)) <= bound:
            return a, b, c, d


def _check_det_is_power_of_two(cases):
    m = np.array([row for row, _ in cases], np.int64).T
    s = np.array([s for _, s in cases], np.int64)
    want = [abs(a * d - b * c) == 1 << s for (a, b, c, d), s in cases]
    assert _det_is_power_of_two(m, s).tolist() == want


def test_det_is_power_of_two_matches_python_ints():
    rng = random.Random(14)
    top = (1 << 61) - 1
    cases = []
    for _ in range(2000):
        row = tuple(rng.randrange(-top, top + 1) for _ in range(4))
        det = row[0] * row[3] - row[1] * row[2]
        cases += [(row, rng.randrange(62)),
                  (row, min(max(abs(det).bit_length() - 1, 0), 61))]
    for s in range(61):
        for det in (1 << s, -(1 << s), (1 << s) + 1, (1 << s) - 1,
                    -(1 << s) + 1, -(1 << s) - 1, 3 << s, -3 << s, 0):
            row = _matrix_with_det(rng, det)
            cases += [(row, t) for t in (s - 1, s, s + 1) if t >= 0]
    # entries on the exactness bound 2^61, and det 0 on large entries
    edge = 1 << 61
    for row in ((edge, 0, 0, 1), (0, edge, -1, 0), (edge, edge, edge, edge),
                (-edge, edge, edge, edge), (edge, 3, edge, 3)):
        cases += [(row, t) for t in (0, 1, 60, 61)]
    hits = [abs(a * d - b * c) == 1 << s for (a, b, c, d), s in cases]
    assert sum(hits) >= 122
    _check_det_is_power_of_two(cases)
    # past the bounds the determinants come from Python ints
    _check_det_is_power_of_two([((edge + 1, 0, 0, 1), 0),
                                ((edge + 1, 0, 0, 1), 61),
                                ((edge, 0, 0, 2), 62), ((1, 0, 0, 1), 0)])


def test_bit_length_and_valuation_on_object_arrays():
    # exact past 2^1024, where the int64 branch's float conversion overflows
    rng = random.Random(13)
    xs = [1, 2, 3, (1 << 53) + 1, (1 << 62) - 1, 1 << 1023, (1 << 1024) - 1,
          1 << 1024, (1 << 1100) + (1 << 7), 3 << 2000]
    xs += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in range(1, 2100, 7)]
    xs += [x << rng.randrange(40) for x in xs[:60]]
    # x = 2^j odd for every j, where the int64 valuation reads the float
    # exponent of the power of two x & -x
    xs += [odd << j for j in range(63)
           for odd in (1, 3, (1 << (63 - j)) - 1, rng.getrandbits(63 - j) | 1)]
    want_b = [x.bit_length() for x in xs]
    want_v = [(x & -x).bit_length() - 1 for x in xs]
    arr = np.array(xs, object)
    assert _bitlen(arr).tolist() == want_b
    assert _v2(arr).tolist() == want_v
    small = [i for i, x in enumerate(xs) if x < 1 << 63]
    arr64 = np.array([xs[i] for i in small], np.int64)
    assert _bitlen(arr64).tolist() == [want_b[i] for i in small]
    assert _v2(arr64).tolist() == [want_v[i] for i in small]


@st.composite
def digit_pairs(draw):
    # 0 < u <= w <= 2^62; u often near w / 2^k, where the digit changes
    w = draw(st.integers(1, 1 << 62))
    near = st.builds(lambda k, d: min(max((w >> k) + d, 1), w),
                     st.integers(0, 62), st.integers(-1, 1))
    return draw(st.integers(1, w) | near), w


def _check_digit(pairs):
    u = np.array([u for u, _ in pairs], np.int64)
    w = np.array([w for _, w in pairs], np.int64)
    a, shifted = _digit(u, w)
    want = [(w // u).bit_length() - 1 for u, w in pairs]
    assert a.tolist() == want
    assert shifted.tolist() == [u << k for (u, _), k in zip(pairs, want)]


@given(st.lists(digit_pairs(), min_size=1, max_size=40))
def test_digit_matches_integer_division(pairs):
    _check_digit(pairs)


def test_digit_on_power_of_two_boundaries():
    # w = 2^k u - 1, 2^k u and 2^k u + 1 with w past 2^53, where the float
    # quotient can round up to the next power of two, plus the corners
    rng = random.Random(15)
    top = 1 << 62
    pairs = [(1, 1), (top, top), (top - 1, top - 1), (1, top), (2, top),
             (top - 1, top), (3, top - 1)]
    for k in range(62):
        lo, hi = ((1 << 53) >> k) + 2, (top - 1) >> k
        if hi < lo:
            continue
        us = {lo, hi, rng.randrange(lo, hi + 1)}
        us |= {(1 << m) - 1 for m in range(1, 63 - k) if lo <= (1 << m) - 1 <= hi}
        for u in us:
            pairs += [(u, (u << k) + d) for d in (-1, 0, 1)
                      if u <= (u << k) + d <= top]
    # the float exponent overshoots on some of these; the fix must catch it
    overshoots = sum(math.frexp(float(w) / float(u))[1] - 1
                     != (w // u).bit_length() - 1 for u, w in pairs)
    assert overshoots >= 10
    _check_digit(pairs)

