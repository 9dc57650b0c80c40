import json
import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from clgcd import experiments
from clgcd.algorithm import _exponent_run, continuants, cost_vector
from clgcd.constants import m_table
from clgcd.dynamics import birkhoff_estimates
from clgcd.errors import DomainError, ConsistencyError
from clgcd.parallel import derive_seed
from clgcd.experiments import (
    COST_KEYS,
    DEFAULT_SEED,
    EDGE_COEFF,
    EXHAUSTIVE_LIMIT,
    OmegaSpec,
    _totients,
    _zeta,
    check_worstcase_bounds,
    conjecture_check,
    dirichlet_check,
    mean_costs,
    omega_iter,
    slope_estimate,
    theory_means,
    worstcase_scan,
)

LN2 = math.log(2)


def test_omega_exhaustive_order():
    spec = OmegaSpec(N=5, mode="exhaustive")
    assert list(omega_iter(spec)) == [
        (1, 2), (1, 3), (2, 3), (1, 4), (3, 4),
        (1, 5), (2, 5), (3, 5), (4, 5),
    ]
    # q ascending, p ascending within q, across several chunks
    for n, coprime_only in ((150, True), (120, False)):
        spec = OmegaSpec(N=n, mode="exhaustive", coprime_only=coprime_only)
        assert len(list(experiments._chunk_tasks(spec))) > 1
        assert list(omega_iter(spec)) == [
            (p, q) for q in range(2, n + 1) for p in range(1, q)
            if not coprime_only or gcd(p, q) == 1]


def test_omega_all_pairs():
    spec = OmegaSpec(N=4, mode="exhaustive", coprime_only=False)
    assert list(omega_iter(spec)) == [
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
    ]


def test_omega_spec_validation():
    with pytest.raises(DomainError):
        OmegaSpec(N=1)
    with pytest.raises(DomainError):
        OmegaSpec(N=10, mode="random")
    with pytest.raises(DomainError):
        OmegaSpec(N=200_000, mode="exhaustive")
    with pytest.raises(DomainError):
        OmegaSpec(N=10_001, mode="exhaustive")
    assert OmegaSpec(N=10_000, mode="exhaustive").N == EXHAUSTIVE_LIMIT
    with pytest.raises(DomainError):
        OmegaSpec(N=10, mode="sampled", sample_count=1)
    # a float N reached the sampler's int.bit_length as AttributeError
    for kwargs in ({"N": 1e6}, {"N": 1000, "sample_count": 5e3},
                   {"N": 100.0, "mode": "exhaustive"}):
        with pytest.raises(DomainError, match="integer"):
            OmegaSpec(**kwargs)
    # a NumPy integer stands for its int, in the report too
    spec = OmegaSpec(N=np.int64(1000), sample_count=np.int64(500))
    assert type(spec.N) is int and type(spec.sample_count) is int
    assert (mean_costs(spec).to_json_dict()
            == mean_costs(OmegaSpec(N=1000, sample_count=500)).to_json_dict())
    # the seed hashed as text: 1.0 and True drew streams of their own
    pairs = list(omega_iter(OmegaSpec(N=1000, sample_count=50, seed=1)))
    for seed in (True, np.int64(1)):
        assert list(omega_iter(
            OmegaSpec(N=1000, sample_count=50, seed=seed))) == pairs
    with pytest.raises(DomainError, match="seed"):
        list(omega_iter(OmegaSpec(N=1000, sample_count=50, seed=1.0)))


def test_omega_sampled_reproducible():
    spec = OmegaSpec(N=1000, mode="sampled", sample_count=5000, seed=123)
    pairs = list(omega_iter(spec))
    assert pairs == list(omega_iter(spec))
    assert len(pairs) == 5000
    assert all(0 < p < q <= 1000 and gcd(p, q) == 1 for p, q in pairs)
    # Python ints, not the columns' int64, in both modes
    exhaustive = list(omega_iter(OmegaSpec(N=50, mode="exhaustive")))
    assert {type(x) for pair in pairs + exhaustive for x in pair} == {int}
    other = OmegaSpec(N=1000, mode="sampled", sample_count=5000, seed=124)
    assert pairs != list(omega_iter(other))


# every q of this spec is far above 2^62, so mean_costs takes the scalar
# kernel stage, _scalar_costs
_SCALAR_SPEC = OmegaSpec(N=1 << 70, mode="sampled", sample_count=300, seed=5)


def test_mean_costs_against_straight_loop():
    # the second spec keeps the non-coprime pairs, where d = gcd(p, q) > 1;
    # the third has q >= 2^62, which the scalar kernel stage serves
    for spec in (OmegaSpec(N=100, mode="exhaustive"),
                 OmegaSpec(N=60, mode="exhaustive", coprime_only=False),
                 _SCALAR_SPEC):
        _check_against_straight_loop(spec)


def _check_against_straight_loop(spec):
    rep = mean_costs(spec)

    if spec.mode == "sampled":
        pairs = omega_iter(spec)
    else:
        pairs = ((p, q) for q in range(2, spec.N + 1) for p in range(1, q)
                 if not spec.coprime_only or gcd(p, q) == 1)
    n = 0
    sk = ss = svg = svq = 0
    ks, lnqs, lnrs = [], [], []
    for p, q in pairs:
        exps, _ = _exponent_run(p, q, canonical=True)
        cost = cost_vector(exps)
        n += 1
        sk += cost.steps
        ss += cost.shifts
        svg += cost.g_exp
        svq += cost.q_exp
        ks.append(cost.steps)
        lnqs.append(math.log(cost.Q))
        lnrs.append(math.log(cost.R))

    assert rep.samples == n
    # integer-accumulated means are reproduced exactly
    assert rep.means["K"] == sk / n
    assert rep.means["S"] == ss / n
    assert rep.means["sigma"] == LN2 * (ss / n)
    assert rep.means["rho"] == 2 * LN2 * (svg / n)
    assert rep.means["q2"] == 2 * LN2 * (svq / n)
    # float-accumulated means only up to summation order
    assert rep.means["q"] == pytest.approx(2 * math.fsum(lnqs) / n, rel=1e-12)
    assert rep.means["r"] == pytest.approx(2 * math.fsum(lnrs) / n, rel=1e-12)
    # standard errors against the textbook estimator
    assert rep.stderrs["K"] == pytest.approx(
        np.std(ks, ddof=1) / math.sqrt(n), rel=1e-10)
    assert rep.stderrs["q"] == pytest.approx(
        2 * np.std(lnqs, ddof=1) / math.sqrt(n), rel=1e-10)
    for key in COST_KEYS:
        assert rep.ratios_to_k[key] == rep.means[key] / rep.means["K"]


# the sampled chunks, both limits of the int64 stage, non-coprime pairs,
# and q up to and beyond the float range
_CHUNK_SPECS = [OmegaSpec(N=10 ** 6, sample_count=3 * 4096, seed=seed)
                for seed in (1, 2, 3)]
_CHUNK_SPECS += [
    OmegaSpec(N=300, mode="exhaustive"),
    OmegaSpec(N=120, mode="exhaustive", coprime_only=False),
    OmegaSpec(N=10 ** 4, sample_count=3 * 4096, coprime_only=False),
    OmegaSpec(N=(1 << 62) - 1, sample_count=2000),
    OmegaSpec(N=(1 << 62) - 1, sample_count=2000, coprime_only=False),
    OmegaSpec(N=1 << 70, sample_count=1000),
    OmegaSpec(N=1 << 200, sample_count=500, coprime_only=False),
    OmegaSpec(N=1 << 1100, sample_count=100),
]

# quotients above 2^53, where a float bit length can round up, the longest
# runs below 2^62, and the shortest runs
_TOP = (1 << 62) - 1
_EDGE_PAIRS = [(1, _TOP), (3, (1 << 61) + 5), (5, (1 << 61) - 1), (1, 2),
               (2, 3), (10 ** 6 - 1, 10 ** 6), (_TOP - 1, _TOP),
               (6, (1 << 61) + 2), (1 << 40, (1 << 61) + (1 << 41))]
_EDGE_PAIRS += [(1, (1 << n) - 1) for n in range(2, 62)]


def _task_pairs(task):
    # one chunk's pairs as Python ints, as omega_iter yields them
    return list(zip(*(c.tolist() for c in experiments._chunk_columns(task))))


def _straight_part(pairs):
    # one chunk part from the exact scalar routes: ints added exactly, the
    # float logs summed in pair order
    sums = [0, 0, 0, 0, 0.0, 0.0]
    squares = [0, 0, 0, 0, 0.0, 0.0]
    for p, q in pairs:
        exps, _ = _exponent_run(p, q, canonical=True)
        cost = cost_vector(exps)
        row = (cost.steps, cost.shifts, cost.g_exp, cost.q_exp,
               math.log(cost.Q), math.log(cost.R))
        for j, x in enumerate(row):
            sums[j] += x
            squares[j] += x * x
    return len(pairs), sums, squares


def _assert_part_types(part):
    # columns 0-3 (K, S, v(g), v(Q)) reach merge as Python ints
    assert all(type(v) is int for v in part[1][:4] + part[2][:4])


@pytest.mark.parametrize("spec", [
    OmegaSpec(N=10 ** 6, sample_count=8192, seed=7),
    OmegaSpec(N=(1 << 62) - 1, sample_count=4096, seed=7),
    OmegaSpec(N=1 << 64, sample_count=3000, seed=7),
], ids=["int64-1e6", "int64-2^62", "scalar-2^64"])
def test_float_column_stderrs_match_an_exact_two_pass(spec):
    # the raw-square variance of the float columns ln Q and ln R loses no
    # digits that matter: against the mean and the centred squares of the
    # same floats, summed exactly, it agrees to 1e-9 relative (measured
    # here: q 5.5e-15, 1.0e-13, 3.6e-13 and r 2.1e-12, 6.0e-12, 8.9e-12)
    rep = mean_costs(spec)
    columns = {"q": [], "r": []}
    for p, q in omega_iter(spec):
        pair = continuants(_exponent_run(p, q, canonical=True)[0])
        columns["q"].append(Fraction(math.log(pair.Q)))
        columns["r"].append(Fraction(math.log(pair.R)))
    n = rep.samples
    for key, xs in columns.items():
        mean = sum(xs) / n
        var = sum((x - mean) ** 2 for x in xs) / (n - 1)
        want = 2.0 * math.sqrt(var / n)
        assert rep.stderrs[key] == pytest.approx(want, rel=1e-9, abs=0), key


def test_chunk_parts_match_a_straight_loop():
    # (n, integer sums, float sums) bit for bit on every chunk
    for spec in _CHUNK_SPECS:
        for task in experiments._chunk_tasks(spec):
            part = experiments._stats_chunk(task)
            assert part == _straight_part(_task_pairs(task))
            _assert_part_types(part)


def _columns(pairs):
    return [p for p, _ in pairs], [q for _, q in pairs]


def _assert_kernel_stages_agree(p, q, coprime=False):
    # both kernel stages, and on a coprime chunk both the d = 1 route and
    # the gcd route, give one part
    parts = [experiments._chunk_part(*stage(p, q), coprime=route)
             for stage in (experiments._lockstep_costs,
                           experiments._scalar_costs)
             for route in {False, coprime}]
    for part in parts:
        assert part == parts[0]
        _assert_part_types(part)


def test_batch_path_matches_scalar_path():
    # every chunk the int64 (batch) stage can take, through both kernel stages
    for spec in _CHUNK_SPECS:
        if spec.N >= 1 << 62:
            continue
        for task in experiments._chunk_tasks(spec):
            _assert_kernel_stages_agree(*experiments._chunk_columns(task),
                                        coprime=spec.coprime_only)


def test_batch_path_edge_inputs():
    # the edge pairs singly, together, and the empty chunk
    for pair in _EDGE_PAIRS:
        _assert_kernel_stages_agree(*_columns([pair]))
    _assert_kernel_stages_agree(*_columns(_EDGE_PAIRS))
    _assert_kernel_stages_agree([], [])


@pytest.mark.parametrize("pair, match", [
    ((3, 9), "odd gcd"), ((6, 9), "odd gcd"), ((15, 25), "odd gcd"),
    # a power-of-two gcd leaves the terminal's odd part at 1; the
    # continuant pair, which must give back X = p, catches it
    ((2, 4), "disagree"), ((6, 10), "disagree"), ((12, 40), "disagree"),
])
@pytest.mark.parametrize("stage", ["_lockstep_costs", "_scalar_costs"])
def test_coprime_route_rejects_a_common_factor(pair, match, stage):
    # a chunk that claims coprime pairs takes d = 1; a pair with a common
    # factor still raises, alone or among coprime pairs
    for pairs in ([pair], [(1, 2), pair, (3, 7)]):
        costs = getattr(experiments, stage)(*_columns(pairs))
        with pytest.raises(ConsistencyError, match=match):
            experiments._chunk_part(*costs, coprime=True)


@pytest.mark.parametrize("task, stage, other", [
    (("sampled", (1 << 62) - 1, 1, 0, 200, True),
     "_lockstep_costs", "_scalar_costs"),
    (("sampled", 1 << 62, 1, 0, 200, True),
     "_scalar_costs", "_lockstep_costs"),
    (("exhaustive", 2, 60, True), "_lockstep_costs", "_scalar_costs"),
])
def test_kernel_stage_follows_the_column_dtype(monkeypatch, task, stage,
                                               other):
    # the column dtype picks the kernel stage: int64 for every q below
    # 2^62 (a sampled N of 2^62 - 1, any exhaustive chunk), object above;
    # the other stage must not run
    def refuse(p, q):
        raise AssertionError(f"{other} ran on {task}")

    ran = []
    costs = getattr(experiments, stage)

    def record(p, q):
        ran.append(len(p))
        return costs(p, q)

    monkeypatch.setattr(experiments, other, refuse)
    monkeypatch.setattr(experiments, stage, record)
    part = experiments._stats_chunk(task)
    assert ran == [part[0]] and part[0] > 0
    assert part == _straight_part(_task_pairs(task))


def _randint_chunk(n, seed, index, count, coprime_only):
    # the sampler's rule on randrange: x and y uniform below N, both drawn
    # again when equal, then p = min + 1 and q = max + 1
    rng = random.Random(derive_seed(seed, "omega", index))
    pairs = []
    while len(pairs) < count:
        x, y = rng.randrange(n), rng.randrange(n)
        if x == y:
            continue
        p, q = min(x, y) + 1, max(x, y) + 1
        if not coprime_only or gcd(p, q) == 1:
            pairs.append((p, q))
    return pairs


# a sampled chunk draws through parallel.sample_pairs with q_lo = 2 and
# q_hi = N; tests/test_parallel.py pins the sampler on other ranges
@pytest.mark.parametrize("n", [2, 3, 10, 1000, 10 ** 6, (1 << 62) - 1, 1 << 70])
def test_sampler_reproduces_the_randint_stream(n):
    for seed, index, coprime_only in ((DEFAULT_SEED, 0, True), (7, 3, False),
                                      (11, 12, True)):
        args = (n, seed, index, 500, coprime_only)
        assert _task_pairs(("sampled", *args)) == _randint_chunk(*args)


@pytest.mark.parametrize("coprime_only", [True, False])
def test_sampled_law_is_omega_n(coprime_only):
    # the sampled ensemble is uniform on the pairs the exhaustive mode
    # enumerates, so every sampled mean sits within 4 sigma of the
    # exact ensemble mean
    n = 2000
    exact = mean_costs(OmegaSpec(N=n, mode="exhaustive",
                                 coprime_only=coprime_only))
    sampled = mean_costs(OmegaSpec(N=n, sample_count=200_000, seed=3,
                                   coprime_only=coprime_only))
    for key in COST_KEYS:
        z = (sampled.means[key] - exact.means[key]) / sampled.stderrs[key]
        assert abs(z) < 4.0, (key, z)


def test_mean_costs_rejects_a_wrong_continuant_pair(monkeypatch):
    # the continuant pair runs on every pair: one that disagrees with the
    # run is caught, not averaged.  Scalar stage first: one digit off, the
    # terminal kept
    def digit_off_run(p, q, canonical=True):
        exps, terminal = _exponent_run(p, q, canonical)
        exps[0] += 1
        return exps, terminal

    monkeypatch.setattr(experiments, "_exponent_run", digit_off_run)
    with pytest.raises(ConsistencyError, match="disagree"):
        mean_costs(_SCALAR_SPEC)

    # int64 stage: the backward pass reads one digit off by one
    lockstep_continuants = experiments._lockstep_continuants

    def digit_off(steps, k):
        live, a = steps[0]
        steps[0] = (live, a + (np.arange(len(a)) == 0))
        return lockstep_continuants(steps, k)

    monkeypatch.setattr(experiments, "_lockstep_continuants", digit_off)
    with pytest.raises(ConsistencyError, match="disagree"):
        mean_costs(OmegaSpec(N=20, mode="exhaustive"))


def test_lockstep_continuants_refuse_to_leave_int64():
    # a digit no run below 2^62 can produce raises instead of wrapping
    one, k = np.array([0]), np.array([1])     # one pair, one step
    x, y, e = experiments._lockstep_continuants([(one, np.array([61]))], k)
    assert (x[0], y[0], e[0]) == (1, 1 << 61, 0)
    with pytest.raises(ConsistencyError, match="leaves"):
        experiments._lockstep_continuants([(one, np.array([62]))], k)


def _patch_run(monkeypatch, change, stage="_lockstep_costs"):
    costs = getattr(experiments, stage)

    def patched(p, q):
        p, q, k, s, terminal, x, y, e = costs(p, q)
        change(k, s, terminal)
        return p, q, k, s, terminal, x, y, e

    monkeypatch.setattr(experiments, stage, patched)


def test_mean_costs_rejects_a_wrong_terminal(monkeypatch):
    # the terminal's odd part must be the odd gcd, on both kernel stages
    def tripled(p, q, canonical=True):
        exps, terminal = _exponent_run(p, q, canonical)
        return exps, 3 * terminal

    monkeypatch.setattr(experiments, "_exponent_run", tripled)
    with pytest.raises(ConsistencyError, match="odd gcd"):
        mean_costs(_SCALAR_SPEC)

    def triple(k, s, terminal):
        terminal *= 3

    _patch_run(monkeypatch, triple)
    with pytest.raises(ConsistencyError, match="odd gcd"):
        mean_costs(OmegaSpec(N=20, mode="exhaustive"))


def _one_more_shift(k, s, terminal):
    s[-1] += 1


def test_mean_costs_rejects_a_wrong_shift_count(monkeypatch):
    # the content exponent of the continuant pair is built without S
    _patch_run(monkeypatch, _one_more_shift)
    with pytest.raises(ConsistencyError, match="disagree"):
        mean_costs(OmegaSpec(N=20, mode="exhaustive"))


def _odd_terminal(k, s, terminal):
    terminal[-1] *= 3


def _doubled_terminal(k, s, terminal):
    terminal[-1] <<= 1


@pytest.mark.parametrize("change, match", [
    (_one_more_shift, "disagree"),
    (_doubled_terminal, "disagree"),
    (_odd_terminal, "odd gcd"),
])
def test_scalar_stage_mutations_are_caught(monkeypatch, change, match):
    # a wrong S, a wrong power of two in the terminal and a wrong odd part
    # of the terminal, on the object arrays of the scalar kernel stage
    _patch_run(monkeypatch, change, "_scalar_costs")
    with pytest.raises(ConsistencyError, match=match):
        mean_costs(_SCALAR_SPEC)


def test_mean_costs_sends_bound_violations_to_the_check(monkeypatch):
    def inflated(k, s, terminal):
        k[5] = 40

    _patch_run(monkeypatch, inflated)
    with pytest.raises(ConsistencyError, match="step bound"):
        mean_costs(OmegaSpec(N=20, mode="exhaustive"))


def test_mean_costs_deterministic_across_threads():
    for spec in (
        OmegaSpec(N=200, mode="exhaustive"),
        OmegaSpec(N=10_000, mode="sampled", sample_count=6000, seed=42),
    ):
        a = mean_costs(spec, threads=1)
        b = mean_costs(spec, threads=2)
        assert a.to_json_dict() == b.to_json_dict()


def test_mean_costs_needs_pairs():
    with pytest.raises(DomainError):
        mean_costs(OmegaSpec(N=2, mode="exhaustive"))


def test_theory_column():
    table = m_table()
    th = theory_means(100)
    assert th["K"] == table.two_over_H * math.log(100)
    assert th["S"] == pytest.approx(th["K"] * table.D / LN2, rel=1e-15)
    for key, growth in table.mean_costs.items():
        assert th[key] == pytest.approx(th["K"] * growth, rel=1e-15)


def test_report_csv_shape():
    rep = mean_costs(OmegaSpec(N=50, mode="exhaustive"))
    rows = rep.to_csv_rows()
    assert rows[0] == ["N", "mode", "samples", "cost", "mean", "stderr",
                       "ratio_to_K", "theory", "deviation"]
    assert len(rows) == 1 + len(COST_KEYS)
    assert [r[3] for r in rows[1:]] == list(COST_KEYS)
    json.dumps(rep.to_json_dict())


def test_worstcase_bounds_reject_violations():
    check_worstcase_bounds(31, 75, 7, 6)
    with pytest.raises(ConsistencyError):
        check_worstcase_bounds(1, 4, 20, 0)
    with pytest.raises(ConsistencyError):
        check_worstcase_bounds(1, 4, 2, 100)


def _full_bounds_check(p, q, k, s):
    # check_worstcase_bounds without its integer early return
    if k > 2 and q * q < (1 << (k - 2)):
        raise ConsistencyError(f"step bound violated: K={k} on (p,q)=({p},{q})")
    lg = math.log2(q)
    if s > (2.0 * lg + 2.0) * lg + 1e-9:
        raise ConsistencyError(f"shift bound violated: S={s} on (p,q)=({p},{q})")


def _bounds_outcome(check, q, k, s):
    try:
        check(1, q, k, s)
    except ConsistencyError as exc:
        return str(exc)
    return None


def test_worstcase_early_return_skips_no_violation():
    # q at both ends of each bit length; K and S at, just below and just
    # above the early-return bounds (2b, 2b(b-1)) and the true bounds
    raises = 0
    for b in range(2, 71):
        for q in (1 << (b - 1), (1 << b) - 1):
            k_max = 2 + (q * q).bit_length() - 1
            lg = math.log2(q)
            s_max = math.floor((2.0 * lg + 2.0) * lg + 1e-9)
            ks = {x + d for x in (2 * b, k_max) for d in (-1, 0, 1)}
            ss = {x + d for x in (2 * b * (b - 1), s_max) for d in (-1, 0, 1)}
            for k in ks:
                for s in ss:
                    want = _bounds_outcome(_full_bounds_check, q, k, s)
                    assert _bounds_outcome(check_worstcase_bounds,
                                           q, k, s) == want, (q, k, s)
                    raises += want is not None
    # the grid does reach the raising side of both bounds
    assert raises > 0
    assert _bounds_outcome(check_worstcase_bounds, 4, 2, 2 * 3 * 2 + 1)
    assert _bounds_outcome(check_worstcase_bounds, 4, 7, 0)


def test_totients():
    assert _totients(12)[1:] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_zeta_reference_points():
    assert _zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
    assert _zeta(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-15)
    assert _zeta(3.0) == pytest.approx(1.2020569031595942854, rel=1e-15)


def test_dirichlet_smallest_case_exact():
    # q = 1 contributes the single pair (1, 1); q = 2 contributes 2^-4
    rep = dirichlet_check(s=2.0, N=2)
    assert rep.partial_sum == 1.0625


def test_dirichlet_converges():
    rep = dirichlet_check(s=2.0, N=10_000)
    assert abs(rep.deviation) < 1e-7
    assert rep.deviation == rep.partial_sum - rep.zeta_ratio
    assert rep.tail_scale == pytest.approx(1e-8, rel=1e-12)
    json.dumps(rep.to_json_dict())


def test_dirichlet_domain():
    with pytest.raises(DomainError):
        dirichlet_check(s=1.0)
    for N in (1, 200_000, 1e4, 100.0):
        with pytest.raises(DomainError, match="N"):
            dirichlet_check(N=N)
    assert (dirichlet_check(N=np.int64(1000)).to_json_dict()
            == dirichlet_check(N=1000).to_json_dict())


def test_worstcase_family_exact_counts():
    # on (1, 2^n - 1) the two conventions bracket the extremal growth:
    # greedy K = 2n-2, S = n(n-1)/2 + 1; canonical K = 2n-1, S = n(n-1)/2
    rep = worstcase_scan(64)
    for n, kg, sg, kc, sc in rep.rows:
        assert (kg, sg) == (2 * n - 2, n * (n - 1) // 2 + 1)
        assert (kc, sc) == (2 * n - 1, n * (n - 1) // 2)
    assert rep.fits["greedy"]["alpha"] == pytest.approx(2.0, abs=1e-9)
    assert rep.fits["greedy"]["gamma"] == pytest.approx(0.5, abs=1e-9)
    assert rep.fits["canonical"]["alpha"] == pytest.approx(2.0, abs=1e-9)
    assert rep.fits["canonical"]["gamma"] == pytest.approx(0.5, abs=1e-9)
    rows = rep.to_csv_rows()
    assert rows[0] == ["n", "K_greedy", "S_greedy", "K_canonical", "S_canonical"]
    assert len(rows) == 64


def test_worstcase_domain():
    # the S fit is quadratic: n_max = 2 or 3 leaves it one or two points
    for n_max in (1, 2, 3):
        with pytest.raises(DomainError):
            worstcase_scan(n_max)
    assert len(worstcase_scan(4).rows) == 3
    for n_max in (513, 8.0):
        with pytest.raises(DomainError, match="n_max"):
            worstcase_scan(n_max)
    assert worstcase_scan(np.int64(8)) == worstcase_scan(8)


def test_slope_ladder_validation():
    # a float N_max was reported as a non-integer N of a rung
    for N_max in (10_000, 2.0 ** 17):
        with pytest.raises(DomainError, match="N_max"):
            slope_estimate(N_max)


@pytest.fixture(scope="module")
def small_slope():
    return slope_estimate(1 << 16, sample_count=4000, seed=DEFAULT_SEED)


def test_slope_ladder_smoke(small_slope):
    rep = small_slope
    assert rep.rungs[0].spec.N == 4096
    assert rep.rungs[1].spec.N == 65536
    assert set(rep.slopes) == set(COST_KEYS)
    assert all(s > 0 for s in rep.slopes.values())
    # the reduced denominator tracks N itself, so its slope is pinned at 2
    assert rep.slopes["r"] == pytest.approx(2.0, abs=0.3)
    table = m_table()
    assert rep.targets["K"] == table.two_over_H
    assert rep.targets["r"] == table.H_conj
    assert rep.ratios["K"] == 1.0
    json.dumps(rep.to_json_dict())


def test_slope_step_is_the_log_of_the_rung_ratio():
    # the rungs are N_max // 16 and N_max; past a multiple of 16 their
    # ratio is not 16
    rep = slope_estimate((1 << 16) + 15, sample_count=200, seed=4)
    lo, hi = rep.rungs
    assert (lo.spec.N, hi.spec.N) == (4096, 65551)
    step = math.log(65551 / 4096)
    for key in COST_KEYS:
        assert rep.slopes[key] == (hi.means[key] - lo.means[key]) / step
        assert rep.slope_stderrs[key] == math.hypot(
            hi.stderrs[key], lo.stderrs[key]) / step


def test_slope_ladder_at_a_zero_slope():
    # two pairs per rung: seed 0 gives slope(rho) = 0 exactly, and its ratio
    # error divided by it; seed 26 gives slope(K) = 0, which every ratio
    # divides by
    rep = slope_estimate(1 << 16, 2, seed=0)
    assert rep.slopes["rho"] == 0.0
    assert rep.ratio_stderrs["rho"] == (rep.slope_stderrs["rho"]
                                        / abs(rep.slopes["K"]))
    for key in set(COST_KEYS) - {"rho"}:
        assert rep.slopes[key] != 0.0
        assert rep.ratio_stderrs[key] == abs(rep.ratios[key]) * math.hypot(
            rep.slope_stderrs[key] / rep.slopes[key],
            rep.slope_stderrs["K"] / rep.slopes["K"])
    with pytest.raises(DomainError, match="slope\\(K\\) is 0 from "
                                          "N = 4096 to 65536"):
        slope_estimate(1 << 16, 2, seed=26)


def test_reports_store_the_checked_int():
    # a NumPy integer or a bool given as a seed or count is stored as the
    # int it stands for, so the reports serialise as the plain-int reports
    # do
    cases = [
        (lambda i: birkhoff_estimates(16, 64, i(1)).to_json_dict()),
        (lambda i: mean_costs(OmegaSpec(N=100, sample_count=i(50),
                                        seed=i(1))).to_json_dict()),
        (lambda i: slope_estimate(i(1 << 16), i(200),
                                  seed=i(3)).to_json_dict()),
    ]
    for report in cases:
        want = json.dumps(report(int))
        assert json.dumps(report(np.int64)) == want
    assert (json.dumps(birkhoff_estimates(16, 64, True).to_json_dict())
            == json.dumps(birkhoff_estimates(16, 64, 1).to_json_dict()))
    spec = OmegaSpec(N=100, mode="exhaustive", seed=True)
    assert type(spec.seed) is int and spec.seed == 1


def test_conjecture_report_wiring(small_slope):
    table = m_table()
    birkhoff = birkhoff_estimates(bits=32, samples=256, seed=1)
    rep = conjecture_check(birkhoff=birkhoff, slope=small_slope)
    assert rep.target == pytest.approx(2 * table.D - LN2, abs=1e-15)
    assert rep.e2_estimate == birkhoff.e2_estimate
    assert rep.ratio_estimate == small_slope.ratios["rho"]
    assert rep.difference == rep.e2_estimate - rep.ratio_estimate
    assert rep.e2_systematic == pytest.approx(
        EDGE_COEFF / (table.two_over_H * 32 * LN2), rel=1e-15)
    assert rep.combined_stderr == pytest.approx(
        math.hypot(rep.e2_stderr, rep.ratio_stderr, rep.e2_systematic),
        rel=1e-15)
    assert rep.z_score == pytest.approx(
        rep.difference / rep.combined_stderr, rel=1e-15)
    imp = rep.implied_d_minus_b
    assert imp["trajectory"] == pytest.approx(2 * table.D - rep.e2_estimate)
    assert imp["ensemble"] == pytest.approx(2 * table.D - rep.ratio_estimate)
    d = json.loads(json.dumps(rep.to_json_dict()))
    assert d["birkhoff"]["bits"] == 32
    assert d["slope"]["N_max"] == 65536


def test_conjecture_check_refuses_its_ladder_before_the_birkhoff_run(
        monkeypatch):
    # an N_max or pair_samples the ladder would refuse is refused first,
    # under its own name, before the costly trajectory run
    def run(*args):
        raise AssertionError("the Birkhoff run started")

    monkeypatch.setattr(experiments, "birkhoff_estimates", run)
    with pytest.raises(DomainError, match="N_max >= 65536, got 1000"):
        conjecture_check(N_max=1000, trajectory_samples=200_000)
    with pytest.raises(DomainError, match="pair_samples >= 2, got 1"):
        conjecture_check(pair_samples=1)
    with pytest.raises(DomainError, match="pair_samples must be an integer"):
        conjecture_check(pair_samples=2.0)
