import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_legendre

from clgcd import dynamics
from clgcd.algorithm import _exponent_run, cl_run, continuants
from clgcd.dyadic import dyadic_valuation
from clgcd.dynamics import (
    _gauss_legendre,
    birkhoff_estimates,
    branch_of,
    orbit,
    psi,
    quad_gl,
    t_apply,
    transfer_apply,
)
from clgcd.errors import ConsistencyError, DomainError
from clgcd.parallel import chunk_counts, derive_seed, moments, sample_pairs
from clgcd.spectral import CollocationGrid, build_matrix

LN2 = math.log(2)
LOG43 = math.log(4 / 3)


@st.composite
def coprime_rationals(draw, max_q=800):
    q = draw(st.integers(min_value=2, max_value=max_q))
    p = draw(st.integers(min_value=1, max_value=q - 1))
    while gcd(p, q) != 1:
        p = p - 1 if p > 1 else q - 1
    return Fraction(p, q)


def test_branch_index():
    assert branch_of(1) == 0
    assert branch_of(Fraction(5, 8)) == 0
    assert branch_of(Fraction(1, 2)) == 1     # dyadic boundary: deeper branch
    assert branch_of(Fraction(1, 4)) == 2
    assert branch_of(Fraction(31, 75)) == 1
    for bad in (0, 2, Fraction(-1, 3)):
        with pytest.raises(DomainError):
            branch_of(bad)
    for bad in (None, math.inf, "x"):
        with pytest.raises(DomainError, match="^x must be a rational"):
            branch_of(bad)


@given(coprime_rationals())
def test_branch_index_brackets(x):
    a = branch_of(x)
    assert Fraction(1, 1 << (a + 1)) < x <= Fraction(1, 1 << a)


def test_t_apply_examples():
    assert t_apply(Fraction(31, 75)) == (1, Fraction(13, 62))
    assert t_apply(Fraction(1, 2)) == (1, Fraction(0))
    assert t_apply(1) == (0, Fraction(0))
    for bad in (0, 2, Fraction(-1, 3), None, math.nan):
        with pytest.raises(DomainError):
            t_apply(bad)


@given(coprime_rationals())
def test_map_is_conjugate_to_greedy_run(x):
    # branch sequences of the interval map reproduce the greedy digits
    tr = cl_run(x.numerator, x.denominator, "greedy")
    orb = orbit(x)
    assert orb.branches() == tr.exponents
    assert orb.length == tr.steps


@given(coprime_rationals())
def test_orbit_dyadic_log_accumulates_content(x):
    # summed along a full orbit, the dyadic observable counts the
    # continuant content of the greedy digits plus the content of the
    # starting denominator
    tr = cl_run(x.numerator, x.denominator, "greedy")
    g = continuants(tr.exponents).g
    total = sum(step.dyadic_log for step in orbit(x).steps)
    expect = 2 * LN2 * (dyadic_valuation(g) + dyadic_valuation(x.denominator))
    assert total == pytest.approx(expect, abs=1e-9)


def test_orbit_domain():
    with pytest.raises(DomainError):
        orbit(Fraction(3, 2))
    with pytest.raises(DomainError):
        orbit(0)
    for bad in (math.inf, None):
        with pytest.raises(DomainError, match="^x0 must be a rational"):
            orbit(bad)


def test_density_normalized():
    # pinned: the default rule's value, which c06 and the spectral
    # fixed-point checks see, as the annotated Python float
    mass = quad_gl(psi, 0.0, 1.0)
    assert type(mass) is float and mass == 1.0000000000000007
    assert psi(0.0) == pytest.approx(1 / (2 * LOG43), rel=1e-15)
    assert psi(1.0) == pytest.approx(1 / (6 * LOG43), rel=1e-15)
    assert psi(np.array([0.0, 1.0])).shape == (2,)


def test_density_functional_equation_pointwise():
    # grid-free check of psi = H[psi]: direct branch sum at scattered points
    for x in (0.0, 0.1, 0.37, 0.5, 0.83, 1.0):
        total = sum(
            0.5 ** a * psi(0.5 ** a / (1 + x)) for a in range(60)
        ) / (1 + x) ** 2
        assert total == pytest.approx(psi(x), rel=1e-13)


def test_transfer_fixed_point_on_grid():
    grid = CollocationGrid(64)
    out = transfer_apply(psi, 1.0, 0.0, grid=grid)
    assert float(np.max(np.abs(out - psi(grid.nodes)))) < 1e-8


def test_transfer_constant_function_oracle():
    # at (1, 0) the branch sum telescopes: H[1] = 2 / (1+x)^2
    grid = CollocationGrid(48)
    out = transfer_apply(np.ones(48), 1.0, 0.0, grid=grid)
    assert np.max(np.abs(out - 2.0 / (1.0 + grid.nodes) ** 2)) < 1e-10
    # and with a dyadic weight the geometric factor appears
    v = 0.25
    out = transfer_apply(np.ones(48), 1.0, v, grid=grid)
    oracle = (1.0 + grid.nodes) ** -2.0 / (1.0 - 2.0 ** (v - 1.0))
    assert np.max(np.abs(out - oracle)) < 1e-10


@pytest.mark.parametrize("t, v", [(1.0, 0.0), (0.7, -0.3), (1.3, 0.35)])
def test_transfer_is_the_collocation_matrix(t, v):
    # one branch sum: on the unit function (sup 1) the truncation matches too
    grid = CollocationGrid(40)
    out = transfer_apply(np.ones(40), t, v, grid=grid)
    assert np.array_equal(out, build_matrix(t, v, grid) @ np.ones(40))


def test_transfer_callable_and_samples_agree():
    grid = CollocationGrid(32)
    a = transfer_apply(psi, 1.0, 0.0, grid=grid)
    b = transfer_apply(psi(grid.nodes), 1.0, 0.0, grid=grid)
    assert np.array_equal(a, b)


def test_transfer_zero_function():
    grid = CollocationGrid(16)
    assert not transfer_apply(np.zeros(16), 1.0, 0.0, grid=grid).any()


def test_transfer_domain_errors():
    grid = CollocationGrid(16)
    with pytest.raises(DomainError):
        transfer_apply(np.ones(16), 0.5, 0.5, grid=grid)
    with pytest.raises(DomainError):
        transfer_apply(np.ones(17), 1.0, 0.0, grid=grid)
    # a sample that is not finite is refused as f's, before the depth
    for bad in (math.nan, math.inf):
        samples = np.ones(16)
        samples[3] = bad
        with pytest.raises(DomainError, match="^f must have finite samples"):
            transfer_apply(samples, 1.0, 0.0, grid=grid)


def test_quadrature():
    assert quad_gl(lambda x: x ** 3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert quad_gl(np.cos, 0.0, 1.0) == pytest.approx(math.sin(1.0), abs=1e-14)


def test_quadrature_rule_is_shared_read_only_and_bounded():
    # the 8-point rule on 64 panels, against a hand-rolled sum
    nodes, weights = leggauss(8)
    edges = np.linspace(0.0, 1.0, 65)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2.0
        mid = (lo + hi) / 2.0
        total += half * float(weights @ psi(mid + half * nodes))
    assert quad_gl(psi, 0.0, 1.0) == total
    assert _gauss_legendre() is _gauss_legendre()
    for array in _gauss_legendre():
        with pytest.raises(ValueError):
            array[0] = 0.5
    assert _gauss_legendre.cache_info().currsize == 1


def test_quadrature_rule_matches_an_independent_one():
    # the rule against scipy's, node for node and weight for weight
    for ours, theirs in zip(_gauss_legendre(), roots_legendre(8)):
        np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-14)


def test_package_runs_on_numpy_alone():
    # a fresh interpreter imports every submodule without loading the
    # process-pool machinery or numpy.polynomial (milliseconds of import
    # each), and integrates the density without loading scipy
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = """
import importlib, pkgutil, sys
import clgcd
for module in pkgutil.iter_modules(clgcd.__path__):
    if module.name != "__main__":       # __main__ runs the CLI
        importlib.import_module("clgcd." + module.name)
print(sorted(name for name in sys.modules if name.split(".")[0] in (
    "multiprocessing", "concurrent") or name.startswith("numpy.polynomial")))
from clgcd.dynamics import psi, quad_gl
print(float(quad_gl(psi, 0.0, 1.0)))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "1.0000000000000007", "[]"]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(dep.startswith("scipy")
               for dep in project["optional-dependencies"]["test"])


def test_transfer_default_grid_matches_a_fresh_grid():
    out = transfer_apply(psi, 1.0, 0.0)
    assert out.tobytes() == transfer_apply(
        psi, 1.0, 0.0, grid=CollocationGrid(64)).tobytes()


def test_birkhoff_deterministic_across_threads():
    a = birkhoff_estimates(bits=24, samples=300, seed=11)
    b = birkhoff_estimates(bits=24, samples=300, seed=11, threads=2)
    assert a.to_json_dict() == b.to_json_dict()
    c = birkhoff_estimates(bits=24, samples=300, seed=12)
    assert c.estimates() != a.estimates()


def _scalar_birkhoff(bits, samples, seed):
    # the report by its definition: the orbits of each chunk's seeded
    # pairs through the scalar step kernel, summed in orbit order, merged
    # over chunks
    lo, hi = 1 << (bits - 1), (1 << bits) - 1
    parts = []
    for index, count in chunk_counts(samples, dynamics._BIRKHOFF_CHUNK):
        rng = random.Random(derive_seed(seed, "birkhoff", index))
        sums = [0.0] * 4
        sumsq = [0.0] * 4
        for _ in range(count):
            # uniform on the coprime 1 <= p < q, lo <= q <= hi: x and y
            # below hi, p = min + 1 and q = max + 1, all drawn again on
            # x = y, q < lo or a common factor
            while True:
                x, y = rng.randrange(hi), rng.randrange(hi)
                p, q = min(x, y) + 1, max(x, y) + 1
                if x != y and q >= lo and gcd(p, q) == 1:
                    break
            exps, terminal = _exponent_run(p, q)
            k, s = len(exps), sum(exps)
            vt = dyadic_valuation(terminal)
            assert terminal == 1 << vt
            vals = (s / k, 2.0 * math.log(q) / k, 2.0 * (s - vt) * LN2 / k,
                    vt / k)
            for j, val in enumerate(vals):
                sums[j] += val
                sumsq[j] += val * val
        parts.append((sums, sumsq))
    keys = ("shift_rate", "entropy", "e2", "valuation_rate")
    means, ses = zip(*(
        moments(samples, math.fsum(p[0][j] for p in parts),
                math.fsum(p[1][j] for p in parts), 1.0)
        for j in range(4)
    ))
    return {"samples": samples, "bits": bits, "seed": seed,
            "estimates": dict(zip(keys, means)),
            "std_errors": dict(zip(keys, ses))}


# 2200 orbits at 256 bits span two groups of chunks; the reference draws
# with randrange, so 16, 63, 64 and 65 bits pin the replayed draw below
# and on either side of getrandbits' 32-bit word boundaries
@pytest.mark.parametrize("bits, samples", [
    (16, 300), (63, 300), (64, 300), (65, 300), (256, 2200), (1024, 150)])
def test_birkhoff_matches_scalar_reference(bits, samples):
    expect = _scalar_birkhoff(bits, samples, seed=21)
    for threads in (1, 2):
        rep = birkhoff_estimates(bits, samples, seed=21, threads=threads)
        assert rep.to_json_dict() == expect


def test_birkhoff_rejects_a_terminal_with_an_odd_factor(monkeypatch):
    # one pair of the group shares the factor 3, so its terminal is
    # 3 * 2^v; the check on the whole terminal column must catch it
    def one_shared_factor(*args):
        p, q = sample_pairs(*args)
        p[-1], q[-1] = 3 * p[-1], 3 * q[-1]
        return p, q

    monkeypatch.setattr(dynamics, "sample_pairs", one_shared_factor)
    with pytest.raises(ConsistencyError, match="odd factor"):
        birkhoff_estimates(bits=16, samples=300, seed=1)


def test_birkhoff_sanity():
    rep = birkhoff_estimates(bits=48, samples=256, seed=5)
    est = rep.estimates()
    # crude windows only; the tight comparisons live in the acceptance run
    assert 1.2 < est["shift_rate"] < 1.6
    assert 1.1 < est["entropy"] < 1.6
    assert 0.9 < est["e2"] < 1.5
    assert 0.3 < est["valuation_rate"] < 0.7
    assert set(rep.std_errors) == set(est)
    assert all(se > 0 for se in rep.std_errors.values())
    json.dumps(rep.to_json_dict())


def test_birkhoff_domain():
    with pytest.raises(DomainError):
        birkhoff_estimates(bits=8, samples=100, seed=0)
    with pytest.raises(DomainError):
        birkhoff_estimates(bits=32, samples=1, seed=0)
    for bits, samples in ((256.0, 100), (32, 100.0)):
        with pytest.raises(DomainError, match="must be an integer"):
            birkhoff_estimates(bits=bits, samples=samples, seed=0)
    with pytest.raises(DomainError, match="seed"):
        birkhoff_estimates(bits=32, samples=100, seed=1.0)
    # NumPy integers stand for their ints; 1 << (bits - 1) stays exact
    ref = birkhoff_estimates(bits=80, samples=64, seed=1).to_json_dict()
    for bits, samples, seed in ((np.int64(80), np.int64(64), 1),
                                (80, 64, np.int64(1)), (80, 64, True)):
        assert birkhoff_estimates(bits, samples, seed).to_json_dict() == ref
