"""Acceptance battery: one named test per criterion, run with -v for the
per-criterion pass/fail lines.

Statistical gates were calibrated once at the recorded seeds and sample
counts (the measured values sit in comments next to each gate, all of them
3x-50x inside the stated ceilings).  Every random quantity is seeded and
thread-count independent, so a rerun reproduces the quoted numbers bit for
bit.  The slope fixture draws two sampled ensembles of 10^6 pairs, about
3 s single-threaded on a 2-core box; the c01 oracle (about 12 s) is the
long pole.
"""
import math
import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from clgcd.algorithm import cf_eval, cl_run, continuants, cost_vector
from clgcd.constants import m_table
from clgcd.dyadic import dyadic_valuation
from clgcd.dynamics import birkhoff_estimates, psi, quad_gl, transfer_apply
from clgcd.experiments import (DEFAULT_SEED, check_worstcase_bounds,
                               conjecture_check, dirichlet_check,
                               slope_estimate, worstcase_scan)
from clgcd.parallel import derive_seed
from clgcd.spectral import CollocationGrid, solve_operator, taylor_estimates

TABLE = m_table()


@pytest.fixture(scope="module")
def slope_run():
    # criterion 7 scale: ladder 10^6/16 -> 10^6, 10^6 pairs per rung
    t0 = time.monotonic()
    report = slope_estimate(1_000_000, sample_count=1_000_000,
                            seed=DEFAULT_SEED)
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def birkhoff_run():
    return birkhoff_estimates(256, 10_000,
                              seed=derive_seed(DEFAULT_SEED, "conjecture", 0))


def test_c01_correctness_oracle():
    """Every coprime pair 0 < p < q <= 2000: odd gcd 1, expansion exact."""
    t0 = time.monotonic()
    checked = 0
    for q in range(2, 2001):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            run = cl_run(p, q)
            assert run.odd_gcd == 1
            assert cf_eval(run.exponents) == Fraction(p, q)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 1_216_587
    assert elapsed < 60.0                      # measured ~12 s, 2 cores
    print(f"\nACCEPTANCE 1: PASS — {checked} coprime pairs <= 2000, "
          f"odd gcd 1 and exact re-evaluation, {elapsed:.1f} s")


def test_c02_reference_trace():
    """The (31, 75) run table, every numeric column exact."""
    run = cl_run(31, 75)
    expected = (
        (0, None, 75, 31, 0, 0, 0),
        (1, 1, 62, 13, 1, 0, 0),
        (2, 2, 52, 10, 2, 1, 1),
        (3, 2, 40, 12, 3, 2, 2),
        (4, 1, 24, 16, 3, 4, 3),
        (5, 0, 16, 8, 4, 3, 3),
        (6, 0, 8, 8, 3, 3, 3),
        (7, 0, 8, 0, 3, math.inf, 3),
    )
    rows = run.table_rows()
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        got = (row.index, row.exponent, row.shifted, row.remainder,
               row.val_shifted, row.val_remainder, row.val_gcd)
        assert got == want
    assert run.exponents == (1, 2, 2, 1, 0, 0, 0)
    assert (run.steps, run.shifts) == (7, 6)
    assert run.terminal == (0, 8)
    assert run.odd_gcd == 1
    print("\nACCEPTANCE 2: PASS — trace(31, 75) matches the reference "
          "table in all columns")


def test_c03_worstcase_bounds_and_family():
    """Hard step/shift bounds, plus the extremal family pinned exactly.

    The bounds K <= 2 lg q + 2 and S <= (2 lg q + 2) lg q are asserted
    inside every experiment pipeline (check_worstcase_bounds in the stats
    chunk); here they are re-checked directly on a dense sweep and on the
    family scan, and the family rows are pinned to the closed forms this
    implementation derives for its own conventions.
    """
    for q in range(2, 401):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            for convention in ("greedy", "canonical"):
                run = cl_run(p, q, convention=convention)
                check_worstcase_bounds(p, q, run.steps, run.shifts)

    scan = worstcase_scan(64)
    for n, k_greedy, s_greedy, k_canon, s_canon in scan.rows:
        assert k_greedy == 2 * n - 2
        assert s_greedy == n * (n - 1) // 2 + 1
        assert k_canon == 2 * n - 1
        assert s_canon == n * (n - 1) // 2
        # the stated bounds, in integer form, on the extremal inputs
        assert max(k_greedy, k_canon) <= 2 * n + 2
        assert max(s_greedy, s_canon) <= (2 * n + 2) * n
    for conv in ("greedy", "canonical"):
        fit = scan.fits[conv]
        assert fit["alpha"] == pytest.approx(2.0, abs=1e-9)
        assert fit["gamma"] == pytest.approx(0.5, abs=1e-9)
    print("\nACCEPTANCE 3: PASS — bounds hold on 49k-pair sweep; family "
          "(1, 2^n - 1) exact to n = 64 with fits K ~ 2n, S ~ n^2/2")


def test_c04_closed_form_constants():
    """The six quoted constants, each within 1e-4 of the closed forms."""
    quoted = {
        "E": (TABLE.E, 2.60045),
        "D": (TABLE.D, 0.97693),
        "A": (TABLE.A, 1.62352),
        "H_conj": (TABLE.H_conj, 1.33973),
        "2/H": (TABLE.two_over_H, 1.49283),
        "B+D": (TABLE.B_conj + TABLE.D, 1.26071),
    }
    for name, (value, target) in quoted.items():
        assert value == pytest.approx(target, abs=1e-4), name
    print("\nACCEPTANCE 4: PASS — E, D, A, H, 2/H, B+D all within 1e-4 "
          "of the quoted values")


def test_c05_spectral():
    """Eigenvalue 1 at the fixed point, eigenfunction psi, derivatives
    A and D, and grid-doubling stability on a 5 x 5 parameter lattice."""
    t0 = time.monotonic()

    pair = solve_operator(t=1.0, v=0.0, n=48)
    assert pair.eigenvalue == pytest.approx(1.0, abs=1e-8)   # measured 1.6e-13

    grid = CollocationGrid(48)
    sup = float(np.max(np.abs(pair.eigenfunction - psi(grid.nodes))))
    assert sup < 1e-6                                        # measured 1.3e-13

    est = taylor_estimates(n=48)
    assert est.entropy_slope == pytest.approx(TABLE.A, abs=1e-3)  # 8e-14
    assert est.shift_slope == pytest.approx(TABLE.D, abs=1e-3)    # 5e-14

    worst = 0.0
    for t in np.linspace(0.8, 1.2, 5):
        for v in np.linspace(-0.2, 0.2, 5):
            lam32 = solve_operator(t=float(t), v=float(v), n=32).eigenvalue
            lam64 = solve_operator(t=float(t), v=float(v), n=64).eigenvalue
            worst = max(worst, abs(lam32 - lam64))
    assert worst < 1e-9                                      # measured 5e-15

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 5: PASS — lambda(1,0) = 1, eigenfunction = psi "
          f"(sup {sup:.1e}), derivatives A and D, doubling stable "
          f"({worst:.1e}), {elapsed:.2f} s")


def test_c06_invariant_density():
    """psi is fixed by the density transformer and integrates to 1."""
    grid = CollocationGrid(64)
    image = transfer_apply(psi, t=1.0, v=0.0, grid=grid)
    residual = float(np.max(np.abs(image - psi(grid.nodes))))
    assert residual < 1e-8                                   # measured 1.1e-15

    mass = quad_gl(psi, 0.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-10)             # measured 7e-16
    print(f"\nACCEPTANCE 6: PASS — fixed-point residual {residual:.1e}, "
          f"integral 1 within {abs(mass - 1.0):.1e}")


def test_c07_average_case_laws(slope_run):
    """Growth laws at N = 10^6 from the factor-16 slope ladder.

    The S law is read as a growth-rate statement: slope(S)/slope(K)
    against D/log 2.  The raw mean(S)/mean(K) still carries its O(1)
    intercepts at N = 10^6 (it sits near 1.23, drifting up by ~0.18/ln 16
    per ladder rung) and is printed for the record rather than gated.

    Calibrated at seed 0x5EED, 10^6 pairs per rung: slope(K) +0.07% of
    target, S ratio +0.07%, sigma ratio +0.07%, q ratio +0.06%.
    """
    report, elapsed = slope_run
    targets = report.targets

    dev_k = report.slopes["K"] / targets["K"] - 1.0
    assert abs(dev_k) < 0.03          # slope(K) = 1.4928 within 3%
    dev_s = report.ratios["S"] / targets["S"] - 1.0
    assert abs(dev_s) < 0.02          # S law, 1.40942 within 2%
    dev_sigma = report.ratios["sigma"] / targets["sigma"] - 1.0
    assert abs(dev_sigma) < 0.05      # sigma ratio, 0.97693 within 5%
    dev_q = report.ratios["q"] / targets["q"] - 1.0
    assert abs(dev_q) < 0.05          # q ratio, 2.60045 within 5%
    assert elapsed < 600.0            # measured ~3 s, 2 cores

    _lo, hi = report.rungs
    raw = hi.means["S"] / hi.means["K"]
    print(f"\nACCEPTANCE 7: PASS — slope(K) {report.slopes['K']:.4f} "
          f"({dev_k:+.2%}), S ratio {report.ratios['S']:.4f} "
          f"({dev_s:+.2%}), sigma ratio {report.ratios['sigma']:.4f} "
          f"({dev_sigma:+.2%}), q ratio {report.ratios['q']:.4f} "
          f"({dev_q:+.2%}), {elapsed:.0f} s "
          f"[raw mean(S)/mean(K) at N=10^6: {raw:.4f}]")


def test_c08_conjecture_two_routes(slope_run, birkhoff_run):
    """Trajectory and ensemble estimates of B + D agree.

    The trajectory route carries a finite-size systematic of about
    -2.5/mean(K) from the non-equilibrium first and last steps (measured
    across 64..512-bit inputs); it enters the combined error, and the
    two routes must sit within 3 combined standard errors.

    Calibrated at 256-bit x 10^4 orbits against the 10^6-pair ladder:
    e2 -0.82% of target, rho ratio +0.21%, z = -1.33.
    """
    slope_report, _ = slope_run
    rep = conjecture_check(birkhoff=birkhoff_run, slope=slope_report)

    dev_e2 = rep.e2_estimate / rep.target - 1.0
    dev_ratio = rep.ratio_estimate / rep.target - 1.0
    assert abs(dev_e2) < 0.05
    assert abs(dev_ratio) < 0.05
    assert abs(rep.z_score) <= 3.0
    print(f"\nACCEPTANCE 8: PASS — e2 {rep.e2_estimate:.4f} "
          f"({dev_e2:+.2%}), slope ratio {rep.ratio_estimate:.4f} "
          f"({dev_ratio:+.2%}), z = {rep.z_score:+.2f}")


def test_c09_dirichlet_identity():
    """Partial sums of the pair series at s = 2 against zeta(3)/zeta(4)."""
    rep = dirichlet_check(s=2.0, N=10_000)
    assert rep.zeta_ratio == pytest.approx(1.110626, abs=1e-5)
    assert abs(rep.deviation) < 1e-4                         # measured 3e-9
    print(f"\nACCEPTANCE 9: PASS — partial sum {rep.partial_sum:.10f} vs "
          f"zeta(3)/zeta(4) = {rep.zeta_ratio:.10f} "
          f"(deviation {rep.deviation:.1e})")


def test_c10_identity_suite():
    """Direct and identity-based cost computations agree exactly on 10^4
    random digit strings (cost_vector dual-routes internally and raises
    on any mismatch; the continuant ties are re-asserted here)."""
    rng = random.Random(0xC10)
    for _ in range(10_000):
        digits = tuple(rng.randrange(0, 7)
                       for _ in range(rng.randrange(1, 25)))
        cost = cost_vector(digits)
        cp = continuants(digits)
        assert cost.Q == cp.Q
        assert cost.R == cp.R
        assert cost.g_exp == dyadic_valuation(cp.g)
        assert cost.q_exp == dyadic_valuation(cp.Q)
        assert cost.q_exp - cost.g_exp == dyadic_valuation(cp.R)
        assert cost.steps == len(digits)
        assert cost.shifts == sum(digits)
        assert cf_eval(digits) == Fraction(cp.P, cp.Q)
    print("\nACCEPTANCE 10: PASS — exact identity suite on 10^4 random "
          "exponent sequences")
