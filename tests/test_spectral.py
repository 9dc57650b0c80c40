import math
import tracemalloc

import numpy as np
import pytest

from clgcd.constants import LN2, m_table
from clgcd.dynamics import psi, transfer_apply
from clgcd.errors import ConvergenceError, DomainError
from clgcd.spectral import (
    _GRIDS_KEPT,
    GRID_MAX,
    TAIL_TOL,
    CollocationGrid,
    TaylorEstimates,
    _branch_matrix,
    _clenshaw_curtis_weights,
    _shared_grid,
    build_matrix,
    dominant_eigen,
    solve_operator,
    taylor_estimates,
    truncation_depth,
)


def test_grid_nodes():
    grid = CollocationGrid(5)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 1.0
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[2] == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        CollocationGrid(1)


def test_grid_size_is_capped_before_allocating():
    # n = GRID_MAX + 1 would build a 4 MB temporary for its weights alone;
    # the refusal comes first
    assert CollocationGrid(GRID_MAX).n == GRID_MAX == 1024
    # a float n was a TypeError from NumPy, or 48's cached grid
    ref = solve_operator(1.0, 0.0, n=48)
    for call in (lambda: CollocationGrid(48.0),
                 lambda: solve_operator(1.0, 0.0, n=48.0),
                 lambda: taylor_estimates(n=48.0)):
        with pytest.raises(DomainError, match="n must be an integer"):
            call()
    res = solve_operator(1.0, 0.0, n=np.int64(48))
    assert res.to_json_dict() == ref.to_json_dict()
    assert np.array_equal(res.eigenfunction, ref.eigenfunction)
    assert taylor_estimates(n=np.int64(32)) == taylor_estimates(n=32)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="1025"):
            CollocationGrid(GRID_MAX + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_quadrature_weights_exact_on_polynomials():
    grid = CollocationGrid(8)
    for k in range(8):
        val = grid.integrate(grid.nodes ** k)
        assert val == pytest.approx(1.0 / (k + 1), abs=1e-14)


def _looped_weights(n):
    """Clenshaw-Curtis weights on [-1, 1], one cosine term at a time."""
    N = n - 1
    inner = np.arange(1, N) * (math.pi / N)
    v = np.ones(N - 1)
    for k in range(1, N // 2 + 1):
        c = 1.0 if 2 * k == N else 2.0
        v -= c * np.cos(2.0 * k * inner) / (4.0 * k * k - 1)
    end = 1.0 / (N * N - 1) if N % 2 == 0 else 1.0 / (N * N)
    return np.concatenate(([end], 2.0 * v / N, [end]))


def test_quadrature_weights_match_the_cosine_loop():
    for n in range(2, 70):
        diff = _clenshaw_curtis_weights(n) - _looped_weights(n)
        assert np.max(np.abs(diff)) < 1e-15, n


def test_lagrange_matrix_at_nodes_is_identity():
    grid = CollocationGrid(9)
    assert np.array_equal(grid.lagrange_matrix(grid.nodes), np.eye(9))


def test_lagrange_matrix_next_to_a_node_is_a_unit_row():
    # the barycentric ratio overflows at subnormal distances from node 0
    grid = CollocationGrid(16)
    rows = grid.lagrange_matrix([5e-324, 1e-320, 0.0])
    assert np.array_equal(rows, np.eye(16)[[0, 0, 0]])


def test_interpolation_exact_on_polynomials():
    grid = CollocationGrid(12)
    f = lambda x: x ** 5 - 3.0 * x ** 2 + 1.0
    pts = np.linspace(0.013, 0.987, 40)
    err = np.abs(grid.interpolate(f(grid.nodes), pts) - f(pts))
    assert np.max(err) < 1e-11


def test_interpolation_rejects_wrong_length():
    grid = CollocationGrid(8)
    with pytest.raises(DomainError):
        grid.interpolate(np.ones(7), [0.5])


def test_truncation_depth():
    assert truncation_depth(1.0, 0.0, 1e8) > truncation_depth(1.0, 0.0)
    assert truncation_depth(1.0, 0.0) > truncation_depth(1.0, 0.0, 1e-8)
    with pytest.raises(DomainError):
        truncation_depth(0.5, 0.5)
    # a NaN gap passes a t - v <= 0 test, and at t - v = 1e-20 the ratio
    # 2^(v-t) rounds to 1
    for t, v in ((math.nan, 0.0), (1.0, math.nan), (1e-20, 0.0)):
        with pytest.raises(DomainError):
            truncation_depth(t, v)
        with pytest.raises(DomainError):
            transfer_apply(psi, t, v)


def _looped_branch_sums(t, v, grid, a_max):
    """Both branch sums, one cardinal matrix per branch a = 0 .. a_max."""
    m = np.zeros((grid.n, grid.n))
    m_a = np.zeros((grid.n, grid.n))
    for a in range(a_max + 1):
        term = 2.0 ** (a * (v - t)) * grid.lagrange_matrix(
            0.5 ** a / (1.0 + grid.nodes))
        m += term
        m_a += a * term
    rows = ((1.0 + grid.nodes) ** (-2.0 * t))[:, None]
    return rows * m, rows * m_a


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("t,v", [(1.0, 0.0), (0.6, 0.34), (1.4, -0.4)])
def test_branch_sum_closed_form_matches_the_loop(t, v, n):
    # every bit pattern of A + 1 up to 7 bits, and the solvers' depth
    grid = CollocationGrid(n)
    for a_max in (*range(71), truncation_depth(t, v)):
        m, m_a = _branch_matrix(t, v, grid, a_max, weighted=True)
        loop_m, loop_m_a = _looped_branch_sums(t, v, grid, a_max)
        assert np.max(np.abs(m - loop_m)) < 1e-13, a_max
        assert np.max(np.abs(m_a - loop_m_a)) < 1e-13, a_max
        assert np.array_equal(_branch_matrix(t, v, grid, a_max), m)


@pytest.mark.parametrize("n", [16, 64])
def test_transfer_with_a_thousand_branches_matches_the_loop(n):
    # t - v = 0.05 is outside the admissible box; the series ratio is 0.966
    t, v = 1.0, 0.95
    grid = CollocationGrid(n)
    a_max = truncation_depth(t, v)
    assert a_max > 1000
    out = transfer_apply(np.ones(n), t, v, grid=grid)
    loop_m, loop_m_a = _looped_branch_sums(t, v, grid, a_max)
    assert np.max(np.abs(out - loop_m @ np.ones(n))) < 1e-13
    m, m_a = _branch_matrix(t, v, grid, a_max, weighted=True)
    assert np.max(np.abs(m - loop_m)) < 1e-13
    # M_a's entries reach about 800 here, where one ulp is 1.1e-13, so its
    # bound is taken relative to its largest entry
    scale = np.max(np.abs(loop_m_a))
    assert np.max(np.abs(m_a - loop_m_a)) < 1e-13 * scale


def test_operator_paths_run_without_a_linear_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    assert abs(solve_operator(1.0, 0.0, n=16).eigenvalue - 1.0) < 1e-9
    assert taylor_estimates(n=16).grid_size == 16
    assert transfer_apply(psi, 1.0, 0.0).shape == (64,)


def _reference_branch_matrix(t, v, grid, a_max):
    """Both branch sums by the doubling over the bits of A + 1, with ``@``
    and every product taken."""
    halving, branch0 = grid._cardinals
    g = 2.0 ** (v - t) * halving
    k, s, p, t_sum = 1, np.eye(grid.n), g, np.zeros((grid.n, grid.n))
    for bit in bin(a_max + 1)[3:]:
        t_sum = t_sum + p @ (t_sum + k * s)
        s = s + s @ p
        p = p @ p
        k *= 2
        if bit == "1":
            t_sum = t_sum + k * p
            s = s + p
            p = p @ g
            k += 1
    rows = ((1.0 + grid.nodes) ** (-2.0 * t))[:, None]
    return rows * (branch0 @ s), rows * (branch0 @ t_sum)


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("t,v", [(1.0, 0.0), (0.7, -0.3), (1.3, 0.35)])
def test_branch_matrix_matches_the_matmul_reference(t, v, n):
    grid = _shared_grid(n)
    for a_max in (*range(16), truncation_depth(t, v)):
        ref_m, ref_m_a = _reference_branch_matrix(t, v, grid, a_max)
        m, m_a = _branch_matrix(t, v, grid, a_max, weighted=True)
        assert m.tobytes() == ref_m.tobytes(), a_max
        assert m_a.tobytes() == ref_m_a.tobytes(), a_max
        assert _branch_matrix(t, v, grid, a_max).tobytes() == ref_m.tobytes()


def test_parameter_box():
    grid = CollocationGrid(8)
    for t, v in ((0.5, 0.0), (1.5, 0.0), (1.0, 0.45), (0.6, 0.4)):
        with pytest.raises(DomainError):
            build_matrix(t, v, grid)


def test_density_transformer_eigenpair():
    res = solve_operator(1.0, 0.0, n=32)
    assert abs(res.eigenvalue - 1.0) < 1e-9
    grid = CollocationGrid(32)
    assert np.max(np.abs(res.eigenfunction - psi(grid.nodes))) < 1e-6
    assert res.residual < 1e-10
    assert res.iterations > 0
    assert abs(grid.integrate(res.eigenfunction) - 1.0) < 1e-12


def test_eigenvalue_monotone_in_parameters():
    # lambda decreases in t and increases in v (slopes -E+D < 0, D > 0)
    assert solve_operator(0.8, 0.0, n=32).eigenvalue > 1.0
    assert solve_operator(1.2, 0.0, n=32).eigenvalue < 1.0
    assert solve_operator(1.0, 0.1, n=32).eigenvalue > 1.0
    assert solve_operator(1.0, -0.1, n=32).eigenvalue < 1.0


def test_grid_refinement_spot_check():
    lam32 = solve_operator(1.1, 0.1, n=32).eigenvalue
    lam64 = solve_operator(1.1, 0.1, n=64).eigenvalue
    assert abs(lam32 - lam64) < 1e-9


def test_result_json_shape():
    res = solve_operator(1.0, 0.0, n=16)
    d = res.to_json_dict()
    assert "eigenfunction" not in d
    d = res.to_json_dict(include_eigenfunction=True)
    assert len(d["eigenfunction"]) == 16


def test_power_iteration_failure_modes():
    grid = CollocationGrid(2)
    with pytest.raises(ConvergenceError):
        dominant_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]), grid)
    # the Rayleigh quotient of this matrix alternates between 1 and 0.2
    with pytest.raises(ConvergenceError) as exc_info:
        dominant_eigen(np.array([[1.0, 2.0], [0.0, -1.0]]), grid)
    assert exc_info.value.result[0] == pytest.approx(0.2)


def _fresh_grid(n):
    """A grid outside the cache, its cardinal matrices built here."""
    grid = CollocationGrid(n)
    assert grid is not _shared_grid(n)
    grid._cardinals = (grid.lagrange_matrix(grid.nodes / 2.0),
                       grid.lagrange_matrix(1.0 / (1.0 + grid.nodes)))
    return grid


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("t,v", [(1.0, 0.0), (0.7, -0.3), (1.3, 0.35)])
def test_solve_on_the_shared_grid_matches_a_fresh_grid(t, v, n):
    grid = _fresh_grid(n)
    a_max = truncation_depth(t, v)
    ref = dominant_eigen(build_matrix(t, v, grid), grid)
    for _ in range(2):      # the second solve reuses the shared grid's work
        res = solve_operator(t, v, n=n)
        assert res.eigenvalue == ref.eigenvalue
        assert res.eigenfunction.tobytes() == ref.eigenfunction.tobytes()
        assert res.residual == ref.residual
        assert res.iterations == ref.iterations
        assert res.a_max == a_max
        assert res.tail_tol == 1e-14
    shared = _shared_grid(n)
    for name in ("nodes", "bary_weights", "quad_weights"):
        assert getattr(shared, name).tobytes() == getattr(grid, name).tobytes()
    for mine, theirs in zip(shared._cardinals, grid._cardinals):
        assert mine.tobytes() == theirs.tobytes()


def _norm_power_iteration(matrix, tol=1e-12):
    """Reference power iteration, normalising with np.linalg.norm."""
    vec = np.ones(matrix.shape[0])
    vec /= np.linalg.norm(vec)
    lam_prev = math.inf
    for it in range(1, 10_001):
        w = matrix @ vec
        lam = float(vec @ w) / float(vec @ vec)
        vec = w / np.linalg.norm(w)
        if abs(lam - lam_prev) < tol:
            return lam, vec, it
        lam_prev = lam
    raise AssertionError("reference loop did not converge")


def test_power_iteration_matches_the_norm_loop():
    rng = np.random.default_rng(5)
    for n in (16, 33, 64):
        grid = CollocationGrid(n)
        m = build_matrix(1.2, -0.1, grid)
        for matrix in (m, m.T, rng.random((n, n)) + np.eye(n)):
            res = dominant_eigen(matrix, grid)
            lam, vec, it = _norm_power_iteration(matrix)
            if vec.sum() < 0:
                vec = -vec
            assert res.eigenvalue == lam
            assert res.iterations == it
            assert res.eigenfunction.tobytes() == (
                vec / grid.integrate(vec)).tobytes()


def test_shared_grid_work_is_read_only():
    grid = _shared_grid(24)
    solve_operator(1.0, 0.0, n=24)
    assert "_cardinals" in vars(grid)     # the solve built them on this grid
    for array in (grid.nodes, grid.bary_weights, grid.quad_weights,
                  *grid._cardinals):
        with pytest.raises(ValueError):
            array[0] = 0.5


def test_shared_grid_cache_stays_bounded():
    for n in range(4, 4 + 3 * _GRIDS_KEPT):
        assert solve_operator(1.0, 0.0, n=n).grid_size == n
    info = _shared_grid.cache_info()
    assert info.maxsize == _GRIDS_KEPT
    assert info.currsize == _GRIDS_KEPT


def test_taylor_slopes_match_closed_forms():
    table = m_table()
    est = taylor_estimates(n=32)
    assert est.entropy_slope == pytest.approx(table.A, abs=1e-11)
    assert est.shift_slope == pytest.approx(table.D, abs=1e-11)
    assert est.a_max == truncation_depth(1.0, 0.0)
    assert est.residual < 1e-10
    assert all(0 < it < 100 for it in est.iterations)
    d = est.to_json_dict()
    assert d["A_estimate"] == est.entropy_slope
    assert d["grid_size"] == 32
    assert d["residual"] == est.residual


def _reference_eigenpair(matrix, grid):
    """Eigenvalue, unit-integral eigenfunction, residual and iteration count
    by the norm loop and ``@``."""
    lam, vec, it = _norm_power_iteration(matrix)
    if vec.sum() < 0:
        vec = -vec
    phi = vec / float(grid.quad_weights @ vec)
    return lam, phi, float(np.max(np.abs(matrix @ phi - lam * phi))), it


@pytest.mark.parametrize("n", [32, 48])
def test_taylor_estimates_match_the_matmul_reference(n):
    grid = _shared_grid(n)
    a_max = truncation_depth(1.0, 0.0)
    m, m_a = _reference_branch_matrix(1.0, 0.0, grid, a_max)
    lam, phi, res_right, it_right = _reference_eigenpair(m, grid)
    _, ell, res_left, it_left = _reference_eigenpair(m.T, grid)
    norm = float(ell @ phi)
    shift = LN2 * float(ell @ (m_a @ phi)) / norm
    entropy = shift + 2.0 * lam * float(
        ell @ (np.log1p(grid.nodes) * phi)) / norm
    assert taylor_estimates(n=n) == TaylorEstimates(
        entropy_slope=entropy, shift_slope=shift, grid_size=n, a_max=a_max,
        residual=max(res_right, res_left), iterations=(it_right, it_left))


def test_truncation_depth_takes_the_bound_in_logs():
    # sup|f| / room overflowed to inf near the float maximum, so 1e300
    # had no depth while 1e290 had one
    grid = CollocationGrid(16)
    for sup in (1e290, 1e300, 1.7e308):
        depth = truncation_depth(1.0, 0.0, sup)
        # room = TAIL_TOL (1 - 2^-1) at t - v = 1
        assert depth == math.ceil(math.log2(sup) - math.log2(TAIL_TOL / 2)) + 8
    image = transfer_apply(np.full(16, 1e300), 1.0, 0.0, grid=grid)
    assert np.isfinite(image).all()
    assert truncation_depth(1.0, 0.0) == 56
