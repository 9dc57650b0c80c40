"""Collocation numerics for the weighted transfer operator

    H[f](x) = (1+x)^(-2t) * sum_{a >= 0} 2^(a(v-t)) f(2^-a / (1+x))

on [0, 1].  The operator is discretized on a Chebyshev-Lobatto grid with
Lagrange cardinal interpolation; the branch sum is truncated once its
geometric tail is provably below a tolerance.  At (t, v) = (1, 0) this is the
density transformer of the shift-and-subtract map, with dominant eigenvalue 1
and eigenfunction 1 / (log(4/3) (x+1)(x+2)); the first partial derivatives of
the dominant eigenvalue at that point are the entropy-related constants that
the ``constants`` module computes in closed form.

Matrix assembly is vectorized over rows; everything is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

#: admissible parameter box around (1, 0); the branch sum converges for
#: t - v > 0 but estimates degrade near the boundary, so a margin is enforced
T_RANGE = (0.6, 1.4)
V_RANGE = (-0.4, 0.4)
MIN_GAP = 0.2


class CollocationGrid:
    """Chebyshev-Lobatto nodes on [0, 1] with barycentric interpolation.

    nodes are ascending, include both endpoints.  ``quad_weights`` are the
    Clenshaw-Curtis weights for the same nodes (they integrate polynomials of
    degree n-1 exactly and analytic functions to spectral accuracy).
    """

    def __init__(self, n: int):
        if n < 2:
            raise DomainError(f"grid needs at least 2 nodes, got {n}")
        self.n = n
        N = n - 1
        theta = np.arange(n) * (math.pi / N)
        self.nodes = (1.0 - np.cos(theta)) / 2.0
        # classic barycentric weights for Chebyshev-Lobatto points
        w = np.ones(n)
        w[0] = w[-1] = 0.5
        w *= (-1.0) ** np.arange(n)
        self.bary_weights = w
        self.quad_weights = _clenshaw_curtis_weights(n) / 2.0  # [-1,1] -> [0,1]

    def lagrange_matrix(self, pts) -> np.ndarray:
        """Matrix L with L[i, l] = l-th cardinal function at pts[i].

        Rows at points that coincide with a node are exact unit vectors.
        """
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        diff = pts[:, None] - self.nodes[None, :]
        hit = diff == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = self.bary_weights[None, :] / diff
            L = ratios / ratios.sum(axis=1, keepdims=True)
        rows_hit = hit.any(axis=1)
        if rows_hit.any():
            L[rows_hit] = hit[rows_hit].astype(float)
        return L

    def interpolate(self, samples, pts):
        """Barycentric evaluation of the interpolant of ``samples`` at ``pts``."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (self.n,):
            raise DomainError(f"expected {self.n} samples, got {samples.shape}")
        return self.lagrange_matrix(pts) @ samples

    def integrate(self, samples) -> float:
        return float(self.quad_weights @ np.asarray(samples, dtype=float))


def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights for n Chebyshev-Lobatto points on [-1, 1]."""
    N = n - 1
    if N == 1:
        return np.array([1.0, 1.0])
    theta = np.arange(n) * (math.pi / N)
    w = np.zeros(n)
    inner = theta[1:-1]
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[-1] = 1.0 / (N * N - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2.0 * k * inner) / (4.0 * k * k - 1)
        v -= np.cos(N * inner) / (N * N - 1)
    else:
        w[0] = w[-1] = 1.0 / (N * N)
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * inner) / (4.0 * k * k - 1)
    w[1:-1] = 2.0 * v / N
    return w


def _check_params(t: float, v: float):
    if not (T_RANGE[0] <= t <= T_RANGE[1] and V_RANGE[0] <= v <= V_RANGE[1]):
        raise DomainError(f"(t, v) = ({t}, {v}) outside admissible box")
    if t - v <= MIN_GAP:
        raise DomainError(f"need t - v > {MIN_GAP}, got {t - v}")


def truncation_depth(t: float, v: float, tail_tol: float, sup_f: float = 1.0) -> int:
    """Smallest branch count whose geometric tail is below tail_tol.

    Bound: sup|f| * 2^((A+1)(v-t)) / (1 - 2^(v-t)) < tail_tol, with an extra
    margin of 8 branches to cover the sup of the cardinal functions when the
    bound is applied columnwise during matrix assembly.
    """
    if tail_tol <= 0:
        raise DomainError("tail_tol must be positive")
    if t - v <= 0:
        raise DomainError("branch sum diverges for t - v <= 0")
    ratio = 2.0 ** (v - t)
    need = math.log2(max(sup_f, 1e-300) / (tail_tol * (1.0 - ratio))) / (t - v)
    return max(0, math.ceil(need)) + 8


def _branch_matrix(t: float, v: float, grid: CollocationGrid,
                   a_max: int) -> np.ndarray:
    """The branch sum over a = 0 .. a_max as a matrix on ``grid``."""
    x = grid.nodes
    m = np.zeros((grid.n, grid.n))
    for a in range(a_max + 1):
        pts = (0.5 ** a) / (1.0 + x)
        m += (2.0 ** (a * (v - t))) * grid.lagrange_matrix(pts)
    m *= ((1.0 + x) ** (-2.0 * t))[:, None]
    return m


def build_matrix(t: float, v: float, grid: CollocationGrid,
                 tail_tol: float = 1e-14) -> np.ndarray:
    """Dense collocation matrix of the operator at (t, v) on ``grid``."""
    _check_params(t, v)
    return _branch_matrix(t, v, grid, truncation_depth(t, v, tail_tol))


@dataclass
class SpectralResult:
    t: float
    v: float
    grid_size: int
    a_max: int
    eigenvalue: float
    eigenfunction: np.ndarray   # samples at grid nodes, unit integral
    residual: float             # sup |M phi - lambda phi|
    iterations: int

    def to_json_dict(self, include_eigenfunction: bool = False) -> dict:
        d = {
            "t": self.t,
            "v": self.v,
            "grid_size": self.grid_size,
            "a_max": self.a_max,
            "eigenvalue": self.eigenvalue,
            "residual": self.residual,
            "iterations": self.iterations,
        }
        if include_eigenfunction:
            d["eigenfunction"] = self.eigenfunction.tolist()
        return d


def dominant_eigen(matrix: np.ndarray, grid: CollocationGrid,
                   t: float = math.nan, v: float = math.nan, a_max: int = -1,
                   tol: float = 1e-12, max_iter: int = 10_000) -> SpectralResult:
    """Dominant eigenpair by power iteration with Rayleigh quotient estimates.

    Converged when successive eigenvalue estimates differ by less than
    ``tol``.  The eigenfunction is normalized to unit integral against the
    grid quadrature and is strictly positive for parameters near (1, 0).
    """
    n = matrix.shape[0]
    vec = np.ones(n)
    vec /= np.linalg.norm(vec)
    lam_prev = math.inf
    lam = math.nan
    for it in range(1, max_iter + 1):
        w = matrix @ vec
        lam = float(vec @ w) / float(vec @ vec)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            raise ConvergenceError("operator annihilated the iterate")
        vec = w / nrm
        if abs(lam - lam_prev) < tol:
            break
        lam_prev = lam
    else:
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} iterations",
            result=(lam, vec),
        )
    if vec.sum() < 0:
        vec = -vec
    mass = grid.integrate(vec)
    phi = vec / mass
    residual = float(np.max(np.abs(matrix @ phi - lam * phi)))
    return SpectralResult(
        t=t, v=v, grid_size=n, a_max=a_max,
        eigenvalue=lam, eigenfunction=phi,
        residual=residual, iterations=it,
    )


def solve_operator(t: float, v: float, n: int = 48,
                   tail_tol: float = 1e-14) -> SpectralResult:
    """Assemble the matrix at (t, v) and return its dominant eigenpair."""
    grid = CollocationGrid(n)
    matrix = build_matrix(t, v, grid, tail_tol)
    return dominant_eigen(
        matrix, grid, t=t, v=v, a_max=truncation_depth(t, v, tail_tol)
    )


@dataclass
class TaylorEstimates:
    """Finite-difference first derivatives of the dominant eigenvalue at (1, 0).

    ``entropy_slope`` estimates -d(lambda)/dt, ``shift_slope`` estimates
    d(lambda)/dv.  Central differences at steps h and h/2 combined by one
    Richardson extrapolation step; ``richardson_order`` is the resulting
    order of accuracy.
    """

    entropy_slope: float   # approximates the constant A
    shift_slope: float     # approximates the constant D
    fd_step: float
    richardson_order: int
    grid_size: int

    def to_json_dict(self) -> dict:
        return {
            "A_estimate": self.entropy_slope,
            "D_estimate": self.shift_slope,
            "fd_step": self.fd_step,
            "richardson_order": self.richardson_order,
            "grid_size": self.grid_size,
        }


def taylor_estimates(n: int = 48, fd_step: float = 1e-2,
                     tail_tol: float = 1e-14) -> TaylorEstimates:
    if not (1e-4 <= fd_step <= 1e-2):
        raise DomainError(f"fd_step must lie in [1e-4, 1e-2], got {fd_step}")

    def lam(t, v):
        return solve_operator(t, v, n=n, tail_tol=tail_tol).eigenvalue

    def central(h, direction):
        if direction == "t":
            return (lam(1.0 + h, 0.0) - lam(1.0 - h, 0.0)) / (2.0 * h)
        return (lam(1.0, h) - lam(1.0, -h)) / (2.0 * h)

    def richardson(direction):
        d1 = central(fd_step, direction)
        d2 = central(fd_step / 2.0, direction)
        return (4.0 * d2 - d1) / 3.0

    return TaylorEstimates(
        entropy_slope=-richardson("t"),
        shift_slope=richardson("v"),
        fd_step=fd_step,
        richardson_order=4,
        grid_size=n,
    )
