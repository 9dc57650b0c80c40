"""Collocation numerics for the weighted transfer operator

    H[f](x) = (1+x)^(-2t) * sum_{a >= 0} 2^(a(v-t)) f(2^-a / (1+x))

on [0, 1].  The operator is discretized on a Chebyshev-Lobatto grid with
Lagrange cardinal interpolation; the branch sum is truncated once its
geometric tail is provably below ``TAIL_TOL``.  The branches are dyadic, so
the truncated sum is a matrix geometric series L_0 (I + G + ... + G^A), G
being 2^(v-t) times the cardinal matrix of x -> x/2; this is exact because
the interpolant reproduces polynomials of degree < n (Berrut-Trefethen, SIAM
Review 2004).  At (t, v) = (1, 0) the operator is the density transformer
of the shift-and-subtract map, with dominant eigenvalue 1
and eigenfunction 1 / (log(4/3) (x+1)(x+2)); the first partial derivatives of
the dominant eigenvalue at that point are the entropy-related constants that
the ``constants`` module computes in closed form.  ``taylor_estimates`` gets
them by first-order eigenvalue perturbation, d(lambda) = l^T (dM) phi / l^T phi
with l and phi the left and right dominant eigenvectors of the collocation
matrix M, to about 1e-13 of the closed forms.

Assembling a matrix takes 2 to 3 log2(A) matrix products and no linear
solve, whatever the truncation depth A: the series is summed by binary
doubling over the bits of A + 1.  Its two cardinal matrices, at x/2 and at
1/(1+x), depend on the nodes alone: a grid builds them once, on first use,
and the solvers share one grid per size n from a small bounded cache, so
every solve at that size reuses them.  Everything a grid holds is read-only,
and everything is deterministic.  Products go through the bound
``ndarray.dot``, not ``@``: at n <= 64 the ``matmul`` gufunc's per-call
dispatch costs about as much as the product, while ``dot`` reaches the same
BLAS routines, bit for bit (the tests compare the two byte for byte).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import LN2
from .errors import ConvergenceError, DomainError, require_int

#: admissible parameter box around (1, 0); the branch sum converges for
#: t - v > 0 but estimates degrade near the boundary, so a margin is enforced
T_RANGE = (0.6, 1.4)
V_RANGE = (-0.4, 0.4)
MIN_GAP = 0.2

#: grid sizes whose shared grid (nodes, weights, cardinal matrices) is kept
_GRIDS_KEPT = 8

#: the solvers' default grid, where the constants' accuracy saturates, and
#: the largest grid: each n x n matrix takes 8 MB there
GRID_SIZE = 48
GRID_MAX = 1024
#: the bound on the truncated tail of every branch sum
TAIL_TOL = 1e-14
#: power iteration's convergence tolerance and iteration cap
EIGEN_TOL = 1e-12
EIGEN_MAX_ITER = 10_000


class CollocationGrid:
    """Chebyshev-Lobatto nodes on [0, 1] with barycentric interpolation.

    nodes are ascending, include both endpoints.  ``quad_weights`` are the
    Clenshaw-Curtis weights for the same nodes (they integrate polynomials of
    degree n-1 exactly and analytic functions to spectral accuracy).  The
    arrays are read-only, so that one grid can be shared by every caller.
    n runs from 2 to ``GRID_MAX``; a larger n raises before any array is
    built.
    """

    def __init__(self, n: int):
        self.n = n = require_int("n", n, 2, GRID_MAX)
        N = n - 1
        theta = np.arange(n) * (math.pi / N)
        self.nodes = (1.0 - np.cos(theta)) / 2.0
        # classic barycentric weights for Chebyshev-Lobatto points
        w = np.ones(n)
        w[0] = w[-1] = 0.5
        w *= (-1.0) ** np.arange(n)
        self.bary_weights = w
        self.quad_weights = _clenshaw_curtis_weights(n) / 2.0  # [-1,1] -> [0,1]
        for array in (self.nodes, self.bary_weights, self.quad_weights):
            array.flags.writeable = False

    @functools.cached_property
    def _cardinals(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only cardinal matrices at the halved nodes x/2 and at the
        branch-0 points 1/(1+x), built on first use."""
        out = (self.lagrange_matrix(self.nodes / 2.0),
               self.lagrange_matrix(1.0 / (1.0 + self.nodes)))
        for array in out:
            array.flags.writeable = False
        return out

    def lagrange_matrix(self, pts) -> np.ndarray:
        """Matrix L with L[i, l] = l-th cardinal function at pts[i].

        Rows at points that coincide with a node, or lie so close to one that
        the barycentric ratio overflows, are exact unit vectors.
        """
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        diff = pts[:, None] - self.nodes[None, :]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = self.bary_weights[None, :] / diff
            L = ratios / ratios.sum(axis=1, keepdims=True)
        hit = np.isinf(ratios)
        rows_hit = hit.any(axis=1)
        if rows_hit.any():
            L[rows_hit] = hit[rows_hit].astype(float)
        return L

    def interpolate(self, samples, pts):
        """Barycentric evaluation of the interpolant of ``samples`` at ``pts``."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (self.n,):
            raise DomainError(f"expected {self.n} samples, got {samples.shape}")
        return self.lagrange_matrix(pts).dot(samples)

    def integrate(self, samples) -> float:
        return float(self.quad_weights.dot(np.asarray(samples, dtype=float)))


# typed: n = 48.0 must reach the grid's check, not 48's cached grid
@functools.lru_cache(maxsize=_GRIDS_KEPT, typed=True)
def _shared_grid(n: int) -> CollocationGrid:
    """The solvers' one grid of size n, cardinal matrices included."""
    return CollocationGrid(n)


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, one per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights for n Chebyshev-Lobatto points on [-1, 1]."""
    N = n - 1
    k = np.arange(1, N // 2 + 1)
    coef = 2.0 / (4.0 * k * k - 1)
    if N % 2 == 0:
        coef[-1] /= 2.0    # the k = N/2 term is cos(N theta) / (N^2 - 1)
    inner = np.arange(1, N) * (math.pi / N)
    w = np.empty(n)
    w[0] = w[-1] = 1.0 / (N * N - 1) if N % 2 == 0 else 1.0 / (N * N)
    w[1:-1] = 2.0 * (1.0 - np.cos(2.0 * np.outer(inner, k)) @ coef) / N
    return w


def _check_params(t: float, v: float):
    if not (T_RANGE[0] <= t <= T_RANGE[1] and V_RANGE[0] <= v <= V_RANGE[1]):
        raise DomainError(f"(t, v) = ({t}, {v}) outside admissible box")
    if t - v <= MIN_GAP:
        raise DomainError(f"need t - v > {MIN_GAP}, got {t - v}")


def truncation_depth(t: float, v: float, sup_f: float = 1.0) -> int:
    """Smallest branch count whose geometric tail is below ``TAIL_TOL``.

    Bound: sup|f| * 2^((A+1)(v-t)) / (1 - 2^(v-t)) < TAIL_TOL, with an extra
    margin of 8 branches to cover the sup of the cardinal functions when the
    bound is applied columnwise during matrix assembly.
    """
    if not t - v > 0:               # NaN fails this too
        raise DomainError(f"branch sum diverges for t - v <= 0, got {t - v}")
    room = TAIL_TOL * (1.0 - 2.0 ** (v - t))
    # in logs: sup_f / room overflows for sup|f| near the float maximum
    need = ((math.log2(max(sup_f, 1e-300)) - math.log2(room)) / (t - v)
            if room else math.inf)
    if not need < math.inf:         # 1 - 2^(v-t) rounded to 0
        raise DomainError(f"no finite truncation depth at t - v = {t - v}")
    return max(0, math.ceil(need)) + 8


def _branch_matrix(t: float, v: float, grid: CollocationGrid, a_max: int,
                   weighted: bool = False):
    """The branch sum over a = 0 .. A = a_max as a matrix on ``grid``.

    Halving the argument of a cardinal function leaves a polynomial of degree
    n-1, which the interpolant reproduces; so with H the cardinal matrix at
    the halved nodes, branch a's cardinal matrix is L_a = L_0 H^a, and with
    G = 2^(v-t) H the sum is L_0 S_(A+1), S_k = sum_{a<k} G^a, times the row
    factor (1+x)^(-2t).  ``weighted`` also returns the a-weighted sum
    M_a = L_0 T_(A+1), T_k = sum_{a<k} a G^a, with the same row factor.

    One pass over the bits of A + 1, from k = 1, carries S_k, T_k and
    P_k = G^k: a doubling takes S <- S + S P, T <- T + P (T + k S) and
    P <- P P, and a set bit takes S <- S + P, T <- T + k P and P <- P G.
    That is two matrix products per doubling and one per set bit, one more
    per doubling when weighted, and no linear solve; the two cardinal
    matrices, H and L_0, are the grid's own, built once per grid.
    """
    halving, branch0 = grid._cardinals
    g = 2.0 ** (v - t) * halving
    k, s, p = 1, _identity(grid.n), g
    t_sum = np.zeros_like(g)
    bits = bin(a_max + 1)[3:]
    for i, bit in enumerate(bits, 1 - len(bits)):   # i = 0 at the last bit
        if weighted:
            t_sum = t_sum + p.dot(t_sum + k * s)
        s = s + s.dot(p)
        k *= 2
        if i or bit == "1":         # the last P is never read
            p = p.dot(p)
        if bit == "1":
            if weighted:
                t_sum = t_sum + k * p
            s = s + p
            k += 1
            if i:
                p = p.dot(g)
    rows = ((1.0 + grid.nodes) ** (-2.0 * t))[:, None]
    m = rows * branch0.dot(s)
    if not weighted:
        return m
    return m, rows * branch0.dot(t_sum)


def build_matrix(t: float, v: float, grid: CollocationGrid) -> np.ndarray:
    """Dense collocation matrix of the operator at (t, v) on ``grid``."""
    _check_params(t, v)
    return _branch_matrix(t, v, grid, truncation_depth(t, v))


@dataclass
class SpectralResult:
    grid_size: int
    eigenvalue: float
    eigenfunction: np.ndarray   # samples at grid nodes, unit integral
    residual: float             # sup |M phi - lambda phi|
    iterations: int
    # the operator solved: set by solve_operator, not by dominant_eigen
    t: float = math.nan
    v: float = math.nan
    a_max: int = -1
    # every branch sum truncates at this one bound
    tail_tol = TAIL_TOL

    def to_json_dict(self, include_eigenfunction: bool = False) -> dict:
        d = {
            "t": self.t,
            "v": self.v,
            "grid_size": self.grid_size,
            "a_max": self.a_max,
            "eigenvalue": self.eigenvalue,
            "residual": self.residual,
            "iterations": self.iterations,
            "tail_tol": self.tail_tol,
        }
        if include_eigenfunction:
            d["eigenfunction"] = self.eigenfunction.tolist()
        return d


def dominant_eigen(matrix: np.ndarray, grid: CollocationGrid) -> SpectralResult:
    """Dominant eigenpair by power iteration with Rayleigh quotient estimates.

    Converged when successive eigenvalue estimates differ by less than
    ``EIGEN_TOL``.  The eigenfunction is normalized to unit integral against the
    grid quadrature and is strictly positive for parameters near (1, 0).
    """
    n = matrix.shape[0]
    apply, sqrt = matrix.dot, math.sqrt
    vec = np.full(n, 1.0 / sqrt(n))
    lam_prev = math.inf
    lam = math.nan
    for it in range(1, EIGEN_MAX_ITER + 1):
        w = apply(vec)
        lam = float(vec.dot(w)) / float(vec.dot(vec))
        nrm = sqrt(w.dot(w))       # np.linalg.norm(w), bit for bit
        if nrm == 0.0:
            raise ConvergenceError("operator annihilated the iterate")
        vec = w / nrm
        if abs(lam - lam_prev) < EIGEN_TOL:
            break
        lam_prev = lam
    else:
        raise ConvergenceError(
            f"power iteration did not converge in {EIGEN_MAX_ITER} iterations",
            result=(lam, vec),
        )
    mass = grid.integrate(vec)
    phi = vec / mass
    residual = float(np.max(np.abs(apply(phi) - lam * phi)))
    return SpectralResult(
        grid_size=n, eigenvalue=lam, eigenfunction=phi,
        residual=residual, iterations=it,
    )


def solve_operator(t: float, v: float, n: int = GRID_SIZE) -> SpectralResult:
    """Assemble the matrix at (t, v) and return its dominant eigenpair,
    labelled with (t, v), the truncation depth and the tail bound."""
    grid = _shared_grid(n)
    _check_params(t, v)
    a_max = truncation_depth(t, v)
    res = dominant_eigen(_branch_matrix(t, v, grid, a_max), grid)
    # set in place: dataclasses.replace would cost 1-2% of a solve
    res.t, res.v, res.a_max = t, v, a_max
    return res


@dataclass
class TaylorEstimates:
    """First derivatives of the dominant eigenvalue at (1, 0), from one
    eigenvector pair.

    ``entropy_slope`` is -d(lambda)/dt and ``shift_slope`` is d(lambda)/dv,
    both by first-order perturbation of the collocation matrix M:
    d(lambda) = l^T (dM) phi / l^T phi.  The derivatives of M are exact
    reweightings of its branches, so the only error is the collocation's
    (about 1e-13 against the closed forms at n = 32 .. 64).  ``a_max`` is the
    truncation depth, ``residual`` the larger of the two eigen-residuals and
    ``iterations`` the power-iteration counts for phi and for l.
    """

    entropy_slope: float   # approximates the constant A
    shift_slope: float     # approximates the constant D
    grid_size: int
    a_max: int
    residual: float
    iterations: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "A_estimate": self.entropy_slope,
            "D_estimate": self.shift_slope,
            "grid_size": self.grid_size,
            "a_max": self.a_max,
            "residual": self.residual,
            "iterations": list(self.iterations),
        }


def taylor_estimates(n: int = GRID_SIZE) -> TaylorEstimates:
    """-d(lambda)/dt and d(lambda)/dv at (1, 0) on an n-point grid.

    One doubling pass over the branches builds M and its companion
    M_a = sum_a a 2^(a(v-t)) L_a (same row factor), so that dM/dv = ln2 M_a and
    dM/dt = -ln2 M_a - 2 ln(1+x) M.  With M phi = lambda phi this gives
    D = ln2 l^T M_a phi / l^T phi and A = D + 2 lambda l^T(ln(1+x) phi) / l^T phi.
    """
    grid = _shared_grid(n)
    a_max = truncation_depth(1.0, 0.0)
    m, m_a = _branch_matrix(1.0, 0.0, grid, a_max, weighted=True)
    right = dominant_eigen(m, grid)
    left = dominant_eigen(m.T, grid)
    phi, ell = right.eigenfunction, left.eigenfunction
    norm = float(ell.dot(phi))
    shift = LN2 * float(ell.dot(m_a.dot(phi))) / norm
    entropy = shift + 2.0 * right.eigenvalue * float(
        ell.dot(np.log1p(grid.nodes) * phi)) / norm
    return TaylorEstimates(
        entropy_slope=entropy,
        shift_slope=shift,
        grid_size=grid.n,
        a_max=a_max,
        residual=max(right.residual, left.residual),
        iterations=(right.iterations, left.iterations),
    )
