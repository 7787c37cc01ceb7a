"""Variation-function calculus on grids and the local rank-1 estimator.

The variation function of a model class assigns to every point the largest
squared value attained there by a norm-one element of the class.  For a
linear span with an L2-orthonormal basis it is the pointwise sum of squares
of the basis functions; direct sums add, tensor products multiply, unions
take the pointwise maximum.  Everything here is evaluated on grids or sample
clouds, never symbolically: sup-norms are grid maxima.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import TensorTrain, fixed_interface


class VariationError(ValueError):
    pass


@dataclass(frozen=True)
class VariationGrid:
    """Tabulated variation-function values over a point grid or cloud.

    ``weights`` are sampling weights w(y) (default 1), ``quad_weights`` are
    probability-quadrature weights for the underlying measure (default
    uniform 1/n) used for L1 norms.  All four arrays are kept as read-only
    copies.
    """

    points: np.ndarray
    values: np.ndarray
    weights: np.ndarray = None
    quad_weights: np.ndarray = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        vals = np.array(self.values, dtype=float)
        n = pts.shape[0]
        if vals.shape != (n,):
            raise VariationError("values length does not match points")
        if np.any(vals < 0):
            raise VariationError("variation values must be nonnegative")
        w = np.ones(n) if self.weights is None else np.array(self.weights, float)
        q = np.full(n, 1.0 / n) if self.quad_weights is None \
            else np.array(self.quad_weights, float)
        if w.shape != (n,) or q.shape != (n,):
            raise VariationError("weight arrays must match point count")
        for arr, name in ((pts, "points"), (vals, "values"), (w, "weights"), (q, "quad_weights")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def sup(self) -> float:
        return float(self.values.max())

    def weighted_sup(self) -> float:
        """Grid estimate of the weighted sup-norm sup_y w(y) K(y)."""
        return float((self.weights * self.values).max())

    def l1_norm(self) -> float:
        """Quadrature estimate of the L1(rho) norm of K."""
        return float(self.quad_weights @ self.values)


def uniform_grid(n: int, lo: float = -1.0, hi: float = 1.0):
    """Uniform grid including endpoints, with trapezoid probability weights."""
    pts = np.linspace(lo, hi, n)
    q = np.full(n, 1.0 / (n - 1))
    q[0] *= 0.5
    q[-1] *= 0.5
    return pts, q


def variation_of_span(basis_values, points, quad_weights=None, weights=None) -> VariationGrid:
    """Variation function of a span from its orthonormal basis evaluations.

    ``basis_values`` has shape (n, k): row i holds the k orthonormal basis
    functions at point i.  Values are the row-wise sums of squares.
    """
    B = np.asarray(basis_values, dtype=float)
    if B.ndim != 2 or B.shape[1] == 0:
        raise VariationError("need a nonempty (n, k) basis-value matrix")
    vals = np.einsum("nk,nk->n", B, B)
    return VariationGrid(np.asarray(points, float), vals,
                         weights=weights, quad_weights=quad_weights)


def _check_aligned(a: VariationGrid, b: VariationGrid):
    if a.points.shape != b.points.shape or not np.array_equal(a.points, b.points):
        raise VariationError("variation grids are not aligned")


def variation_sum(a: VariationGrid, b: VariationGrid) -> VariationGrid:
    """Direct sum of orthogonal classes: values add pointwise."""
    _check_aligned(a, b)
    return VariationGrid(a.points, a.values + b.values,
                         weights=a.weights, quad_weights=a.quad_weights)


def variation_product(a: VariationGrid, b: VariationGrid) -> VariationGrid:
    """Tensor product (or independent product) of classes: values multiply."""
    _check_aligned(a, b)
    return VariationGrid(a.points, a.values * b.values,
                         weights=a.weights, quad_weights=a.quad_weights)


def variation_union(a: VariationGrid, b: VariationGrid) -> VariationGrid:
    """Union of classes: pointwise maximum."""
    _check_aligned(a, b)
    return VariationGrid(a.points, np.maximum(a.values, b.values),
                         weights=a.weights, quad_weights=a.quad_weights)


def optimal_weight(k: VariationGrid) -> np.ndarray:
    """Sampling weight attaining the lower bound of the weighted sup-norm.

    Returns w(y) = ||K||_{L1} / K(y) on the grid; with it, w*K is constant
    and the quadrature of 1/w against rho is approximately 1.
    """
    if np.any(k.values <= 0):
        raise VariationError("variation function vanishes on the grid")
    return k.l1_norm() / k.values


def sample_optimal_weights(basis, order: int, n: int, seed: int = 0,
                           grid_size: int = 4001):
    """Draw points from the variation-optimal density of a product span.

    For the tensor-product span of ``basis`` the variation function
    factorizes over modes, so the optimal sampling density does too:
    per mode, points follow ``K_d(t) rho(t) / d`` (inverse-CDF on a grid)
    and the returned weights are ``w(y) = prod_m d / K_d(y_m)``.  Off by
    default everywhere; the uniform weight ``w = 1`` is the standard
    choice.
    """
    lo, hi = basis.domain
    if not np.isfinite(lo):
        raise VariationError("optimal-weight sampling needs a bounded domain")
    pts, q = uniform_grid(grid_size, lo, hi)
    B = basis.evaluate(pts)
    kvals = np.einsum("nk,nk->n", B, B)
    density = q * kvals / basis.dimension
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, (n, order))
    points = np.interp(u, np.concatenate([[0.0], cdf]), np.concatenate([[lo], pts]))
    B = basis.evaluate(points)
    kp = np.einsum("nmk,nmk->nm", B, B)
    weights = np.prod(basis.dimension / kp, axis=1)
    return points, weights


# ---------------------------------------------------------------------------
# local variation constant of rank-1 matrices


@dataclass(frozen=True)
class LocalVariationEstimate:
    """Grid estimate of the local variation constant around the all-ones
    rank-1 matrix, normalized so that the ambient value is d1*d2."""

    d1: int
    d2: int
    radius: float
    grid_size: int
    value: float
    table: np.ndarray  # (m, m) cell values, NaN where infeasible


def _gamma_interval(c, a):
    """Solution interval of |1 - c*gamma| <= a (entrywise)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(c > 0, (1 - a) / c, np.where(c < 0, (1 + a) / c, -np.inf))
        hi = np.where(c > 0, (1 + a) / c, np.where(c < 0, (1 - a) / c, np.inf))
    empty = (c == 0) & (a < 1)
    lo = np.where(empty, np.inf, lo)
    hi = np.where(empty, -np.inf, hi)
    return lo, hi


def local_variation_rank1(d1: int, d2: int, r: float, m: int) -> LocalVariationEstimate:
    """Sup-norm-ball estimate of the local variation constant of rank-1
    matrices around the all-ones matrix.

    The extremal perturbations have the structure
    ``M = (alpha, beta, ..., beta)^T (1, gamma, ..., gamma)`` whose largest
    deviation entry is |1-alpha|.  alpha is discretized over [1-r, 1+r],
    beta over [1-|1-alpha|, 1+|1-alpha|]; the inner problem over gamma is a
    convex quadratic minimized by interval projection of its closed-form
    minimizer.  Cells whose gamma-interval is empty are skipped.
    """
    if d1 < 2 or d2 < 2:
        raise VariationError("matrix dimensions must be >= 2")
    if r <= 0:
        raise VariationError("radius must be positive")
    if m < 3:
        raise VariationError("grid size must be >= 3")
    alphas = np.linspace(1 - r, 1 + r, m)
    a = np.abs(1 - alphas)
    # beta grid per alpha row: 1 - a .. 1 + a
    frac = np.linspace(-1.0, 1.0, m)
    A = np.repeat(alphas[:, None], m, axis=1)
    Aa = np.repeat(a[:, None], m, axis=1)
    B = 1.0 + Aa * frac[None, :]

    lo1, hi1 = _gamma_interval(A, Aa)
    lo2, hi2 = _gamma_interval(B, Aa)
    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)
    feasible = lo <= hi

    denom = A**2 + (d1 - 1) * B**2
    with np.errstate(divide="ignore", invalid="ignore"):
        gstar = (A + (d1 - 1) * B) / denom
    gstar = np.where(denom > 0, gstar, 0.0)  # denom == 0 => F constant in gamma
    g = np.clip(gstar, lo, hi)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        F = ((1 - A) ** 2
             + (d2 - 1) * (1 - A * g) ** 2
             + (d1 - 1) * (1 - B) ** 2
             + (d1 - 1) * (d2 - 1) * (1 - B * g) ** 2)
        K = d1 * d2 * (1 - A) ** 2 / F
    K = np.where(feasible & (F > 0), K, np.nan)
    if np.all(np.isnan(K)):
        raise VariationError("no feasible cell on the grid")
    value = float(np.nanmax(K))
    return LocalVariationEstimate(d1, d2, float(r), m, value, K)


# ---------------------------------------------------------------------------
# variation of microstep model spaces


def microstep_variation(tt: TensorTrain, m: int, basis, points) -> VariationGrid:
    """Variation function of the local model space of a mode-``m`` microstep.

    With orthogonal interfaces the local basis is orthonormal and its sum of
    squares factorizes into left-interface, univariate, and right-interface
    contributions; ``points`` is an (n, M) cloud in parameter space.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != tt.order:
        raise VariationError(
            f"points have {pts.shape[1]} coordinates, train has order {tt.order}")
    # raises on marker violation
    stacks = fixed_interface(tt, m, [basis.evaluate(pts[:, k]) for k in range(tt.order)])
    L, bm, R = stacks.left, stacks.basis_values[m], stacks.right
    vals = (np.einsum("nl,nl->n", L, L)
            * np.einsum("ne,ne->n", bm, bm)
            * np.einsum("nr,nr->n", R, R))
    return VariationGrid(pts, vals)
