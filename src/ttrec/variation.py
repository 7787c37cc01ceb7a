"""Variation-function calculus on grids and the local rank-1 estimator.

The variation function of a model class assigns to every point the largest
squared value attained there by a norm-one element of the class.  For a
linear span with an L2-orthonormal basis it is the pointwise sum of squares
of the basis functions; direct sums add, tensor products multiply.  The
local space of a microstep on a train canonical at its mode has the design
rows as such a basis, so its variation is their sum of squares.
Everything here is evaluated on grids or sample clouds, never symbolically:
sup-norms are grid maxima.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import TensorTrain, design_matrix, fixed_interface


class VariationError(ValueError):
    pass


@dataclass(frozen=True)
class VariationGrid:
    """Tabulated variation-function values over a point grid or cloud.

    ``quad_weights`` are probability-quadrature weights for the underlying
    measure (default uniform 1/n) used for L1 norms.  All three arrays are
    kept as read-only copies.
    """

    points: np.ndarray
    values: np.ndarray
    quad_weights: np.ndarray = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        vals = np.array(self.values, dtype=float)
        n = pts.shape[0]
        if vals.shape != (n,):
            raise VariationError("values length does not match points")
        if np.any(vals < 0):
            raise VariationError("variation values must be nonnegative")
        q = np.full(n, 1.0 / n) if self.quad_weights is None \
            else np.array(self.quad_weights, float)
        if q.shape != (n,):
            raise VariationError("quadrature weights must match point count")
        for arr, name in ((pts, "points"), (vals, "values"), (q, "quad_weights")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def sup(self) -> float:
        return float(self.values.max())

    def l1_norm(self) -> float:
        """Quadrature estimate of the L1(rho) norm of K."""
        return float(self.quad_weights @ self.values)


def uniform_grid(n: int):
    """Uniform grid on [-1, 1] with endpoints and trapezoid probability weights."""
    pts = np.linspace(-1.0, 1.0, n)
    q = np.full(n, 1.0 / (n - 1))
    q[0] *= 0.5
    q[-1] *= 0.5
    return pts, q


def variation_of_span(basis_values, points, quad_weights=None) -> VariationGrid:
    """Variation function of a span from its orthonormal basis evaluations.

    ``basis_values`` has shape (n, k): row i holds the k orthonormal basis
    functions at point i.  Values are the row-wise sums of squares.
    """
    B = np.asarray(basis_values, dtype=float)
    if B.ndim != 2 or B.shape[1] == 0:
        raise VariationError("need a nonempty (n, k) basis-value matrix")
    vals = np.einsum("nk,nk->n", B, B)
    return VariationGrid(np.asarray(points, float), vals, quad_weights=quad_weights)


def _check_aligned(a: VariationGrid, b: VariationGrid):
    if a.points.shape != b.points.shape or not np.array_equal(a.points, b.points):
        raise VariationError("variation grids are not aligned")


def variation_sum(a: VariationGrid, b: VariationGrid) -> VariationGrid:
    """Direct sum of orthogonal classes: values add pointwise."""
    _check_aligned(a, b)
    return VariationGrid(a.points, a.values + b.values, quad_weights=a.quad_weights)


def variation_product(a: VariationGrid, b: VariationGrid) -> VariationGrid:
    """Tensor product (or independent product) of classes: values multiply."""
    _check_aligned(a, b)
    return VariationGrid(a.points, a.values * b.values, quad_weights=a.quad_weights)


# ---------------------------------------------------------------------------
# local variation constant of rank-1 matrices


@dataclass(frozen=True)
class LocalVariationEstimate:
    """Grid estimate of the local variation constant around the all-ones
    rank-1 matrix, normalized so that the ambient value is d1*d2."""

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
    return LocalVariationEstimate(value, K)


# ---------------------------------------------------------------------------
# variation of microstep model spaces


def microstep_variation(tt: TensorTrain, m: int, basis, points) -> VariationGrid:
    """Variation function of the local model space of a mode-``m`` microstep.

    With the train canonical at ``m`` the microstep's design rows are the
    values of an L2-orthonormal basis of the local space, so the variation is
    their sum of squares; ``points`` is an (n, M) cloud in parameter space.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != tt.order:
        raise VariationError(
            f"points have {pts.shape[1]} coordinates, train has order {tt.order}")
    # raises on marker violation
    stacks = fixed_interface(tt, m, [basis.evaluate(pts[:, k]) for k in range(tt.order)])
    return variation_of_span(design_matrix(stacks), pts)
