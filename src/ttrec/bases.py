"""Univariate orthonormal polynomial bases and RKHS Gramians.

Bases are stored as a linear transform of a reference orthonormal family
(normalized Legendre on [-1, 1] with the uniform probability measure, or
normalized probabilists' Hermite under the standard normal).  Transformed
bases keep enough provenance to evaluate functions, derivatives, and
sup-norms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import hermite_e as npherm
from numpy.polynomial import legendre as npleg

SUP_NORM_GRID = 4001  # grid resolution for sup-norms of transformed bases


class BasisError(ValueError):
    pass


@dataclass(frozen=True)
class Gramian:
    """Symmetric positive-definite matrix of RKHS inner products."""

    matrix: np.ndarray
    description: str = ""

    def __post_init__(self):
        g = np.asarray(self.matrix, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise BasisError("gramian must be square")
        if not np.allclose(g, g.T, atol=1e-12 * max(1.0, np.abs(g).max())):
            raise BasisError("gramian is not symmetric")
        g = 0.5 * (g + g.T)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise BasisError(f"gramian is not positive definite ({self.description})")
        g.flags.writeable = False
        object.__setattr__(self, "matrix", g)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class UnivariateBasis:
    """d functions spanning polynomials of degree < d, with point evaluation.

    ``transform`` expresses the functions in the reference orthonormal
    family: function k is ``sum_j transform[j, k] * ref_j``.  ``sup_norms``
    is None when the sup-norms are infinite (Gaussian measure).  Both arrays
    are kept as read-only copies.
    """

    kind: str                 # a key of BASES
    dimension: int
    transform: np.ndarray
    sup_norms: np.ndarray | None

    def __post_init__(self):
        if self.kind not in BASES:
            raise BasisError(f"unknown basis {self.kind!r}")
        T = np.array(self.transform, dtype=float, order="C")
        if T.shape != (self.dimension, self.dimension):
            raise BasisError("transform shape does not match dimension")
        T.flags.writeable = False
        object.__setattr__(self, "transform", T)
        if self.sup_norms is not None:
            s = np.array(self.sup_norms, dtype=float)
            s.flags.writeable = False
            object.__setattr__(self, "sup_norms", s)

    @property
    def domain(self) -> tuple:
        return (-1.0, 1.0) if self.kind == "legendre" else (-np.inf, np.inf)

    def _ref_values(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        d = self.dimension
        if self.kind == "legendre":
            V = npleg.legvander(points, d - 1)
            scale = np.sqrt(2 * np.arange(d) + 1)
        else:
            V = npherm.hermevander(points, d - 1)
            scale = 1.0 / np.sqrt([math.factorial(k) for k in range(d)])
        return V * scale

    def _ref_derivatives(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        d = self.dimension
        out = np.zeros(points.shape + (d,))
        if self.kind == "legendre":
            for k in range(1, d):
                coef = np.zeros(k + 1)
                coef[k] = np.sqrt(2 * k + 1)
                out[..., k] = npleg.legval(points, npleg.legder(coef))
        else:
            # He_k' = k He_{k-1}  =>  normalized derivative is sqrt(k) ref_{k-1}
            ref = self._ref_values(points)
            for k in range(1, d):
                out[..., k] = np.sqrt(k) * ref[..., k - 1]
        return out

    def evaluate(self, points) -> np.ndarray:
        """Basis values at ``points``; shape ``points.shape + (d,)``."""
        return self._ref_values(points) @ self.transform

    def evaluate_deriv(self, points) -> np.ndarray:
        return self._ref_derivatives(points) @ self.transform

    def quadrature(self, nodes: int) -> tuple:
        """Gauss nodes/weights for the basis measure (weights sum to 1)."""
        if self.kind == "legendre":
            x, w = npleg.leggauss(nodes)
            return x, w / 2.0
        x, w = npherm.hermegauss(nodes)
        return x, w / np.sqrt(2.0 * np.pi)

    def gram(self, nodes: int | None = None) -> np.ndarray:
        """L2 Gram matrix under Gauss quadrature (identity for o.n. bases)."""
        x, w = self.quadrature(nodes or 4 * self.dimension)
        B = self.evaluate(x)
        return B.T @ (w[:, None] * B)


def legendre_basis(d: int) -> UnivariateBasis:
    """Normalized Legendre polynomials on [-1, 1] with rho = dx/2.

    The k-th function attains its sup-norm sqrt(2k+1) at the endpoints.
    """
    if d < 1:
        raise BasisError("dimension must be >= 1")
    sup = np.sqrt(2 * np.arange(d) + 1.0)
    return UnivariateBasis("legendre", d, np.eye(d), sup)


def hermite_basis(d: int) -> UnivariateBasis:
    """Probabilists' Hermite polynomials normalized in L2 of the standard
    normal; sup-norms are infinite."""
    if d < 1:
        raise BasisError("dimension must be >= 1")
    return UnivariateBasis("hermite", d, np.eye(d), None)


# the reference families by name (a basis's ``kind``): name -> constructor
# taking the dimension
BASES = {"legendre": legendre_basis, "hermite": hermite_basis}


def _grid_sup_norms(basis: UnivariateBasis) -> np.ndarray:
    lo, hi = basis.domain
    grid = np.linspace(lo, hi, SUP_NORM_GRID)
    return np.abs(basis.evaluate(grid)).max(axis=0)


def diag_sup_gramian(basis: UnivariateBasis) -> Gramian:
    """Diagonal Gramian with entries ``||b_k||_inf^2``.

    The associated pointwise bound is ``|v(x)|^2 <= d * v^T G v``, so the
    RKHS embedding constant is sqrt(d).  Rejected for bases with infinite
    sup-norms.
    """
    if basis.sup_norms is None:
        raise BasisError("basis has infinite sup-norms; diag_sup gramian unavailable")
    return Gramian(np.diag(basis.sup_norms**2), "diag_sup")


def h1_gramian(basis: UnivariateBasis, quad_nodes: int | None = None) -> Gramian:
    """Sobolev-style Gramian ``g_ij = int (b_i b_j + b_i' b_j') drho``."""
    x, w = basis.quadrature(quad_nodes or 4 * basis.dimension)
    B = basis.evaluate(x)
    dB = basis.evaluate_deriv(x)
    g = B.T @ (w[:, None] * B) + dB.T @ (w[:, None] * dB)
    g = 0.5 * (g + g.T)
    return Gramian(g, "h1")


def gramian_orthonormalize(basis: UnivariateBasis, g: Gramian):
    """Change of basis making ``g`` the identity.

    Uses the spectral decomposition ``G = Q S Q^T``; the new functions are
    ``Q S^{-1/2}`` applied to the old ones, hence g-orthonormal and still
    L2-orthogonal (a Riesz sequence with L2 norms ``s_k^{-1/2}``).  Returns
    ``(new_basis, T)`` with ``T^T G T = Id``.
    """
    if g.dimension != basis.dimension:
        raise BasisError("gramian dimension does not match basis")
    s, Q = np.linalg.eigh(np.asarray(g.matrix))
    if s[0] <= 0:
        raise BasisError("gramian is not positive definite")
    T = Q / np.sqrt(s)
    # sign convention: positive leading coefficient, i.e. the highest-degree
    # reference contribution of every new function is positive
    T = np.array(T)
    for k in range(T.shape[1]):
        col = T[:, k]
        j = np.nonzero(np.abs(col) > 1e-14 * np.abs(col).max())[0][-1]
        if col[j] < 0:
            T[:, k] = -col
    combined = basis.transform @ T
    new = UnivariateBasis(basis.kind, basis.dimension, combined, None)
    sup = _grid_sup_norms(new) if basis.kind == "legendre" else None
    new = replace(new, sup_norms=sup)
    return new, T
