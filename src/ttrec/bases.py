"""Univariate orthonormal polynomial bases and RKHS Gramians.

A basis is a reference orthonormal family and a dimension: normalized
Legendre on [-1, 1] with the uniform probability measure, or normalized
probabilists' Hermite under the standard normal.  A Gramian-orthonormal
change of basis is the matrix ``T`` from ``gramian_orthonormalize``; the new
functions' values are ``basis.evaluate(x) @ T``.  Gram matrices are
integrated on 4 d Gauss nodes of the basis measure: ``UnivariateBasis.gram``
is the L2 one, and ``h1_gramian`` adds the derivatives' Gram matrix to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e as npherm
from numpy.polynomial import legendre as npleg


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
        if not np.isfinite(g).all():
            raise BasisError(f"gramian has non-finite entries ({self.description})")
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
    """The first d functions of a reference orthonormal family, with point
    evaluation; they span the polynomials of degree < d."""

    kind: str                 # a key of BASES
    dimension: int

    def __post_init__(self):
        if self.kind not in BASES:
            raise BasisError(f"unknown basis {self.kind!r}")
        if isinstance(self.dimension, bool) or not isinstance(self.dimension,
                                                              (int, np.integer)):
            raise BasisError(f"dimension must be an integer, got {self.dimension!r}")
        if self.dimension < 1:
            raise BasisError("dimension must be >= 1")
        if self.kind == "hermite" and self.dimension > 171:
            # the norms sqrt(k!) need float(k!), which overflows from 171!
            raise BasisError("hermite dimension must be <= 171")

    @property
    def domain(self) -> tuple:
        return (-1.0, 1.0) if self.kind == "legendre" else (-np.inf, np.inf)

    @property
    def sup_norms(self) -> np.ndarray | None:
        """``||b_k||_inf``, or None when they are infinite (Gaussian measure)."""
        if self.kind == "hermite":
            return None
        # the k-th Legendre function attains sqrt(2k+1) at the endpoints
        return np.sqrt(2 * np.arange(self.dimension) + 1.0)

    def evaluate(self, points) -> np.ndarray:
        """Basis values at ``points``; shape ``points.shape + (d,)``, C-ordered."""
        points = np.asarray(points, dtype=float)
        d = self.dimension
        if self.kind == "legendre":
            V = npleg.legvander(points, d - 1)
            scale = np.sqrt(2 * np.arange(d) + 1)
        else:
            V = npherm.hermevander(points, d - 1)
            scale = 1.0 / np.sqrt([float(math.factorial(k)) for k in range(d)])
        # the Vandermonde arrays are F-ordered, and a product with the values
        # (a gemv) sums in an order that follows their layout: C order keeps
        # the last digits of every output fixed
        return np.multiply(V, scale, order="C")

    def evaluate_deriv(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        d = self.dimension
        out = np.zeros(points.shape + (d,))
        if self.kind == "legendre":
            for k in range(1, d):
                coef = np.zeros(k + 1)
                coef[k] = np.sqrt(2 * k + 1)
                out[..., k] = npleg.legval(points, npleg.legder(coef))
        else:
            # He_k' = k He_{k-1}  =>  normalized derivative is sqrt(k) b_{k-1}
            vals = self.evaluate(points)
            for k in range(1, d):
                out[..., k] = np.sqrt(k) * vals[..., k - 1]
        return out

    def quadrature(self, nodes: int) -> tuple:
        """Gauss nodes/weights for the basis measure (weights sum to 1)."""
        if self.kind == "legendre":
            x, w = npleg.leggauss(nodes)
            return x, w / 2.0
        x, w = npherm.hermegauss(nodes)
        return x, w / np.sqrt(2.0 * np.pi)

    def gram(self) -> np.ndarray:
        """L2 Gram matrix on 4 d Gauss nodes (identity for o.n. bases)."""
        x, w = self.quadrature(4 * self.dimension)
        B = self.evaluate(x)
        return B.T @ (w[:, None] * B)


def legendre_basis(d: int) -> UnivariateBasis:
    """Normalized Legendre polynomials on [-1, 1] with rho = dx/2."""
    return UnivariateBasis("legendre", d)


def hermite_basis(d: int) -> UnivariateBasis:
    """Probabilists' Hermite polynomials normalized in L2 of the standard
    normal; sup-norms are infinite."""
    return UnivariateBasis("hermite", d)


# the reference families by name (a basis's ``kind``): name -> constructor
# taking the dimension
BASES = {"legendre": legendre_basis, "hermite": hermite_basis}


def diag_sup_gramian(basis: UnivariateBasis) -> Gramian:
    """Diagonal Gramian with entries ``||b_k||_inf^2``.

    The associated pointwise bound is ``|v(x)|^2 <= d * v^T G v``, so the
    RKHS embedding constant is sqrt(d).  Rejected for bases with infinite
    sup-norms.
    """
    if basis.sup_norms is None:
        raise BasisError("basis has infinite sup-norms; diag_sup gramian unavailable")
    return Gramian(np.diag(basis.sup_norms**2), "diag_sup")


def h1_gramian(basis: UnivariateBasis) -> Gramian:
    """Sobolev-style Gramian ``g_ij = int (b_i b_j + b_i' b_j') drho``: the
    L2 Gram matrix plus the derivatives' Gram matrix, both on 4 d Gauss nodes."""
    # a rule too large for floats (Hermite, d = 100) overflows; Gramian
    # rejects the non-finite result
    with np.errstate(all="ignore"):
        x, w = basis.quadrature(4 * basis.dimension)
        dB = basis.evaluate_deriv(x)
        g = basis.gram() + dB.T @ (w[:, None] * dB)
    return Gramian(g, "h1")


def gramian_orthonormalize(basis: UnivariateBasis, g: Gramian) -> np.ndarray:
    """The change of basis ``T`` making ``g`` the identity: ``T^T G T = Id``.

    Uses the spectral decomposition ``G = Q S Q^T`` and ``T = Q S^{-1/2}``.
    The functions ``basis.evaluate(x) @ T`` are g-orthonormal and still
    L2-orthogonal (a Riesz sequence with L2 norms ``s_k^{-1/2}``), and
    coefficients ``c`` in them are ``T c`` in ``basis``.
    """
    if g.dimension != basis.dimension:
        raise BasisError("gramian dimension does not match basis")
    s, Q = np.linalg.eigh(np.asarray(g.matrix))
    if s[0] <= 0:
        raise BasisError("gramian is not positive definite")
    T = Q / np.sqrt(s)
    # sign convention: positive leading coefficient, i.e. the highest-degree
    # contribution of every new function is positive
    for k in range(T.shape[1]):
        col = T[:, k]
        j = np.nonzero(np.abs(col) > 1e-14 * np.abs(col).max())[0][-1]
        if col[j] < 0:
            T[:, k] = -col
    return T
