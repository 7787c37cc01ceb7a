"""Univariate orthonormal polynomial bases and RKHS Gramians.

A basis is a reference orthonormal family and a dimension: normalized
Legendre on [-1, 1] with the uniform probability measure, or normalized
probabilists' Hermite under the standard normal.  ``basis.derivative`` is
its exact differentiation matrix ``D``, and ``h1_gramian`` is ``I + D^T D``.
A Gramian-orthonormal change of basis is the matrix ``T`` from
``gramian_orthonormalize``; the new functions are ``basis.evaluate(x) @ T``.
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
            scale = self.sup_norms
        else:
            V = npherm.hermevander(points, d - 1)
            scale = 1.0 / np.sqrt([float(math.factorial(k)) for k in range(d)])
        # the Vandermonde arrays are F-ordered, and a product with the values
        # (a gemv) sums in an order that follows their layout: C order keeps
        # the last digits of every output fixed
        return np.multiply(V, scale, order="C")

    @property
    def derivative(self) -> np.ndarray:
        """The (d, d) differentiation matrix ``D``: ``b' = b @ D``."""
        k = np.arange(self.dimension)
        if self.kind == "legendre":
            # P_k' is the sum of (2j + 1) P_j over j < k with k - j odd
            s = self.sup_norms
            return np.triu(np.outer(s, s) * ((k - k[:, None]) % 2), 1)
        # He_k' = k He_{k-1}, so b_k' = sqrt(k) b_{k-1}
        return np.diag(np.sqrt(k[1:]), 1)

    def quadrature(self, nodes: int) -> tuple:
        """Gauss nodes/weights for the basis measure (weights sum to 1)."""
        if self.kind == "legendre":
            x, w = npleg.leggauss(nodes)
            return x, w / 2.0
        x, w = npherm.hermegauss(nodes)
        return x, w / np.sqrt(2.0 * np.pi)


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
    """Sobolev-style Gramian ``g_ik = int (b_i b_k + b_i' b_k') drho``, which
    is ``I + D^T D`` for the differentiation matrix ``D`` of an orthonormal
    family: ``diag(1, 2, ..., d)`` for Hermite, and for Legendre
    ``delta_ik + sqrt((2i+1)(2k+1)) m (m+1) / 2`` with ``m = min(i, k)`` when
    ``i - k`` is even, else ``delta_ik``."""
    D = basis.derivative
    return Gramian(np.eye(basis.dimension) + D.T @ D, "h1")


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
