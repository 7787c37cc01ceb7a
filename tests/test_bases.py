import dataclasses
import warnings

import numpy as np
import pytest

from ttrec.bases import (BasisError, Gramian, UnivariateBasis, diag_sup_gramian,
                         gramian_orthonormalize, h1_gramian, hermite_basis,
                         legendre_basis)

from oracles import reference_h1_gramian


def quadrature_gram(b):
    """The L2 Gram matrix on 4 d Gauss nodes of the basis measure."""
    x, w = b.quadrature(4 * b.dimension)
    B = b.evaluate(x)
    return B.T @ (w[:, None] * B)


def test_legendre_constant():
    b = legendre_basis(1)
    grid = np.linspace(-1, 1, 11)
    assert np.allclose(b.evaluate(grid), 1.0)
    assert np.allclose(b.sup_norms, [1.0])


def test_legendre_orthonormal_under_quadrature():
    b = legendre_basis(8)
    assert np.abs(quadrature_gram(b) - np.eye(8)).max() <= 1e-10


def test_legendre_sup_norm_identity():
    d = 6
    b = legendre_basis(d)
    grid = np.linspace(-1, 1, 40001)
    vals = np.abs(b.evaluate(grid))
    grid_sup = vals.max(axis=0)
    expect = np.sqrt(2 * np.arange(d) + 1)
    assert np.abs(grid_sup - expect).max() <= 1e-8
    # attained at the endpoints
    assert np.allclose(vals[-1], expect)


def test_legendre_product_weight_matrix():
    # omega_ij = sqrt(2i+1) sqrt(2j+1) for the 2-mode product basis
    b = legendre_basis(4)
    omega = np.outer(b.sup_norms, b.sup_norms)
    i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert np.allclose(omega, np.sqrt(2 * i + 1) * np.sqrt(2 * j + 1))


def test_hermite_low_order_functions():
    b = hermite_basis(3)
    y = np.linspace(-2, 2, 9)
    vals = b.evaluate(y)
    assert np.allclose(vals[:, 0], 1.0)
    assert np.allclose(vals[:, 1], y)
    assert np.allclose(vals[:, 2], (y**2 - 1) / np.sqrt(2))
    assert b.sup_norms is None


def test_hermite_orthonormal_under_quadrature():
    b = hermite_basis(8)
    assert np.abs(quadrature_gram(b) - np.eye(8)).max() <= 1e-10


def test_diag_sup_gramian():
    g = diag_sup_gramian(legendre_basis(3))
    assert np.allclose(g.matrix, np.diag([1.0, 3.0, 5.0]))
    assert np.allclose(diag_sup_gramian(legendre_basis(1)).matrix, [[1.0]])
    with pytest.raises(BasisError):
        diag_sup_gramian(hermite_basis(3))


def test_diag_sup_embedding_bound():
    d = 5
    b = legendre_basis(d)
    g = diag_sup_gramian(b).matrix
    rng = np.random.default_rng(0)
    grid = np.linspace(-1, 1, 501)
    vals = b.evaluate(grid)
    for _ in range(20):
        v = rng.standard_normal(d)
        sup2 = ((vals @ v) ** 2).max()
        assert sup2 <= d * v @ g @ v + 1e-12
    # constant-only case is tight
    b1 = legendre_basis(1)
    v = np.array([1.7])
    assert np.isclose(((b1.evaluate(grid) @ v) ** 2).max(), v @ diag_sup_gramian(b1).matrix @ v)


def test_h1_gramian_values():
    g1 = h1_gramian(legendre_basis(1))
    assert np.allclose(g1.matrix, [[1.0]])
    g2 = h1_gramian(legendre_basis(2))
    assert np.allclose(g2.matrix, np.diag([1.0, 4.0]), atol=1e-12)
    g = h1_gramian(legendre_basis(6)).matrix
    assert np.array_equal(g, g.T)


def test_h1_gramian_hermite():
    g = h1_gramian(hermite_basis(4))
    # He_k' = k He_{k-1}: diagonal 1 + k in the normalized basis
    assert np.allclose(np.diag(g.matrix), 1.0 + np.arange(4))


def test_gramian_rejects_bad_matrices():
    with pytest.raises(BasisError):
        Gramian(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(BasisError):
        Gramian(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(BasisError, match=r"gramian has non-finite entries \(h1\)"):
        Gramian(np.array([[1.0, np.nan], [np.nan, 1.0]]), "h1")
    with pytest.raises(BasisError, match="gramian must be square"):
        Gramian(np.ones((2, 3)))
    with pytest.raises(BasisError, match="gramian dimension does not match basis"):
        gramian_orthonormalize(legendre_basis(3), Gramian(np.eye(4)))


def test_hermite_basis_past_int64_factorials():
    # 21! does not fit in int64; the norms take k! as a float, which
    # overflows from 171! on
    b = hermite_basis(22)
    assert np.abs(quadrature_gram(b) - np.eye(22)).max() <= 1e-12
    with pytest.raises(BasisError, match="hermite dimension must be <= 171"):
        hermite_basis(172)


def test_gramian_orthonormalize_identity():
    b = legendre_basis(4)
    T = gramian_orthonormalize(b, Gramian(np.eye(4)))
    assert np.allclose(T, np.eye(4))
    grid = np.linspace(-1, 1, 21)
    assert np.allclose(b.evaluate(grid) @ T, b.evaluate(grid))


def test_gramian_orthonormalize_diagonal():
    b = legendre_basis(3)
    g = diag_sup_gramian(b)
    T = gramian_orthonormalize(b, g)
    assert np.allclose(T, np.diag([1.0, 1 / np.sqrt(3), 1 / np.sqrt(5)]))
    assert np.abs(T.T @ g.matrix @ T - np.eye(3)).max() <= 1e-12
    # the new functions have unit sup-norms
    grid = np.linspace(-1, 1, 4001)
    assert np.allclose(np.abs(b.evaluate(grid) @ T).max(axis=0), 1.0, atol=1e-6)


def test_gramian_orthonormalize_general():
    b = legendre_basis(5)
    g = h1_gramian(b)
    T = gramian_orthonormalize(b, g)
    assert np.abs(T.T @ g.matrix @ T - np.eye(5)).max() <= 1e-12
    # the new functions are g-orthonormal as functions too
    x, w = b.quadrature(40)
    Bv = b.evaluate(x) @ T
    dBv = b.evaluate(x) @ b.derivative @ T
    gram = Bv.T @ (w[:, None] * Bv) + dBv.T @ (w[:, None] * dBv)
    assert np.abs(gram - np.eye(5)).max() <= 1e-10
    # still an L2-Riesz sequence: L2 Gram diagonal with eigenvalue reciprocals
    x, w = b.quadrature(20)
    Bv = b.evaluate(x) @ T
    l2 = Bv.T @ (w[:, None] * Bv)
    off = l2 - np.diag(np.diag(l2))
    assert np.abs(off).max() <= 1e-10


def test_derivative_evaluation():
    b = legendre_basis(5)
    x = np.linspace(-0.9, 0.9, 7)
    h = 1e-6
    numeric = (b.evaluate(x + h) - b.evaluate(x - h)) / (2 * h)
    assert np.abs(numeric - b.evaluate(x) @ b.derivative).max() <= 1e-6
    bh = hermite_basis(5)
    numeric = (bh.evaluate(x + h) - bh.evaluate(x - h)) / (2 * h)
    assert np.abs(numeric - bh.evaluate(x) @ bh.derivative).max() <= 1e-6


@pytest.mark.parametrize("make", [legendre_basis, hermite_basis])
def test_evaluations_are_c_contiguous(make):
    # the Vandermonde arrays underneath are F-ordered; products with the
    # values sum in an order that follows the layout
    b = make(4)
    for pts in (np.linspace(-1, 1, 7), np.linspace(-1, 1, 12).reshape(3, 4)):
        for vals in (b.evaluate(pts), b.evaluate(pts) @ b.derivative):
            assert vals.shape == pts.shape + (4,)
            assert vals.flags.c_contiguous


def test_basis_is_a_kind_and_a_dimension():
    assert [f.name for f in dataclasses.fields(UnivariateBasis)] == ["kind", "dimension"]
    assert legendre_basis(3) == UnivariateBasis("legendre", 3)
    for kind in ("legendre", "hermite"):
        with pytest.raises(BasisError, match="dimension must be >= 1"):
            UnivariateBasis(kind, 0)
    with pytest.raises(BasisError, match="hermite dimension must be <= 171"):
        UnivariateBasis("hermite", 172)
    # a float dimension would build and then fail in numpy at evaluation
    for kind in ("legendre", "hermite"):
        for bad, shown in ((2.5, "2.5"), (3.0, "3.0"), ("3", "'3'"), (True, "True")):
            with pytest.raises(BasisError, match=f"^dimension must be an integer, got {shown}$"):
                UnivariateBasis(kind, bad)
        assert UnivariateBasis(kind, np.int64(3)).evaluate(np.zeros(2)).shape == (2, 3)
    assert UnivariateBasis("legendre", 172).sup_norms[-1] == np.sqrt(343.0)


def test_h1_gramian_is_the_closed_form():
    # I + D^T D is exact up to rounding (relative in the Frobenius norm) at
    # every dimension, also past Hermite d = 92, where a Gauss rule of 4 d
    # nodes overflows; the quadrature agrees where it is finite
    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    k = np.arange(200)
    m = np.minimum.outer(k, k)
    legendre = np.eye(200) + np.where((k[:, None] - k) % 2 == 0,
                                      np.sqrt(np.outer(2 * k + 1, 2 * k + 1)) * m * (m + 1) / 2,
                                      0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(1, 201):
            g = h1_gramian(legendre_basis(d)).matrix
            assert rel(g, legendre[:d, :d]) <= 1e-15
            if d <= 40:
                assert rel(g, reference_h1_gramian(legendre_basis(d))) <= 1e-10
        for d in range(1, 172):
            g = h1_gramian(hermite_basis(d)).matrix
            assert rel(g, np.diag(1.0 + np.arange(d))) <= 1e-15
            if d <= 40:
                assert rel(g, reference_h1_gramian(hermite_basis(d))) <= 1e-10


def test_unknown_basis_kind_rejected():
    with pytest.raises(BasisError, match="unknown basis 'chebyshev'"):
        UnivariateBasis("chebyshev", 2)
