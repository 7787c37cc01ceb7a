import numpy as np
import pytest

from ttrec.bases import legendre_basis
from ttrec.tensor_core import TensorTrain, canonicalize, tt_random
from ttrec.variation import (VariationError, VariationGrid,
                             local_variation_rank1, microstep_variation,
                             uniform_grid, variation_of_span,
                             variation_product, variation_sum)

from oracles import monte_carlo_local_variation, random_direction_sup


def legendre_span_grid(d, n=2001):
    pts, q = uniform_grid(n)
    return variation_of_span(legendre_basis(d).evaluate(pts), pts, quad_weights=q)


def test_constant_span():
    vg = legendre_span_grid(1)
    assert np.allclose(vg.values, 1.0)
    assert vg.sup() == 1.0


def test_degree_restricted_span_sup():
    # span{L_m : (m+1)^2 <= r} has sup-norm floor(sqrt(r))^2 <= r
    for r in (4, 9, 16):
        k = int(np.floor(np.sqrt(r)))
        vg = legendre_span_grid(k)
        assert abs(vg.sup() - k**2) <= 1e-8
        assert vg.sup() <= r


def test_against_random_direction_oracle():
    rng = np.random.default_rng(0)
    pts, q = uniform_grid(801)
    B = legendre_basis(2).evaluate(pts)
    vg = variation_of_span(B, pts, quad_weights=q)
    brute = random_direction_sup(B, 10_000, rng)
    assert brute <= vg.sup() * (1 + 1e-12)
    assert abs(brute - vg.sup()) <= 1e-3 * vg.sup()


def test_empty_basis_rejected():
    with pytest.raises(VariationError):
        variation_of_span(np.empty((5, 0)), np.linspace(-1, 1, 5))


def test_product_rule_matches_product_basis():
    d = 3
    pts1, _ = uniform_grid(41)
    g1, g2 = np.meshgrid(pts1, pts1, indexing="ij")
    pts2 = np.column_stack([g1.ravel(), g2.ravel()])
    B = legendre_basis(d).evaluate(pts1)
    Ba = B[np.repeat(np.arange(41), 41)]
    Bb = B[np.tile(np.arange(41), 41)]
    ka = variation_of_span(Ba, pts2)
    kb = variation_of_span(Bb, pts2)
    prod = variation_product(ka, kb)
    # direct computation with the d^2 product basis functions
    full = np.einsum("ni,nj->nij", Ba, Bb).reshape(-1, d * d)
    direct = variation_of_span(full, pts2)
    assert np.abs(prod.values - direct.values).max() <= 1e-10 * direct.values.max()
    assert np.isclose(prod.sup(), variation_of_span(B, pts1).sup() ** 2)


def test_sum_rule_matches_direct_span():
    pts, q = uniform_grid(501)
    B = legendre_basis(6).evaluate(pts)
    ka = variation_of_span(B[:, :3], pts, quad_weights=q)
    kb = variation_of_span(B[:, 3:], pts, quad_weights=q)
    direct = variation_of_span(B, pts, quad_weights=q)
    summed = variation_sum(ka, kb)
    assert np.abs(summed.values - direct.values).max() <= 1e-10 * direct.values.max()


def test_grid_mismatch_rejected():
    a = legendre_span_grid(2, 101)
    b = legendre_span_grid(2, 102)
    with pytest.raises(VariationError):
        variation_sum(a, b)


def test_integral_of_variation_equals_dimension():
    for d in (1, 3, 5):
        vg = legendre_span_grid(d)
        assert abs(vg.l1_norm() - d) <= 1e-4
        assert vg.sup() >= d - 1e-12  # sup of an orthonormal span >= its dimension


# ---------------------------------------------------------------------------
# local variation constant of rank-1 matrices


def test_local_variation_limits():
    for d in (2, 4, 8):
        big = local_variation_rank1(d, d, 1e3, 41)
        assert abs(big.value - d * d) <= 0.05 * d * d
        small = local_variation_rank1(d, d, 1e-3, 41)
        assert 1.0 <= small.value <= 2 * d + 0.5
        assert big.value <= d * d * (1 + 1e-9)


def test_local_variation_monotone_in_radius():
    values = [local_variation_rank1(4, 4, r, 41).value
              for r in np.geomspace(1e-3, 1e3, 10)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_local_variation_against_monte_carlo():
    rng = np.random.default_rng(1)
    brute = monte_carlo_local_variation(2, 2, 1.0, 1_000_000, rng)
    # the exact inner-gamma solve lets a modest grid match the sampled sup;
    # the coarsest grid undershoots by its alpha/beta spacing only
    est = local_variation_rank1(2, 2, 1.0, 11)
    assert est.value >= brute - 1e-2
    assert abs(est.value - brute) <= 1e-2
    coarse = local_variation_rank1(2, 2, 1.0, 5)
    assert coarse.value >= brute - 0.13


def test_local_variation_rejects_bad_input():
    with pytest.raises(VariationError):
        local_variation_rank1(1, 4, 1.0, 11)
    with pytest.raises(VariationError):
        local_variation_rank1(4, 4, -1.0, 11)
    with pytest.raises(VariationError):
        local_variation_rank1(4, 4, 1.0, 2)


def test_local_variation_rectangular():
    est = local_variation_rank1(3, 5, 1e3, 41)
    assert est.value >= 0.9 * 15
    assert est.table.shape == (41, 41)


# ---------------------------------------------------------------------------
# microstep model-space variation


def unit_direction_tt(order, d, mode, direction):
    comps = []
    for m in range(order):
        c = np.zeros((1, d, 1))
        if m == mode:
            c[0, :, 0] = direction / np.linalg.norm(direction)
        else:
            c[0, 0, 0] = 1.0
        comps.append(c)
    return TensorTrain(tuple(comps), lorth=order - 1, rorth=1)


def diagonal_cloud(n, order):
    g = np.linspace(-1, 1, n)
    return np.repeat(g[:, None], order, axis=1)


def test_microstep_variation_of_unit_tensor():
    # V = e1 x ... x e1 with constant first basis function: the local space
    # at any mode is the univariate span
    d, M = 5, 4
    basis = legendre_basis(d)
    tt = unit_direction_tt(M, d, 0, np.eye(d)[0])
    pts = diagonal_cloud(2001, M)
    for m in range(M):
        vg = microstep_variation(tt, m, basis, pts)
        uni = variation_of_span(basis.evaluate(pts[:, m]), pts[:, m])
        assert np.abs(vg.values - uni.values).max() <= 1e-10 * uni.values.max()
        assert abs(vg.sup() - d**2) <= 1e-8


def test_microstep_variation_after_worst_case_direction():
    # replacing one component by the reproducing-kernel direction at the
    # variation maximizer squares the neighboring local sup-norm
    d, M, m = 5, 4, 1
    basis = legendre_basis(d)
    kernel = basis.evaluate(np.array([1.0]))[0]
    tt = unit_direction_tt(M, d, m, kernel)
    pts = diagonal_cloud(2001, M)
    for n_mode in range(M):
        if n_mode == m:
            continue
        vg = microstep_variation(tt, n_mode, basis, pts)
        assert abs(vg.sup() - d**4) <= 0.02 * d**4
    # the all-ones direction stays below that worst case
    ones_tt = unit_direction_tt(M, d, m, np.ones(d))
    sup_ones = microstep_variation(ones_tt, 0, basis, pts).sup()
    assert sup_ones <= d**4 + 1e-9
    f = basis.evaluate(pts[:, m]) @ (np.ones(d) / np.sqrt(d))
    expect = (f**2).max() * d**2
    assert abs(sup_ones - expect) <= 1e-8 * expect


def test_microstep_variation_matches_span_oracle():
    # generic rank-2 train: compare against the explicit local basis
    rng = np.random.default_rng(2)
    d, M, m = 4, 3, 1
    basis = legendre_basis(d)
    tt = canonicalize(tt_random((d,) * M, (2, 2), rng), m)
    pts = rng.uniform(-1, 1, (200, M))
    vg = microstep_variation(tt, m, basis, pts)
    # explicit local basis functions: embeddings of the unit components
    D = int(np.prod(tt.components[m].shape))
    B = [basis.evaluate(pts[:, k]) for k in range(M)]
    local = np.empty((200, D))
    from ttrec.tensor_core import tt_evaluate_batch
    for j in range(D):
        e = np.zeros(D)
        e[j] = 1.0
        local[:, j] = tt_evaluate_batch(tt.with_component(m, e.reshape(tt.components[m].shape)), B)
    oracle = (local**2).sum(axis=1)
    assert np.abs(vg.values - oracle).max() <= 1e-10 * oracle.max()


def test_microstep_variation_rejects_unorthogonalized():
    rng = np.random.default_rng(3)
    tt = tt_random((3, 3, 3), (2, 2), rng)
    with pytest.raises(Exception):
        microstep_variation(tt, 1, legendre_basis(3), diagonal_cloud(11, 3))


def test_singleton_sum_subadditive():
    # orthogonal singleton classes: the variation of the sum class is
    # bounded by (and generally below) the sum of the variations
    pts, q = uniform_grid(501)
    B = legendre_basis(3).evaluate(pts)
    f, g = B[:, 1], B[:, 2]              # orthonormal, so ||f+g||^2 = 2
    k_sum = (f + g) ** 2 / 2.0
    ka = f**2
    kb = g**2
    assert np.all(k_sum <= ka + kb + 1e-12)
    assert k_sum.max() < (ka + kb).max()  # strict somewhere for singletons


def test_grid_owns_its_arrays():
    # the caller's points and values stay writeable, and writing to them, or
    # to the base of a view passed in, leaves the grid unchanged
    base = np.linspace(-1.0, 1.0, 10)
    vals = np.ones(5)
    vg = VariationGrid(base[::2], vals)
    points, values = vg.points.copy(), vg.values.copy()
    assert base.flags.writeable and vals.flags.writeable
    assert not np.shares_memory(base, vg.points) and not np.shares_memory(vals, vg.values)
    base[:] = 0.0
    vals[:] = 2.0
    assert np.array_equal(vg.points, points) and np.array_equal(vg.values, values)
