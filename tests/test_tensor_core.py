import json
import os
import warnings

import numpy as np
import pytest

from ttrec import tensor_core
from ttrec.tensor_core import (TensorTrain, TensorTrainError, canonicalize,
                               design_matrix, fixed_interface,
                               left_orthogonalize, load_tt, right_orthogonalize,
                               save_tt, tt_evaluate_batch, tt_from_json,
                               tt_random, tt_svd, tt_to_dense, tt_to_json)

from oracles import dense_embedding, unfolding_ranks


def rand_rank1(rng, dims):
    vecs = [rng.standard_normal(n) for n in dims]
    t = vecs[0]
    for v in vecs[1:]:
        t = np.multiply.outer(t, v)
    return t


def test_tt_svd_rank1_outer_product():
    rng = np.random.default_rng(0)
    t = rand_rank1(rng, (5, 4, 3))
    tt = tt_svd(t)
    assert tt.ranks == (1, 1)
    assert np.linalg.norm(tt_to_dense(tt) - t) <= 1e-12 * np.linalg.norm(t)


def test_tt_svd_exact_roundtrip():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((4, 4, 4))
    tt = tt_svd(t)
    assert np.linalg.norm(tt_to_dense(tt) - t) <= 1e-12 * np.linalg.norm(t)


def test_tt_svd_sum_of_two_rank1():
    rng = np.random.default_rng(2)
    t = rand_rank1(rng, (4, 4, 4)) + rand_rank1(rng, (4, 4, 4))
    tt = tt_svd(t)
    assert tt.ranks == (2, 2)
    assert unfolding_ranks(t) == (2, 2)


def test_tt_svd_rejects_bad_input():
    with pytest.raises(TensorTrainError):
        tt_svd(np.empty(0))
    # a non-finite entry is refused before the first SVD
    for bad in (np.nan, np.inf):
        t = np.ones((3, 4, 5))
        t[1, 2, 3] = bad
        with pytest.raises(TensorTrainError, match="nonempty finite tensor"):
            tt_svd(t)


def test_tt_svd_roundtrips_tiny_and_huge_tensors():
    # the Frobenius norm of these tensors underflows to 0 (1e-170) or
    # overflows (1e160); neither may turn them into the zero train
    t = np.random.default_rng(5).standard_normal((3, 4, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1e-170, 1e-160, 1e160):
            back = tt_to_dense(tt_svd(scale * t)) / scale
            assert np.abs(back - t).max() <= 1e-12 * np.abs(t).max()
        zero = tt_svd(np.zeros((3, 4, 5)))
    assert zero.ranks == (1, 1)
    assert not tt_to_dense(zero).any()


def test_tensor_train_rejects_malformed_chains():
    ones = np.ones((1, 2, 1))
    for comps, message in (((ones, np.ones((2, 1))), "component has order 2, expected 3"),
                           ((), "empty tensor train"),
                           ((np.ones((2, 2, 1)),), "boundary ranks must be 1"),
                           ((ones, np.ones((1, 2, 2))), "boundary ranks must be 1"),
                           ((np.ones((1, 2, 2)), np.ones((3, 2, 1))), "rank mismatch")):
        with pytest.raises(TensorTrainError, match=message):
            TensorTrain(comps)
    for markers in ({"lorth": -1}, {"lorth": 3}, {"rorth": 3}, {"rorth": -2}):
        with pytest.raises(TensorTrainError, match="orthogonality markers out of range"):
            TensorTrain((ones, ones), **markers)


def test_train_operations_reject_bad_input():
    rng = np.random.default_rng(21)
    tt = canonicalize(tt_random((3, 4), (2,), rng), 0)
    B = [np.ones((5, 3)), np.ones((5, 4))]
    for m in (-1, 2):
        with pytest.raises(TensorTrainError, match=f"mode {m} out of range for order 2"):
            canonicalize(tt, m)
    for bad in ([np.ones((5, 3)), np.ones((5, 3))], [np.ones((5, 3)), np.ones((4, 4))],
                [np.ones((5, 3))]):
        with pytest.raises(TensorTrainError, match="basis values must have shapes"):
            fixed_interface(tt, 0, bad)
    with pytest.raises(TensorTrainError, match="weights length does not match sample count"):
        design_matrix(fixed_interface(tt, 0, B), weights=np.ones(4))
    with pytest.raises(TensorTrainError, match="no basis values given"):
        tt_evaluate_batch(tt, [])
    with pytest.raises(TensorTrainError, match="not a serialized tensor train"):
        tt_from_json({**tt_to_json(tt), "format": "something-else"})


def test_tt_svd_zero_tensor_convention():
    tt = tt_svd(np.zeros((3, 3, 3)))
    assert tt.ranks == (1, 1)
    assert np.all(tt_to_dense(tt) == 0)


def test_tt_to_dense_trivial_cases():
    ones = TensorTrain(tuple(np.ones((1, 3, 1)) for _ in range(3)))
    assert np.all(tt_to_dense(ones) == 1.0)
    single = TensorTrain((np.arange(4.0).reshape(1, 4, 1),))
    assert np.array_equal(tt_to_dense(single), np.arange(4.0))


def test_tt_to_dense_cap():
    tt = TensorTrain(tuple(np.ones((1, 10, 1)) for _ in range(9)))
    with pytest.raises(TensorTrainError):
        tt_to_dense(tt)


def test_orthogonalize_preserves_and_grams():
    rng = np.random.default_rng(4)
    tt = tt_random((4, 3, 5, 2), (3, 3, 3), rng)
    dense = tt_to_dense(tt)
    lo = left_orthogonalize(tt)
    assert np.linalg.norm(tt_to_dense(lo) - dense) <= 1e-12 * np.linalg.norm(dense)
    for c in lo.components[:-1]:
        mat = c.reshape(-1, c.shape[2])
        assert np.abs(mat.T @ mat - np.eye(mat.shape[1])).max() <= 1e-12
    ro = right_orthogonalize(tt)
    assert np.linalg.norm(tt_to_dense(ro) - dense) <= 1e-12 * np.linalg.norm(dense)
    for c in ro.components[1:]:
        mat = c.reshape(c.shape[0], -1)
        assert np.abs(mat @ mat.T - np.eye(mat.shape[0])).max() <= 1e-12


def test_orthogonalize_already_orthogonal_stable():
    rng = np.random.default_rng(5)
    tt = left_orthogonalize(tt_random((3, 3, 3), (3, 3), rng))
    again = left_orthogonalize(tt)
    dense = tt_to_dense(tt)
    assert np.linalg.norm(tt_to_dense(again) - dense) <= 1e-12 * np.linalg.norm(dense)
    for c in again.components[:-1]:
        mat = c.reshape(-1, c.shape[2])
        assert np.abs(mat.T @ mat - np.eye(mat.shape[1])).max() <= 1e-12


def test_orthogonalize_rank1_moves_norm_to_last():
    comps = (2.0 * np.ones((1, 2, 1)), 3.0 * np.ones((1, 2, 1)))
    lo = left_orthogonalize(TensorTrain(comps))
    first = lo.components[0].reshape(-1)
    assert np.isclose(np.linalg.norm(first), 1.0)
    total = np.linalg.norm(tt_to_dense(lo))
    assert np.isclose(np.linalg.norm(lo.components[1]), total)


def test_fixed_interface_requires_canonical_form():
    rng = np.random.default_rng(8)
    tt = tt_random((3, 3, 3), (2, 2), rng)
    with pytest.raises(TensorTrainError):
        fixed_interface(tt, 1, [np.ones((2, 3))] * 3)


def test_fixed_interface_boundary_and_isometry():
    rng = np.random.default_rng(9)
    tt = canonicalize(tt_random((3, 4, 3, 2), (2, 3, 2), rng), 2)
    pts = rng.uniform(-1, 1, (6,))
    # left interface at the first mode is the scalar 1
    basis_values = [rng.standard_normal((6, n)) for n in tt.dims]
    first = fixed_interface(canonicalize(tt, 0), 0, basis_values)
    assert np.array_equal(first.left, np.ones((6, 1)))
    # isometry of the embedding for any mode
    stacks = fixed_interface(tt, 2, basis_values)
    W = rng.standard_normal(tt.components[stacks.mode].shape)
    embedded = dense_embedding(tt, 2, W)
    assert np.isclose(np.linalg.norm(embedded), np.linalg.norm(W), rtol=1e-12)


def test_fixed_interface_two_modes():
    rng = np.random.default_rng(10)
    tt = canonicalize(tt_random((4, 3), (2,), rng), 1)
    basis_values = [rng.standard_normal((5, 4)), rng.standard_normal((5, 3))]
    L = fixed_interface(tt, 1, basis_values).left
    assert np.allclose(L, basis_values[0] @ tt.components[0][0], atol=1e-12)


def test_design_matrix_single_mode_is_weighted_vandermonde():
    rng = np.random.default_rng(11)
    tt = canonicalize(tt_random((5,), (), rng), 0)
    B = [rng.standard_normal((7, 5))]
    w = rng.uniform(0.5, 2.0, 7)
    A = design_matrix(fixed_interface(tt, 0, B), weights=w)
    assert np.allclose(A, np.sqrt(w)[:, None] * B[0], atol=1e-14)


def test_design_matrix_constant_rows_for_ones():
    rng = np.random.default_rng(12)
    tt = canonicalize(tt_random((3, 3, 3), (1, 1), rng), 1)
    B = [np.ones((4, 3)) for _ in range(3)]
    A = design_matrix(fixed_interface(tt, 1, B))
    assert np.allclose(A, A[0][None, :], atol=1e-14)


def test_design_matrix_matches_evaluation():
    rng = np.random.default_rng(13)
    tt = canonicalize(tt_random((4, 4, 4, 4), (2, 3, 2), rng), 2)
    pts = rng.uniform(-1, 1, (9, 4))
    B = [np.cos((m + 1) * pts[:, m])[:, None] ** np.arange(4)[None, :] for m in range(4)]
    A = design_matrix(fixed_interface(tt, 2, B))
    direct = tt_evaluate_batch(tt, B)
    assert np.abs(A @ tt.components[2].ravel() - direct).max() <= 1e-12 * max(np.abs(direct).max(), 1)


def test_roundtrip_property_small_tensors():
    rng = np.random.default_rng(16)
    for _ in range(20):
        order = rng.integers(3, 5)
        dims = tuple(rng.integers(2, 7) for _ in range(order))
        t = rng.standard_normal(dims)
        tt = tt_svd(t)
        err = np.linalg.norm(tt_to_dense(tt) - t) / np.linalg.norm(t)
        assert err <= 1e-10


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    tt = tt_random((3, 4, 2), (2, 2), rng)
    path = tmp_path / "model.tt"
    save_tt(tt, path)
    back = load_tt(path)
    assert back.dims == tt.dims
    assert back.ranks == tt.ranks
    assert np.array_equal(tt_to_dense(back), tt_to_dense(tt))


def test_save_tt_interrupted_keeps_previous_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(18)
    path = tmp_path / "model.tt"
    save_tt(tt_random((3, 4), (2,), rng), path)
    before = path.read_bytes()
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    assert os.stat(path).st_mode == os.stat(plain).st_mode
    plain.unlink()

    def interrupted(doc, fh):
        fh.write(json.dumps(doc)[:20])
        raise KeyboardInterrupt

    monkeypatch.setattr(tensor_core.json, "dump", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_tt(tt_random((3, 4), (2,), rng), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.tt"]


def test_components_are_readonly():
    rng = np.random.default_rng(18)
    tt = tt_random((3, 3), (2,), rng)
    with pytest.raises(ValueError):
        tt.components[0][0, 0, 0] = 1.0


def test_train_owns_its_components():
    # the caller's arrays stay writeable, and writing to them, or to the base
    # of a view passed in, leaves the train unchanged
    rng = np.random.default_rng(19)
    base = rng.standard_normal(2 * 3 * 2)
    c0, c1 = base[:6].reshape(1, 3, 2), rng.standard_normal((2, 3, 1))
    tt = TensorTrain((c0, c1))
    before = [c.copy() for c in tt.components]
    assert c0.flags.writeable and c1.flags.writeable
    assert not any(np.shares_memory(c, own) for c in (base, c1) for own in tt.components)
    base[:] = 0.0
    c1[:] = 0.0
    assert all(np.array_equal(a, b) for a, b in zip(tt.components, before))
