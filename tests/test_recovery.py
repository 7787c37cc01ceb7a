import dataclasses
import re

import numpy as np
import pytest

from ttrec.bases import diag_sup_gramian, gramian_orthonormalize, hermite_basis, legendre_basis
from ttrec.recovery import (EIG_FLOOR, PINV_RTOL, RecoveryConfig, RecoveryError,
                            SampleSet, _ridge_refits, _split_samples,
                            local_gramian, microstep_l2, microstep_ls,
                            microstep_r2als, microstep_rals, predict,
                            rank_adapt, recover, relative_error)
from ttrec.sparse_solver import (LassoProblem, _fold_grams, cross_validate,
                                 cv_select_lambda, debias_on_support, fold_indices,
                                 lambda_grid, lasso_solve)
from ttrec.tensor_core import (TensorTrain, TensorTrainError, canonicalize,
                               design_matrix, fixed_interface, tt_evaluate_batch,
                               tt_random)
from ttrec.variation import microstep_variation

from oracles import reference_ridge_cv


def exp_type_rank1(basis, order, scale=1.0 / 3.0):
    x, w = basis.quadrature(200)
    c = basis.evaluate(x).T @ (w * np.exp(scale * x))
    return TensorTrain(tuple(c.reshape(1, basis.dimension, 1) for _ in range(order)))


def make_samples(tt, basis, n, rng):
    pts = rng.uniform(-1, 1, (n, tt.order))
    vals = tt_evaluate_batch(tt, [basis.evaluate(pts[:, m]) for m in range(tt.order)])
    return SampleSet(pts, vals)


# ---------------------------------------------------------------------------
# microsteps


def test_microstep_ls_single_mode_is_polynomial_regression():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 5))
    u = rng.standard_normal(30)
    v, lam = microstep_ls(A, u)
    assert lam == 0.0
    ref, *_ = np.linalg.lstsq(A, u, rcond=None)
    assert np.abs(v - ref).max() <= 1e-10


def test_microstep_ls_underdetermined_is_unpenalized_minimum_norm():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 9))
    u = rng.standard_normal(4)
    v, lam = microstep_ls(A, u)
    assert lam == 0.0
    ref, *_ = np.linalg.lstsq(A, u, rcond=None)  # minimum-norm
    assert np.abs(v - ref).max() <= 1e-10


def test_microstep_ls_never_increases_objective():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((25, 6))
    u = rng.standard_normal(25)
    v, _ = microstep_ls(A, u)
    for _ in range(10):
        other = rng.standard_normal(6)
        assert np.linalg.norm(A @ v - u) <= np.linalg.norm(A @ other - u) + 1e-12


def test_duplicate_samples_equal_doubled_weights():
    rng = np.random.default_rng(3)
    basis = legendre_basis(4)
    tt = canonicalize(tt_random((4, 4), (2,), rng), 0)
    pts = rng.uniform(-1, 1, (10, 2))
    B = [basis.evaluate(pts[:, m]) for m in range(2)]
    u = rng.standard_normal(10)
    stacks = fixed_interface(tt, 0, B)
    A_dup = np.vstack([design_matrix(stacks), design_matrix(stacks)])
    v_dup, _ = microstep_ls(A_dup, np.concatenate([u, u]))
    A_w = design_matrix(stacks, weights=2.0 * np.ones(10))
    v_w, _ = microstep_ls(A_w, np.sqrt(2.0) * u)
    assert np.abs(v_dup - v_w).max() <= 1e-10


def test_als_unchanged_by_power_of_two_weights():
    # weights 2^k scale the Gram, its ridge and A^T u by 2^k exactly, so the
    # weighted least-squares fit moves by no bit, however small the weights
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (60, 3))
    values = np.exp(pts.sum(axis=1))
    cfg = RecoveryConfig(algorithm="als", max_rank=2, max_sweeps=6, seed=0,
                         test_fraction=1 / 6)
    reports = [recover(SampleSet(pts, values, np.full(60, 2.0 ** k)), cfg, legendre_basis(4))
               for k in (0, 200, -200, 600, -600)]
    assert reports[0].test_error is not None
    assert reports[0].val_errors[-1] < 0.5    # not the zero model
    for report in reports[1:]:
        assert report.train_errors == reports[0].train_errors
        assert report.val_errors == reports[0].val_errors
        assert report.test_error == reports[0].test_error
        assert all(np.array_equal(a, b) for a, b in
                   zip(report.tt.components, reports[0].tt.components))


def test_microstep_ls_zero_design_gives_zero_vector():
    v, lam = microstep_ls(np.zeros((8, 3)), np.ones(8))
    assert lam == 0.0 and np.array_equal(v, np.zeros(3))


def test_microstep_l2_limits():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((40, 5))
    truth = rng.standard_normal(5)
    u = A @ truth                       # noiseless: CV picks the unpenalized fit
    v, lam = microstep_l2(A, u, RecoveryConfig(cv_folds=5, seed=0))
    assert lam == 0.0
    assert np.abs(v - truth).max() <= 1e-8
    ls, _ = microstep_ls(A, u)
    assert np.abs(v - ls).max() <= 1e-8


def test_microstep_l2_shrinks_orthogonal_target_to_zero():
    rng = np.random.default_rng(25)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 6)))
    v, lam = microstep_l2(Q[:, :3], np.zeros(20), RecoveryConfig(cv_folds=5, seed=0))
    assert np.all(v == 0.0) and lam == 0.0
    u = rng.standard_normal(20)
    u -= Q[:, :3] @ (Q[:, :3].T @ u)   # orthogonal to the design columns
    v, _ = microstep_l2(Q[:, :3], u, RecoveryConfig(cv_folds=5, seed=0))
    assert np.abs(v).max() <= 1e-12 * np.abs(u).max()


def test_microstep_l2_matches_exhaustive_cv_oracle():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 4))
    u = A @ rng.standard_normal(4) + 0.3 * rng.standard_normal(30)
    folds, seed = 5, 7
    v, lam = microstep_l2(A, u, RecoveryConfig(cv_folds=folds, seed=seed))
    lam_max = 2.0 * np.abs(A.T @ u).max()
    lams = np.append(np.geomspace(lam_max, lam_max * 1e-4, 25), 0.0)
    idx = fold_indices(len(u), folds, seed)
    means = []
    for l in lams:
        errs = []
        for hold in idx:
            mask = np.ones(len(u), bool)
            mask[hold] = False
            At, ut = A[mask], u[mask]
            w = np.linalg.solve(At.T @ At + l * np.eye(4), At.T @ ut) if l > 0 \
                else np.linalg.lstsq(At, ut, rcond=None)[0]
            r = u[hold] - A[hold] @ w
            errs.append(r @ r / len(hold))
        means.append(np.mean(errs))
    assert np.isclose(lam, lams[int(np.argmin(means))])


def test_cv_microsteps_follow_the_config():
    # every CV setting of a microstep is the config's: each returns what the
    # CV driver gives with the config's folds, seed and grid passed directly
    cfg = RecoveryConfig(cv_folds=4, seed=2, lambda_grid_decades=2.0, lambda_grid_points=5)
    rng = np.random.default_rng(38)
    A = rng.standard_normal((30, 6))
    u = A @ rng.standard_normal(6) + 0.2 * rng.standard_normal(30)
    grid = lambda_grid(A, u, 2.0, 5)
    assert len(grid) == 5

    v, lam = microstep_l2(A, u, cfg)
    ridge = cross_validate(A, u, np.append(grid, 0.0), 4, 2, _ridge_refits)
    assert lam == ridge.chosen and np.array_equal(v, ridge.fit)
    assert lam == 0.0 or lam in grid

    v, lam = microstep_r2als(A, u, cfg)
    lasso = cv_select_lambda(A, u, folds=4, seed=2, decades=2.0, points=5)
    assert lam == lasso.chosen and lam in grid
    assert np.array_equal(v, debias_on_support(A, u, lasso.fit))

    H = np.diag(np.arange(1.0, 7.0))
    v, lam = microstep_rals(A, u, H, cfg)
    s, Q = np.linalg.eigh(H)
    W = Q / np.sqrt(np.maximum(s, EIG_FLOOR))
    AW = A @ W
    lasso = cv_select_lambda(AW, u, folds=4, seed=2, decades=2.0, points=5)
    assert lam == lasso.chosen and lam in lambda_grid(AW, u, 2.0, 5)
    assert np.array_equal(v, W @ debias_on_support(AW, u, lasso.fit))


def _ridge_problem(rng, kind):
    n, p = {"well-posed": (240, 20), "square folds": (80, 72),
            "fewer fold rows than p": (70, 72), "duplicated column": (60, 8)}[kind]
    A = rng.standard_normal((n, p))
    if kind == "duplicated column":
        A[:, 5] = A[:, 2]
    return A, A @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)


@pytest.mark.parametrize("kind", ["well-posed", "square folds", "fewer fold rows than p",
                                  "duplicated column"])
def test_ridge_cv_matches_reference_fold_loop(kind):
    # the batched scorer against the per-fold eigh/lstsq loop it replaced.
    # Measured over 300 problems of each kind: grid lambdas within 2.3e-15
    # relative; lam = 0 within 1.4e-13, except on square folds, where the
    # Gram's eigenvectors carry cond(G_f) eps of error (up to 2.2 eps
    # cond(G_f), 6.2e-5); the chosen lambda always equal.  A fold whose Gram
    # has an eigenvalue under the pseudo-inverse floor that lstsq's rank
    # cutoff on the fold design keeps (1 square-fold problem in 300) gets a
    # different lam = 0 fit by design, so there only the choice is compared.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(27)
    for seed in range(5):
        A, u = _ridge_problem(rng, kind)
        lams, ref_errors, ref_lam = reference_ridge_cv(A, u, 10, seed)
        report = cross_validate(A, u, lams, 10, seed, _ridge_refits)
        assert report.chosen == ref_lam
        v, lam = microstep_l2(A, u, RecoveryConfig(cv_folds=10, seed=seed))
        assert lam == ref_lam
        # the fit read from the stacked eigh is bit for bit the separate
        # full-data eigendecomposition's (least squares at lam = 0)
        if lam == 0.0:
            separate = np.linalg.lstsq(A, u, rcond=None)[0]
        else:
            e, V = np.linalg.eigh(A.T @ A)
            separate = V @ (V.T @ (A.T @ u) / (np.maximum(e, 0.0) + lam))
        assert np.array_equal(v, separate)
        rel = np.abs(report.mean_errors - ref_errors) / ref_errors
        assert rel[:-1].max() <= 1e-13
        holds = fold_indices(len(u), 10, seed)
        e = np.linalg.eigvalsh(_fold_grams(A, u, holds)[0][:-1])   # the folds' Grams
        keep = e > PINV_RTOL * e[:, -1:]
        ranks = [np.linalg.matrix_rank(np.delete(A, hold, axis=0)) for hold in holds]
        if np.array_equal(keep.sum(axis=1), ranks):
            cond = (e[:, -1] / np.where(keep, e, np.inf).min(axis=1)).max()
            assert rel[-1] <= 1e-12 + 10 * eps * cond


def test_cv_ties_go_to_largest_lambda_in_both_cvs():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((60, 8))
    # the driver's rule, whatever the engine: on y = A[:, 0] the refit e_0
    # scores exactly 0, at lams[1] and lams[3]; the first wins
    lams = np.array([8.0, 4.0, 2.0, 1.0])
    e_0 = np.eye(8)[0]

    def engine(G, b, lams):
        F = len(G) - 1
        grid = np.tile(np.arange(4), F)
        fits = np.tile([0.0 * e_0, e_0, 0.5 * e_0, e_0], (F, 1))
        return np.repeat(np.arange(F), 4), grid, grid + 1, fits, lambda k: e_0

    tied = cross_validate(A, A[:, 0], lams, 5, 0, engine)
    assert tied.chosen == 4.0 and np.array_equal(tied.fit, e_0)
    assert np.array_equal(np.flatnonzero(tied.mean_errors == 0.0), [1, 3])
    # LASSO: a noiseless one-sparse target refits exactly on {3} over most
    # of the grid, so those lambdas tie bit for bit
    truth = np.zeros(8)
    truth[3] = 2.0
    lasso = cv_select_lambda(A, A @ truth, folds=10, seed=0)
    best = np.flatnonzero(lasso.mean_errors == lasso.mean_errors.min())
    assert len(best) > 1 and lasso.chosen == lasso.lambdas[best[0]]
    # ridge: with a zero target every fold's fit is zero at every penalty
    ridge = cross_validate(A, np.zeros(60), lams, 5, 0, _ridge_refits)
    assert np.all(ridge.mean_errors == 0.0) and ridge.chosen == lams[0]


def test_local_gramian_identity_metric():
    rng = np.random.default_rng(6)
    tt = canonicalize(tt_random((4, 4, 4), (2, 2), rng), 1)
    H = local_gramian(tt, 1, np.eye(4))
    assert np.abs(H - np.eye(H.shape[0])).max() <= 1e-12


def test_local_gramian_two_mode_diagonal():
    rng = np.random.default_rng(7)
    tt = canonicalize(tt_random((3, 3), (1,), rng), 0)
    g = np.diag([1.0, 2.0, 5.0])
    H = local_gramian(tt, 0, g)
    w = tt.components[1][:, :, 0][0]    # right interface vector, unit norm
    expect = np.kron(g, np.array([[w @ g @ w]]))
    assert np.abs(H - expect).max() <= 1e-12
    assert np.abs(H - np.diag(np.diag(H))).max() <= 1e-12


def test_local_gramian_rejects_bad_input():
    rng = np.random.default_rng(9)
    tt = tt_random((3, 3, 3), (2, 2), rng)
    with pytest.raises(RecoveryError, match="train is not canonical at mode 1"):
        local_gramian(tt, 1, np.eye(3))
    # a zero metric empties the first interface pushed: the left one unless
    # the core is the first mode
    for m, side in ((1, "left"), (0, "right")):
        with pytest.raises(RecoveryError, match=f"{side} interface Gramian vanished"):
            local_gramian(canonicalize(tt, m), m, np.zeros((3, 3)))
    with pytest.raises(RecoveryError, match="local Gramian scale overflows"):
        local_gramian(canonicalize(tt, 1), 1, 1e200 * np.eye(3))


def test_local_gramian_symmetric():
    rng = np.random.default_rng(8)
    tt = canonicalize(tt_random((4, 4, 4, 4), (3, 2, 3), rng), 2)
    g = np.diag([1.0, 3.0, 5.0, 7.0])
    H = local_gramian(tt, 2, g)
    assert np.array_equal(H, H.T)
    assert np.min(np.linalg.eigvalsh(H)) >= -1e-10


def test_microstep_rals_identity_equals_r2als():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((40, 6))
    u = rng.standard_normal(40)
    v1, lam1 = microstep_rals(A, u, np.eye(6), RecoveryConfig(cv_folds=5, seed=0))
    v2, lam2 = microstep_r2als(A, u, RecoveryConfig(cv_folds=5, seed=0))
    assert np.isclose(lam1, lam2)
    assert np.abs(v1 - v2).max() <= 1e-8
    # a general SPD Gramian: rals is r2als on the rotated, unweighted
    # design, bit for bit
    R = rng.standard_normal((6, 6))
    H = R @ R.T + 0.1 * np.eye(6)
    s, Q = np.linalg.eigh(H)
    W = Q / np.sqrt(np.maximum(s, EIG_FLOOR))
    v3, lam3 = microstep_rals(A, u, H, RecoveryConfig(cv_folds=5, seed=0))
    v4, lam4 = microstep_r2als(A @ W, u, RecoveryConfig(cv_folds=5, seed=0))
    assert np.array_equal(v3, W @ v4) and lam3 == lam4


def test_lasso_microsteps_run_one_homotopy_pass(monkeypatch):
    # the cross-validation folds and the full-data fit share one stack
    import ttrec.sparse_solver as sp
    homotopy = sp._homotopy
    stacks = []

    def counting(G, b, lams):
        stacks.append(len(G))
        return homotopy(G, b, lams)

    monkeypatch.setattr(sp, "_homotopy", counting)
    rng = np.random.default_rng(28)
    A = rng.standard_normal((40, 6))
    u = A @ rng.standard_normal(6) + 0.1 * rng.standard_normal(40)
    microstep_r2als(A, u, RecoveryConfig(cv_folds=5, seed=0))
    assert stacks == [6]
    stacks.clear()
    microstep_rals(A, u, np.diag(np.arange(1.0, 7.0)), RecoveryConfig(cv_folds=5, seed=0))
    assert stacks == [6]


def test_microstep_rals_diagonal_equals_weighted_lasso():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((25, 2))
    u = rng.standard_normal(25)
    H = np.diag([1.0, 4.0])
    v, lam = microstep_rals(A, u, H, RecoveryConfig(cv_folds=5, seed=3))
    omega = np.array([1.0, 2.0])
    raw = lasso_solve(LassoProblem(A, u, omega, lam))
    ref = debias_on_support(A, u, raw)
    assert np.abs(v - ref).max() <= 1e-8


def test_microstep_rals_rotation_invariance():
    rng = np.random.default_rng(11)
    d, M, m = 4, 3, 1
    basis = legendre_basis(d)
    tt = canonicalize(tt_random((d,) * M, (3, 3), rng), m)
    pts = rng.uniform(-1, 1, (60, M))
    B = [basis.evaluate(pts[:, k]) for k in range(M)]
    u = rng.standard_normal(60)
    g = diag_sup_gramian(basis).matrix
    A = design_matrix(fixed_interface(tt, m, B))
    H = local_gramian(tt, m, g)
    v, _ = microstep_rals(A, u, H, RecoveryConfig(cv_folds=5, seed=0))
    vals = A @ v
    # orthogonal gauge on both interfaces
    QL = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    QR = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    comps = [np.array(c) for c in tt.components]
    comps[m - 1] = np.tensordot(comps[m - 1], QL, axes=(2, 0))
    comps[m] = np.einsum("lq,ler,rs->qes", QL, comps[m], QR)
    comps[m + 1] = np.tensordot(QR.T, comps[m + 1], axes=(1, 0))
    tt2 = TensorTrain(tuple(comps), lorth=m, rorth=m + 1)
    A2 = design_matrix(fixed_interface(tt2, m, B))
    H2 = local_gramian(tt2, m, g)
    v2, _ = microstep_rals(A2, u, H2, RecoveryConfig(cv_folds=5, seed=0))
    assert np.abs(A2 @ v2 - vals).max() <= 1e-8 * max(1.0, np.abs(vals).max())


def test_lasso_microstep_objective_decomposition():
    # the LASSO stage never increases its penalized objective relative to
    # any candidate; the debias stage never increases the plain residual
    # relative to the LASSO solution
    rng = np.random.default_rng(24)
    A = rng.standard_normal((30, 8))
    u = rng.standard_normal(30)
    from ttrec.sparse_solver import cv_select_lambda
    cv = cv_select_lambda(A, u, folds=5, seed=0)
    raw = lasso_solve(LassoProblem(A, u, np.ones(8), cv.chosen))
    deb = debias_on_support(A, u, raw)

    def penalized(v):
        r = u - A @ v
        return r @ r + cv.chosen * np.abs(v).sum()

    for _ in range(10):
        candidate = rng.standard_normal(8)
        assert penalized(raw) <= penalized(candidate) + 1e-9
    assert np.linalg.norm(u - A @ deb) <= np.linalg.norm(u - A @ raw) + 1e-12
    assert set(np.nonzero(deb)[0]) <= set(np.nonzero(raw)[0])


def test_microstep_r2als_recovers_sparse_component():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((50, 10))
    truth = np.zeros(10)
    truth[[2, 7]] = [1.5, -0.8]
    u = A @ truth
    v, lam = microstep_r2als(A, u, RecoveryConfig(cv_folds=5, seed=0))
    assert np.abs(v - truth).max() <= 1e-8


# ---------------------------------------------------------------------------
# rank adaptation


def test_rank_adapt_grows_by_buffer_when_all_stable():
    rng = np.random.default_rng(13)
    # component with equal singular values: both stable
    U = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    comp = U.reshape(1, 6, 2) * 3.0
    tt = TensorTrain((comp, rng.standard_normal((2, 6, 1))), lorth=0, rorth=1)
    grown = rank_adapt(tt, 0, theta=0.1, buffer=1, max_rank=5, rng=rng)
    assert grown.ranks == (3,)
    grown2 = rank_adapt(canonicalize(grown, 0), 0, theta=0.1, buffer=1,
                        max_rank=3, rng=rng)
    assert grown2.ranks == (3,)  # capped
    # two injected columns: the second is orthogonalized against the first too
    grown3 = rank_adapt(tt, 0, theta=0.1, buffer=2, max_rank=5, rng=rng)
    assert grown3.ranks == (4,)
    core = grown3.components[0].reshape(6, 4)
    assert np.abs(core.T @ core - np.eye(4)).max() <= 1e-12


def test_rank_adapt_buffer_zero_truncates():
    rng = np.random.default_rng(14)
    mat = np.linalg.qr(rng.standard_normal((8, 3)))[0] @ np.diag([1.0, 0.5, 1e-3])
    comp = mat.reshape(2, 4, 3)
    tt = TensorTrain((comp.reshape(1, 8, 3)[:, :, :], rng.standard_normal((3, 4, 1))),
                     lorth=0, rorth=1)
    adapted = rank_adapt(tt, 0, theta=0.1, buffer=0, max_rank=8, rng=rng)
    assert adapted.ranks == (2,)   # 1e-3 < 0.1 * 1.0 dropped


def test_advanced_stacks_match_one_shot_rows():
    # two sweeps of the engine's steps on a training subset, every bond grown
    # by an injected direction: the stacks advanced one mode per microstep
    # give the rows of stacks built from scratch at that mode, bit for bit
    rng = np.random.default_rng(31)
    M, basis = 4, legendre_basis(4)
    pts = rng.uniform(-1, 1, (60, M))
    train = np.sort(rng.permutation(60)[:45])
    B_train = [basis.evaluate(pts[train, k]) for k in range(M)]
    w_train = rng.uniform(0.5, 2.0, 60)[train]
    u = np.sqrt(w_train) * np.exp(pts[train].sum(axis=1) / 3.0)
    tt = tt_random((4,) * M, (1,) * (M - 1), rng)
    ranks = []
    for sweep in range(2):
        tt = canonicalize(tt, 0)
        stacks = fixed_interface(tt, 0, B_train)
        for m in range(M):
            A = design_matrix(stacks, w_train)
            assert np.array_equal(A, design_matrix(fixed_interface(tt, m, B_train), w_train))
            v, _ = microstep_ls(A, u)
            tt = tt.with_component(m, v.reshape(tt.components[m].shape))
            with pytest.raises(TensorTrainError):   # canonical at m, not at m + 1
                stacks.advance(tt)
            assert stacks.mode == m
            if m < M - 1:
                tt = rank_adapt(tt, m, theta=0.5, buffer=1, max_rank=3, rng=rng)
                stacks.advance(tt)
        ranks.append(tt.ranks)
    assert ranks[0] == (2, 2, 2) and 3 in ranks[1]   # injected again, up to max_rank
    with pytest.raises(TensorTrainError):   # no mode right of the last
        stacks.advance(canonicalize(tt, M - 1))


def test_rank_adapt_requires_canonical_form():
    rng = np.random.default_rng(15)
    tt = tt_random((4, 4, 4), (2, 2), rng)
    with pytest.raises(RecoveryError):
        rank_adapt(tt, 1, 0.1, 1, max_rank=3, rng=rng)
    with pytest.raises(RecoveryError, match="no bond to adapt right of the last mode"):
        rank_adapt(canonicalize(tt, 2), 2, 0.1, 1, max_rank=3, rng=rng)


def test_rank_adapt_synthetic_rank2_settles_at_three():
    rng = np.random.default_rng(16)
    basis = legendre_basis(5)
    c1 = np.array([1.0, 0.5, 0.0, 0.0, 0.0])
    c2 = np.array([0.3, -0.4, 0.8, 0.0, 0.0])
    comps = [np.stack([c1, c2], axis=-1).reshape(1, 5, 2)]
    comps.append(np.stack([np.eye(5)[0] * 2.0, np.eye(5)[1]], axis=0).reshape(2, 5, 1))
    comps.append(np.ones((1, 5, 1)))
    truth = TensorTrain((comps[0], comps[1].reshape(2, 5, 1)))
    samples = make_samples(truth, basis, 400, rng)
    cfg = RecoveryConfig(algorithm="als", max_rank=6, max_sweeps=8,
                         theta=0.1, buffer=1, seed=2)
    report = recover(samples, cfg, basis)
    assert report.rank_history[-1] == (3,)   # 2 stable + 1 unstable
    assert min(report.val_errors) <= 1e-8


# ---------------------------------------------------------------------------
# full recovery


@pytest.mark.parametrize("algorithm,sweeps", [
    # the sparsity-restricted microsteps lock onto the exact support at
    # once; unrestricted least squares / ridge contract geometrically from
    # the random start and need a few more passes
    ("als", 12), ("als_l2", 12), ("rals", 2), ("r2als", 2),
])
def test_constant_target_recovers_fast(algorithm, sweeps):
    rng = np.random.default_rng(17)
    M = 3
    pts = rng.uniform(-1, 1, (200, M))
    samples = SampleSet(pts, np.full(200, 2.5))
    cfg = RecoveryConfig(algorithm=algorithm, max_rank=2, max_sweeps=sweeps, seed=1)
    report = recover(samples, cfg, legendre_basis(5))
    test_pts = rng.uniform(-1, 1, (100, M))
    err = relative_error(report.predict(test_pts), np.full(100, 2.5))
    assert err <= 1e-8


def test_exp_sum_analog_recovery_single_seed():
    rng = np.random.default_rng(18)
    basis = legendre_basis(8)
    truth = exp_type_rank1(basis, 6)
    samples = make_samples(truth, basis, 300, rng)
    cfg = RecoveryConfig(algorithm="r2als", max_rank=3, max_sweeps=25, seed=0)
    report = recover(samples, cfg, basis)
    tpts = rng.uniform(-1, 1, (1000, 6))
    tvals = tt_evaluate_batch(truth, [basis.evaluate(tpts[:, m]) for m in range(6)])
    assert relative_error(report.predict(tpts), tvals) < 1e-3


def test_underdetermined_run_flags_and_returns():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-1, 1, (10, 4))
    samples = SampleSet(pts, rng.standard_normal(10))
    cfg = RecoveryConfig(algorithm="als", max_rank=3, max_sweeps=3, seed=0)
    report = recover(samples, cfg, legendre_basis(6))
    assert report.underdetermined
    assert report.best_sweep >= 0
    assert report.tt is not None


@pytest.mark.parametrize("algorithm,microstep", [
    ("als", "microstep_ls"), ("als_l2", "microstep_l2"),
    ("rals", "microstep_rals"), ("r2als", "microstep_r2als"),
])
def test_sweeps_call_the_module_attributes(algorithm, microstep, monkeypatch):
    # a sweep looks its microstep (and rals its local Gramian) up by module
    # attribute at every call: a replaced attribute sees every microstep
    import ttrec.recovery as recovery
    calls = dict.fromkeys(["microstep_ls", "microstep_l2", "microstep_rals",
                           "microstep_r2als", "local_gramian"], 0)

    def counting(name):
        fn = getattr(recovery, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(recovery, name, counting(name))
    M = 4
    rng = np.random.default_rng(34)
    pts = rng.uniform(-1, 1, (60, M))
    samples = SampleSet(pts, np.exp(pts.sum(axis=1) / 4.0))
    cfg = RecoveryConfig(algorithm=algorithm, max_rank=2, max_sweeps=1, cv_folds=5, seed=0)
    report = recover(samples, cfg, legendre_basis(4))
    assert report.aborted is None and len(report.lambdas) == 1
    expect = dict.fromkeys(calls, 0)
    expect[microstep] = M
    if algorithm == "rals":
        expect["local_gramian"] = M
    assert calls == expect


def test_r2als_designs_on_the_basis_values_times_T(monkeypatch):
    # r2als's first design matrix is, to the bit, the one built from the
    # caller's basis values times the Gramian-orthonormal change of basis T
    import ttrec.recovery as recovery
    first = {}
    microstep, interface = recovery.microstep_r2als, recovery.fixed_interface

    def spy_microstep(A, *args, **kwargs):
        first.setdefault("A", A.copy())
        return microstep(A, *args, **kwargs)

    def spy_interface(tt, m, B):
        first.setdefault("tt", tt)
        return interface(tt, m, B)

    monkeypatch.setattr(recovery, "microstep_r2als", spy_microstep)
    monkeypatch.setattr(recovery, "fixed_interface", spy_interface)
    M = 3
    basis = legendre_basis(4)
    rng = np.random.default_rng(37)
    pts = rng.uniform(-1, 1, (60, M))
    samples = SampleSet(pts, np.exp(pts.sum(axis=1) / 3.0))
    cfg = RecoveryConfig(algorithm="r2als", max_rank=2, max_sweeps=1, seed=0)
    train = _split_samples(60, cfg)[0]
    assert recover(samples, cfg, basis).aborted is None
    T = gramian_orthonormalize(basis, diag_sup_gramian(basis))
    B = [(basis.evaluate(pts[:, m]) @ T)[train] for m in range(M)]
    A = design_matrix(fixed_interface(first["tt"], 0, B), samples.weights[train])
    assert np.array_equal(first["A"], A)


def test_hermite_diag_sup_falls_back_to_h1():
    # a Hermite basis has infinite sup-norms, so the diag_sup Gramian is
    # unavailable and both Gramian-based algorithms use h1
    rng = np.random.default_rng(32)
    pts = rng.standard_normal((120, 3))
    samples = SampleSet(pts, np.exp(pts.sum(axis=1) / 4.0))
    for algorithm in ("rals", "r2als"):
        reports = [recover(samples, RecoveryConfig(algorithm=algorithm, max_rank=2,
                                                   max_sweeps=3, seed=0, gramian=g),
                           hermite_basis(4))
                   for g in ("diag_sup", "h1")]
        assert reports[0].val_errors == reports[1].val_errors
        assert reports[0].lambdas == reports[1].lambdas
        assert all(np.array_equal(a, b) for a, b in
                   zip(reports[0].tt.components, reports[1].tt.components))


@pytest.mark.parametrize("algorithm", ["als", "als_l2", "rals", "r2als"])
def test_all_zero_values_recover_the_zero_function(algorithm):
    # the start iterate falls back to scale 1 and the relative error to the
    # absolute one; every algorithm fits zero at once
    rng = np.random.default_rng(33)
    samples = SampleSet(rng.uniform(-1, 1, (80, 3)), np.zeros(80))
    cfg = RecoveryConfig(algorithm=algorithm, max_rank=2, max_sweeps=3, seed=0)
    report = recover(samples, cfg, legendre_basis(4))
    assert report.aborted is None and report.best_sweep == 0
    assert report.val_errors == [0.0] * len(report.val_errors)
    assert np.all(report.predict(rng.uniform(-1, 1, (50, 3))) == 0.0)


@pytest.mark.parametrize("algorithm", ["als", "als_l2", "rals", "r2als"])
def test_zero_weight_partition_raises(algorithm):
    # a weightless validation set would score every sweep 0.0 and keep sweep
    # 0, a weightless test set would report test error 0.0, and weightless
    # training rows would report 0.0 everywhere
    rng = np.random.default_rng(34)
    pts = rng.uniform(-1, 1, (60, 3))
    vals = np.exp(pts.sum(axis=1))
    cfg = RecoveryConfig(algorithm=algorithm, max_rank=2, max_sweeps=3, seed=0)
    tested = dataclasses.replace(cfg, test_fraction=0.2)
    val = _split_samples(60, cfg)[1]
    test = _split_samples(60, tested)[2]
    w_val, w_test = np.ones(60), np.ones(60)
    w_val[val] = 0.0
    w_test[test] = 0.0
    with pytest.raises(RecoveryError, match="the validation partition has zero total weight"):
        recover(SampleSet(pts, vals, w_val), cfg, legendre_basis(4))
    with pytest.raises(RecoveryError, match="the test partition has zero total weight"):
        recover(SampleSet(pts, vals, w_test), tested, legendre_basis(4))
    with pytest.raises(RecoveryError, match="the training partition has zero total weight"):
        recover(SampleSet(pts, vals, np.zeros(60)), cfg, legendre_basis(4))
    # weight on a single held-out sample is enough; an empty test set reports none
    w_val[val[0]] = 1.0
    w_test[test[0]] = 1.0
    report = recover(SampleSet(pts, vals, w_val), cfg, legendre_basis(4))
    assert report.aborted is None and min(report.val_errors) > 0.0
    report = recover(SampleSet(pts, vals, w_test), tested, legendre_basis(4))
    assert report.aborted is None and report.test_error > 0.0
    assert recover(SampleSet(pts, vals), cfg, legendre_basis(4)).test_error is None


@pytest.mark.parametrize("algorithm", ["als", "als_l2", "rals", "r2als"])
def test_report_is_in_the_callers_basis(algorithm):
    # r2als sweeps on the basis values times T and maps its train back
    # with T: every report's train evaluates in the basis passed in, and
    # its errors are those of that train
    rng = np.random.default_rng(35)
    basis = legendre_basis(4)
    pts = rng.uniform(-1, 1, (80, 3))
    vals = np.exp(pts.sum(axis=1) / 3.0)
    cfg = RecoveryConfig(algorithm=algorithm, max_rank=2, max_sweeps=3, seed=0,
                         test_fraction=15 / 80)
    _, val, test = _split_samples(80, cfg)
    report = recover(SampleSet(pts, vals), cfg, basis)
    assert report.basis is basis
    tpts = rng.uniform(-1, 1, (50, 3))
    np.testing.assert_allclose(predict(report.tt, basis, tpts), report.predict(tpts),
                               rtol=1e-12, atol=0)
    for idx, err in ((val, report.val_errors[report.best_sweep]),
                     (test, report.test_error)):
        recomputed = relative_error(predict(report.tt, basis, pts[idx]), vals[idx])
        assert err == pytest.approx(recomputed, rel=1e-12)
    assert report.test_error < 0.1


@pytest.mark.parametrize("algorithm", ["als", "als_l2", "rals", "r2als"])
def test_points_outside_the_basis_domain_raise(algorithm):
    # a Legendre basis grows without bound outside [-1, 1], so one such point
    # would dominate the fit; the Hermite basis is defined on every point
    rng = np.random.default_rng(36)
    pts = rng.uniform(-1, 1, (60, 3))
    pts[3] = (1.0, -1.0, 0.0)           # the domain's ends are inside it
    vals = np.exp(pts.sum(axis=1) / 3.0)
    cfg = RecoveryConfig(algorithm=algorithm, max_rank=2, max_sweeps=2, seed=0)
    # held-out samples are checked too
    tested = dataclasses.replace(cfg, test_fraction=0.1)
    test = _split_samples(60, tested)[2]
    for i, j, y in ((test[0], 1, 1.5), (test[-1], 2, -1.0000000000000002), (0, 0, 1e30)):
        bad = pts.copy()
        bad[i, j] = y
        msg = (f"sample {i} (counting from 0) has y_{j + 1} = {y!r}, outside the "
               "legendre basis's domain [-1.0, 1.0]")
        with pytest.raises(RecoveryError, match=re.escape(msg)):
            recover(SampleSet(bad, vals), tested, legendre_basis(4))
    assert recover(SampleSet(pts, vals), cfg, legendre_basis(4)).aborted is None
    pts[7, 1] = 1.5
    assert recover(SampleSet(pts, vals), cfg, hermite_basis(4)).aborted is None


def test_recover_determinism():
    rng = np.random.default_rng(20)
    basis = legendre_basis(5)
    truth = exp_type_rank1(basis, 3)
    samples = make_samples(truth, basis, 120, rng)
    cfg = RecoveryConfig(algorithm="r2als", max_rank=3, max_sweeps=6, seed=5)
    r1 = recover(samples, cfg, basis)
    r2 = recover(samples, cfg, basis)
    assert r1.rank_history == r2.rank_history
    assert r1.val_errors == r2.val_errors
    for a, b in zip(r1.tt.components, r2.tt.components):
        assert np.array_equal(a, b)


def test_validation_split_respects_partitions():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1, 1, (50, 2))
    vals = rng.standard_normal(50)
    cfg = RecoveryConfig(algorithm="als", max_rank=1, max_sweeps=3, seed=0)
    report = recover(SampleSet(pts, vals), cfg, legendre_basis(3))
    # the best iterate's reported validation error matches a recomputation
    # on the validation partition of the split
    val = _split_samples(50, cfg)[1]
    recomputed = relative_error(report.predict(pts[val]), vals[val])
    assert np.isclose(report.val_errors[report.best_sweep], recomputed)


def test_sample_set_rejects_points_without_columns():
    with pytest.raises(RecoveryError, match="no parameter columns"):
        SampleSet(np.empty((5, 0)), np.ones(5))
    with pytest.raises(RecoveryError, match="values length does not match points"):
        SampleSet(np.ones((5, 2)), np.ones(4))


def test_sample_set_owns_its_arrays():
    # the caller's arrays stay writeable, and writing to them, or to the
    # base of a view passed in, leaves the set unchanged
    rng = np.random.default_rng(31)
    base = rng.uniform(-1, 1, (21, 2))
    pts, vals, wts = base[1:], rng.standard_normal(20), np.ones(20)
    s = SampleSet(pts, vals, wts)
    assert [f.name for f in dataclasses.fields(s)] == ["points", "values", "weights"]
    kept = {name: getattr(s, name).copy() for name in ("points", "values", "weights")}
    for given, name in ((base, "points"), (vals, "values"), (wts, "weights")):
        assert given.flags.writeable and not getattr(s, name).flags.writeable
        assert not np.shares_memory(given, getattr(s, name))
        given[...] = 7
    for name, arr in kept.items():
        assert np.array_equal(getattr(s, name), arr)


def test_random_split_keeps_test_samples_out():
    train, val, test = _split_samples(60, RecoveryConfig(test_fraction=1 / 3))
    assert len(train) == 32 and len(val) == 8 and len(test) == 20
    assert not np.isin(np.concatenate([train, val]), test).any()
    # without a test share: the seeded permutation of every sample, as before
    perm = np.random.default_rng(0).permutation(60)
    train, val, test = _split_samples(60, RecoveryConfig())
    assert np.array_equal(train, np.sort(perm[12:]))
    assert np.array_equal(val, np.sort(perm[:12]))
    assert test.size == 0


def test_split_is_one_seeded_permutation():
    # test share first, the validation share of the rest next, training last
    for n in range(1, 41):
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(n)
            for tf in (0.0, 0.1, 0.3, 0.5, 0.95):
                for vf in (0.0, 0.2, 0.9):
                    cfg = RecoveryConfig(seed=seed, test_fraction=tf, validation_fraction=vf)
                    parts = _split_samples(n, cfg)
                    for part in parts:
                        assert np.array_equal(part, np.sort(part))
                    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(n))
                    train, val, test = parts
                    n_test = round(tf * n)
                    assert np.array_equal(test, np.sort(perm[:n_test]))
                    n_val = max(1, round(vf * (n - n_test)))
                    assert np.array_equal(val, np.sort(perm[n_test:n_test + n_val]))


def test_orthogonalization_preserves_function_in_sweeps():
    rng = np.random.default_rng(22)
    basis = legendre_basis(4)
    tt = tt_random((4, 4, 4), (2, 2), rng)
    pts = rng.uniform(-1, 1, (30, 3))
    B = [basis.evaluate(pts[:, m]) for m in range(3)]
    before = tt_evaluate_batch(tt, B)
    after = tt_evaluate_batch(canonicalize(tt, 1), B)
    assert np.abs(before - after).max() <= 1e-10 * max(1.0, np.abs(before).max())


def test_unrestricted_microstep_variation_blowup():
    # one plain least-squares microstep toward an adversarial univariate
    # target multiplies the neighboring local variation sup-norm by up to
    # the univariate sup-norm (and at least noticeably)
    rng = np.random.default_rng(23)
    d, M, m = 5, 4, 1
    basis = legendre_basis(d)
    comps = []
    for _ in range(M):
        c = np.zeros((1, d, 1))
        c[0, 0, 0] = 1.0
        comps.append(c)
    tt = TensorTrain(tuple(comps), lorth=M - 1, rorth=1)
    grid = np.linspace(-1, 1, 2001)
    cloud = np.repeat(grid[:, None], M, axis=1)
    k_uni = d**2  # sup of the univariate variation function
    before = microstep_variation(tt, 0, basis, cloud).sup()
    # adversarial target: the reproducing kernel at the variation maximizer,
    # a function of y_m only
    pts = rng.uniform(-1, 1, (50, M))
    B = [basis.evaluate(pts[:, k]) for k in range(M)]
    kernel = basis.evaluate(np.array([1.0]))[0]
    target = B[m] @ kernel
    A = design_matrix(fixed_interface(tt, m, B))
    v, _ = microstep_ls(A, target)
    tt_after = canonicalize(tt.with_component(m, v.reshape(1, d, 1)), 0)
    after = microstep_variation(tt_after, 0, basis, cloud).sup()
    ratio = after / before
    assert ratio <= k_uni * 1.001
    assert ratio >= 2.0


def test_recover_rejects_empty_and_bad_config():
    empty = SampleSet(np.empty((0, 2)), np.empty(0))
    with pytest.raises(RecoveryError):
        recover(empty, RecoveryConfig(), legendre_basis(3))
    with pytest.raises(RecoveryError):
        RecoveryConfig(algorithm="nope")
    with pytest.raises(RecoveryError):
        RecoveryConfig(theta=1.5)
    for bad in ({"max_sweeps": 0}, {"cv_folds": 0}, {"cv_folds": 1},
                {"lambda_grid_points": 0}, {"lambda_grid_decades": 0.0},
                {"lambda_grid_decades": -1.0}, {"lambda_grid_decades": 400.0},
                {"lambda_grid_decades": float("inf")}, {"lambda_grid_decades": 10**400},
                {"validation_fraction": 1.2},
                {"validation_fraction": 1.0}, {"validation_fraction": -0.1},
                {"test_fraction": -0.1}, {"test_fraction": 1.0},
                {"test_fraction": float("nan")},
                {"gramian": "bogus", "algorithm": "als"},
                {"gramian": "bogus", "algorithm": "als_l2"}, {"buffer": -1}):
        with pytest.raises(RecoveryError, match=next(iter(bad))):
            RecoveryConfig(**bad)
    # 11 samples leave 9 training rows: too few for 10-fold CV, fine for als
    rng = np.random.default_rng(0)
    few = SampleSet(rng.uniform(-1, 1, (11, 2)), rng.standard_normal(11))
    for algorithm in ("als_l2", "rals", "r2als"):
        with pytest.raises(RecoveryError, match="9 training samples .* 10 cross-validation"):
            recover(few, RecoveryConfig(algorithm=algorithm), legendre_basis(3))
    assert recover(few, RecoveryConfig(algorithm="als", max_sweeps=1), legendre_basis(3)).val_errors
    # a lone sample left after the test cut validates, leaving none to train
    for samples, test_fraction in ((few, 0.95), (SampleSet(few.points[:1], few.values[:1]), 0.0)):
        with pytest.raises(RecoveryError, match="the sample split leaves no training samples"):
            recover(samples, RecoveryConfig(algorithm="als", test_fraction=test_fraction),
                    legendre_basis(3))


def test_config_rejects_patience_stop_tol_and_initial_rank_above_max():
    # patience <= 0 would stop after one sweep without saying so
    for bad in ({"patience": 0}, {"patience": -2}, {"stop_tol": -1e-3},
                {"stop_tol": float("nan")}, {"initial_rank": 3, "max_rank": 2}):
        with pytest.raises(RecoveryError, match=next(iter(bad))):
            RecoveryConfig(**bad)
    RecoveryConfig(patience=1, stop_tol=0.0, initial_rank=2, max_rank=2)


def test_lambda_grid_bottom_that_underflows_aborts_the_sweep():
    # 10**-322 is a subnormal float, but the grid's bottom lam_max * 10**-322
    # underflows to 0 for values near 1e-6
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (120, 3))
    samples = SampleSet(pts, 1e-6 * np.exp(pts.sum(axis=1) / 4.0))
    for algorithm in ("als_l2", "rals", "r2als"):
        cfg = RecoveryConfig(algorithm=algorithm, lambda_grid_decades=322, max_sweeps=1)
        report = recover(samples, cfg, legendre_basis(3))
        assert report.best_sweep == -1
        assert report.aborted.startswith("sweep 0: lambda grid bottom")


def test_non_finite_samples_rejected():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (40, 2))
    vals = rng.standard_normal(40)
    inf_vals = vals.copy()
    inf_vals[7] = np.inf
    for algorithm in ("als", "als_l2", "rals", "r2als"):
        with pytest.raises(RecoveryError, match="sample 7 .* non-finite value"):
            recover(SampleSet(pts, inf_vals), RecoveryConfig(algorithm=algorithm),
                    legendre_basis(3))
    nan_pts = pts.copy()
    nan_pts[3, 1] = np.nan
    with pytest.raises(RecoveryError, match="sample 3 .* non-finite point$"):
        SampleSet(nan_pts, inf_vals)
    weights = np.ones(40)
    weights[5] = np.nan
    with pytest.raises(RecoveryError, match="sample 5 .* non-finite weight$"):
        SampleSet(pts, vals, weights)


def test_local_gramian_matches_dense_oracle():
    rng = np.random.default_rng(26)
    d, M, m = 3, 3, 1
    tt = canonicalize(tt_random((d,) * M, (2, 2), rng), m)
    X = rng.standard_normal((d, d))
    g = X @ X.T + d * np.eye(d)
    H = local_gramian(tt, m, g)
    # dense oracle: embed every unit component and contract with kron(g,g,g)
    from ttrec.tensor_core import tt_to_dense
    D = int(np.prod(tt.components[m].shape))
    emb = np.empty((d**M, D))
    for j in range(D):
        e = np.zeros(D)
        e[j] = 1.0
        emb[:, j] = tt_to_dense(tt.with_component(m, e.reshape(tt.components[m].shape))).ravel()
    G = np.kron(np.kron(g, g), g)
    H_dense = emb.T @ G @ emb
    assert np.abs(H - H_dense).max() <= 1e-10 * np.abs(H_dense).max()


def test_rank_adapt_pure_refactorization_preserves_function():
    # when the target rank equals the current one and nothing is truncated,
    # adaptation is an exact SVD refactorization
    rng = np.random.default_rng(27)
    tt = canonicalize(tt_random((4, 4, 4), (2, 2), rng), 0)
    from ttrec.tensor_core import tt_to_dense
    before = tt_to_dense(tt)
    adapted = rank_adapt(tt, 0, theta=1e-12, buffer=0, max_rank=8, rng=rng)
    after = tt_to_dense(adapted)
    assert np.abs(before - after).max() <= 1e-12 * np.abs(before).max()
    assert adapted.is_canonical_at(1)
