import warnings

import numpy as np
import pytest

from ttrec.bases import legendre_basis
from ttrec.recovery import _ridge_refits
from ttrec.sparse_solver import (KKT_TOL, ConvergenceWarning, CvReport,
                                 LassoProblem, SparseSolverError, cross_validate,
                                 cv_select_lambda, debias_on_support,
                                 fold_indices, kkt_residual, lambda_grid,
                                 lasso_solve)
from ttrec.sparse_solver import _fold_grams, _homotopy, _kkt_from_gram, _solve

from oracles import (gather_cv_errors, lasso_objective, prox_gradient_lasso,
                     reference_cd_gram, reference_cv_errors, soft_threshold)


def test_problem_validation():
    A = np.ones((3, 2))
    with pytest.raises(SparseSolverError):
        LassoProblem(A, np.ones(2), np.ones(2))          # shape mismatch
    with pytest.raises(SparseSolverError):
        LassoProblem(A, np.ones(3), np.array([1.0, 0.0]))  # nonpositive omega
    with pytest.raises(SparseSolverError):
        LassoProblem(A, np.array([1.0, np.nan, 0.0]), np.ones(2))
    with pytest.raises(SparseSolverError):
        LassoProblem(A, np.ones(3), np.ones(2), lam=-1.0)
    with pytest.raises(SparseSolverError):
        LassoProblem(A, np.ones(3), np.ones(2), lam=np.nan)
    with pytest.raises(SparseSolverError):
        LassoProblem(A, np.ones(3), np.ones(2), lam=np.inf)


def test_unregularized_limit_is_least_squares():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    y = rng.standard_normal(6)
    v = lasso_solve(LassoProblem(A, y, np.ones(6), 0.0))
    assert np.abs(A @ v - y).max() <= 1e-10


def test_full_shrinkage_threshold():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((12, 5))
    y = rng.standard_normal(12)
    omega = rng.uniform(0.5, 2.0, 5)
    lam = 2.0 * np.abs(A.T @ y).max() / omega.min()
    v = lasso_solve(LassoProblem(A, y, omega, lam))
    assert np.all(v == 0.0)


def test_against_prox_gradient_oracle():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    omega = np.ones(3)
    prob = LassoProblem(A, y, omega, 0.1)
    v = lasso_solve(prob)
    ref = prox_gradient_lasso(A, y, omega, 0.1)
    assert np.abs(v - ref).max() <= 1e-6
    assert lasso_objective(A, y, omega, 0.1, v) <= lasso_objective(A, y, omega, 0.1, ref) + 1e-10


def test_soft_threshold_identity_orthonormal_design():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 7)))
    y = rng.standard_normal(20)
    omega = rng.uniform(0.5, 2.0, 7)
    lam = 0.4
    v = lasso_solve(LassoProblem(Q, y, omega, lam))
    assert np.abs(v - soft_threshold(Q.T @ y, lam * omega / 2.0)).max() <= 1e-12


def test_kkt_residuals_random_problems():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n, p = rng.integers(5, 30), rng.integers(2, 15)
        A = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        omega = rng.uniform(0.5, 3.0, p)
        lam = 10.0 ** rng.uniform(-3, 1)
        prob = LassoProblem(A, y, omega, lam)
        v = lasso_solve(prob)
        assert kkt_residual(prob, v) <= 1e-8


def test_path_objective_no_worse_than_descent():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((15, 8))
    y = rng.standard_normal(15)
    omega = np.ones(8)
    G, b = A.T @ A, A.T @ y
    lams = lambda_grid(A, y)
    X = _path(G, b, omega, lams)
    X_cd, _ = reference_cd_gram(G, b, lams[:, None] * omega / 2.0, np.zeros(8))
    for lam, x, x_cd in zip(lams, X, X_cd):
        ref = lasso_objective(A, y, omega, lam, x_cd)
        assert lasso_objective(A, y, omega, lam, x) <= ref + 1e-12 * max(1.0, ref)


def test_homogeneity():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    omega = rng.uniform(0.5, 2.0, 4)
    v1 = lasso_solve(LassoProblem(A, y, omega, 0.3))
    c = 2.5
    v2 = lasso_solve(LassoProblem(A, c * y, omega, c * 0.3))
    assert np.abs(v2 - c * v1).max() <= 1e-8 * max(1.0, np.abs(v1).max())


def test_nonconvergence_warns_with_residual(monkeypatch):
    import ttrec.sparse_solver as sp
    rng = np.random.default_rng(7)
    A = rng.standard_normal((10, 25))
    y = rng.standard_normal(10)
    prob = LassoProblem(A, y, np.ones(25), 1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = lasso_solve(prob)     # underdetermined, small lambda: certified
    assert kkt_residual(prob, v) <= KKT_TOL

    def wrong_path(G, b, lams):
        # every problem's path claims x_0 = 1 and nothing else at every lambda
        F = len(b)
        yield (np.arange(F), np.ones(F, dtype=np.intp), np.zeros((F, 1), dtype=np.intp),
               np.zeros((F, 1)), np.ones((F, 1)), np.zeros(F, dtype=np.intp),
               np.full(F, len(lams)))

    monkeypatch.setattr(sp, "_homotopy", wrong_path)
    for solve in (lambda: lasso_solve(prob),
                  lambda: cv_select_lambda(A, y, folds=5, seed=0)):
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            solve()
        assert len(wlist) == 1
        assert issubclass(wlist[0].category, ConvergenceWarning)
        assert "residual" in str(wlist[0].message)


def test_support_certifies_variation_bound():
    # sparse solutions in a sup-norm-weighted Legendre basis obey the
    # pointwise variation bound through their weighted support size
    rng = np.random.default_rng(8)
    d = 8
    basis = legendre_basis(d)
    grid = np.linspace(-1, 1, 2001)
    Bg = basis.evaluate(grid)
    pts = rng.uniform(-1, 1, 40)
    A = basis.evaluate(pts)
    y = rng.standard_normal(40)
    omega = basis.sup_norms.copy()
    for lam in (0.1, 1.0, 5.0):
        v = lasso_solve(LassoProblem(A, y, omega, lam))
        if not np.any(v):
            continue
        kv = ((Bg @ v) ** 2).max() / (v @ v)
        assert kv <= (omega[v != 0] ** 2).sum() + 1e-9


# ---------------------------------------------------------------------------
# cross-validation


def test_lambda_grid_shape():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    lams = lambda_grid(A, y)
    assert len(lams) == 25
    assert np.isclose(lams[0], 2 * np.abs(A.T @ y).max())
    assert np.isclose(lams[-1], lams[0] * 1e-4)
    assert np.all(np.diff(lams) < 0)


def test_cv_exact_recovery_of_one_sparse_target():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((60, 8))
    truth = np.zeros(8)
    truth[3] = 2.0
    y = A @ truth
    report = cv_select_lambda(A, y, folds=10, seed=0)
    v = debias_on_support(A, y, lasso_solve(LassoProblem(A, y, np.ones(8), report.chosen)))
    assert set(np.nonzero(v)[0]) == {3}
    assert np.abs(v - truth).max() <= 1e-8


def test_cv_zero_target_returns_lambda_max():
    A = np.eye(12)
    report = cv_select_lambda(A, np.zeros(12), folds=4)
    assert report.chosen == 0.0  # lambda_max is 0 for a zero target
    assert np.all(report.mean_errors == 0.0)


def test_cv_identical_rows_give_identical_fold_errors():
    row = np.array([1.0, -2.0, 0.5])
    A = np.tile(row, (8, 1))
    y = np.full(8, 3.0)
    report = cv_select_lambda(A, y, folds=2, seed=1)
    # every fold sees the same data, so the mean is fold-independent;
    # recompute one fold by hand and compare
    idx = fold_indices(8, 2, 1)
    lams = report.lambdas
    for lam in (lams[0], lams[-1]):
        errs = []
        for hold in idx:
            mask = np.ones(8, bool)
            mask[hold] = False
            v = lasso_solve(LassoProblem(A[mask], y[mask], np.ones(3), lam))
            r = y[hold] - A[hold] @ v
            errs.append(r @ r / len(hold))
        assert np.isclose(errs[0], errs[1])


def test_cv_requires_enough_samples():
    with pytest.raises(SparseSolverError):
        cv_select_lambda(np.ones((5, 2)), np.ones(5), folds=10)


def test_cv_fold_determinism():
    a = fold_indices(30, 10, 42)
    b = fold_indices(30, 10, 42)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_fold_indices_drawn_once_and_read_only():
    a = fold_indices(30, 10, 42)
    b = fold_indices(30, 10, 42)
    assert len(a) == len(b) == 10
    for x, y in zip(a, b):
        assert x is y and not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0
    for _ in range(2):     # a failed draw is not cached
        with pytest.raises(SparseSolverError):
            fold_indices(5, 10, 0)


def test_cv_report_invariant():
    with pytest.raises(SparseSolverError):
        CvReport(np.array([1.0, 0.1]), np.array([0.5, 0.1]), chosen=1.0)
    with pytest.raises(SparseSolverError, match="grid and error lengths differ"):
        CvReport(np.array([1.0, 0.1]), np.array([0.5, 0.1, 0.2]), chosen=1.0)
    with pytest.raises(SparseSolverError, match="chosen lambda is not on the grid"):
        CvReport(np.array([1.0, 0.1]), np.array([0.5, 0.1]), chosen=0.5)


def test_cross_validate_rejects_non_finite_grams():
    # A^T A overflows: the driver raises before any engine runs
    A = np.full((20, 3), 1e200)

    def engine(G, b, lams):
        raise AssertionError("the engine ran on non-finite Grams")

    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SparseSolverError, match="cross-validation Grams are not finite"):
        cross_validate(A, np.ones(20), np.array([1.0]), 5, 0, engine)


def test_solve_falls_back_to_minimum_norm_on_a_singular_stack():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((3, 4, 4))
    M[1, 2, :] = M[1, :, 2] = 0.0      # exactly singular
    rhs = rng.standard_normal((3, 4, 2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(M, rhs)
    x = _solve(M, rhs)
    for Mf, r, xf in zip(M, rhs, x):
        assert np.array_equal(xf, np.linalg.lstsq(Mf, r, rcond=None)[0])


def test_cv_tie_break_prefers_largest_lambda():
    # constant-feature design fitted exactly at every lambda below a point;
    # ties at the minimum must resolve to the largest lambda
    rng = np.random.default_rng(11)
    A = np.ones((20, 1))
    y = np.zeros(20)
    report = cv_select_lambda(A, y, folds=5, seed=0)
    assert report.chosen == report.lambdas.max()


# ---------------------------------------------------------------------------
# the homotopy path against its contracts and the reference descent


def _segments(G, b, omega, lams):
    """The segments of the paths with coordinate weights ``omega`` one at a
    time: ``(f, S, q, w, lo, hi)`` with the support ``S`` and ``q``, ``w`` on
    it.  ``_homotopy`` runs on the rescaled Grams ``G / (omega omega^T)``,
    ``b / omega``, and ``q``, ``w`` are mapped back by ``1 / omega``."""
    for f, k, S, q, w, lo, hi in _homotopy(G / np.outer(omega, omega), b / omega, lams):
        for i, ki in enumerate(k):
            Si = S[i, :ki]
            yield f[i], Si, q[i, :ki] / omega[Si], w[i, :ki] / omega[Si], lo[i], hi[i]


def _path(G, b, omega, lams):
    """The paths' solutions at every grid lambda: (L, p) for one problem
    ``G`` (p, p), (L, F, p) for a stack of F problems run together."""
    one = G.ndim == 2
    if one:
        G, b = G[None], b[None]
    X = np.zeros((len(lams),) + b.shape)
    for f, S, q, w, lo, hi in _segments(G, b, omega, lams):
        X[lo:hi, f, S] = w - lams[lo:hi, None] * q
    return X[:, 0] if one else X


def _fold_problem(rng, n, p, folds):
    """A sparse-truth problem and its fold Grams, folds drawn with seed 0."""
    A = rng.standard_normal((n, p))
    truth = np.zeros(p)
    truth[:3] = (1.0, -2.0, 0.5)
    y = A @ truth + 0.1 * rng.standard_normal(n)
    idx = fold_indices(n, folds, 0)
    masks = [np.isin(np.arange(n), hold, invert=True) for hold in idx]
    G = np.stack([A[m].T @ A[m] for m in masks])
    b = np.stack([A[m].T @ y[m] for m in masks])
    return A, y, G, b


def test_path_kkt_at_every_grid_lambda():
    rng = np.random.default_rng(13)
    for n, p in ((60, 9), (30, 40)):       # fold rows above and below p
        A, y, G, b = _fold_problem(rng, n, p, 5)
        omega = rng.uniform(0.5, 2.0, p)
        # the weighted problem's grid, from 2 max|A^T y| / min(omega)
        lam_max = 2.0 * float(np.abs(A.T @ y).max(initial=0.0)) / float(np.min(omega))
        lams = np.geomspace(lam_max, lam_max * 10.0 ** (-4.0), 25)
        X = _path(G, b, omega, lams)        # the folds run together
        for f, (Gf, bf) in enumerate(zip(G, b)):
            tol = 1e-12 * max(1.0, np.abs(bf).max())
            for lam, x in zip(lams, X[:, f]):
                assert _kkt_from_gram(Gf @ x, bf, lam * omega / 2.0, x) <= tol
            # one path on its own gives the same solutions
            alone = _path(Gf, bf, omega, lams)
            assert np.allclose(alone, X[:, f], rtol=1e-10, atol=1e-12)


def test_path_lists_supports_in_join_order():
    # the G_SS solves and the held-out scoring sum over a support in the
    # order its coordinates joined, so that order fixes the results' bits.
    # On a diagonal G no coordinate leaves, and j joins at lam = 2 |b_j|
    G = np.diag([1.0, 2.0, 0.5, 3.0, 1.5])
    b = np.array([0.3, -2.0, 0.9, 4.0, -0.1])
    omega = np.ones(5)
    order = [3, 1, 2, 0, 4]              # not index order
    perm = np.array([4, 2, 0, 3, 1])     # the same problem, coordinates renamed
    Gs = np.stack([G, G[np.ix_(perm, perm)]])
    bs = np.stack([b, b[perm]])
    expected = [order, [int(np.flatnonzero(perm == j)[0]) for j in order]]
    lams = np.geomspace(10.0, 0.01, 25)
    sizes = set()
    for f, S, q, w, lo, hi in _segments(Gs, bs, omega, lams):
        assert S.tolist() == expected[f][:S.size]
        sizes.add(S.size)
        x = w - lams[lo] * q
        soft = soft_threshold(bs[f], lams[lo] * omega / 2.0) / np.diag(Gs[f])
        assert np.allclose(x, soft[S], rtol=1e-12, atol=0)
    assert sizes == {0, 1, 2, 3, 4, 5}


def test_path_matches_prox_gradient_oracle():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((20, 12))
    y = rng.standard_normal(20)
    omega = rng.uniform(0.5, 2.0, 12)
    lams = np.array([3.0, 1.0, 0.3, 0.05])
    X = _path(A.T @ A, A.T @ y, omega, lams)
    for lam, x in zip(lams, X):
        ref = prox_gradient_lasso(A, y, omega, lam)
        assert np.abs(x - ref).max() <= 1e-6
        assert (lasso_objective(A, y, omega, lam, x)
                <= lasso_objective(A, y, omega, lam, ref) + 1e-10)


def test_path_with_zero_and_duplicate_columns():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((15, 7))
    A[:, 2] = 0.0
    A[:, 4] = A[:, 1]           # duplicate with equal weight: a tie
    A[:, 5] = -2.0 * A[:, 0]    # scaled duplicate
    y = A[:, :2] @ np.array([1.0, -1.5]) + 0.1 * rng.standard_normal(15)
    omega = np.ones(7)
    G, b = A.T @ A, A.T @ y
    lams = lambda_grid(A, y)
    X = _path(G, b, omega, lams)
    assert np.all(X[:, 2] == 0.0)
    for lam, x in zip(lams, X):
        assert _kkt_from_gram(G @ x, b, lam * omega / 2.0, x) <= 1e-12 * np.abs(b).max()
        # a duplicate column never joins next to its twin
        assert not (x[1] and x[4]) and not (x[0] and x[5])


def test_cv_select_lambda_matches_reference():
    rng = np.random.default_rng(16)
    for n, p, folds in ((60, 10, 5), (45, 20, 3)):
        A, y, G, b = _fold_problem(rng, n, p, folds)
        omega = rng.uniform(0.5, 2.0, p)
        report = cv_select_lambda(A / omega, y, folds=folds, seed=0)
        mean_errors, chosen, supports = reference_cv_errors(A, y, omega, folds=folds, seed=0)
        assert report.chosen == chosen
        # the descent stops early and may leave a coordinate of about 1e-5
        # in or out, so errors are compared where every fold's support agrees
        path = _path(G, b, omega, report.lambdas)
        agree = np.all((path != 0) == supports, axis=(1, 2))
        assert agree.sum() >= len(agree) - 2
        assert np.allclose(report.mean_errors[agree], mean_errors[agree], rtol=1e-9, atol=0.0)


def test_cv_fit_has_lasso_solve_support():
    # the full-data path run in the folds' stack reaches lasso_solve's support
    rng = np.random.default_rng(20)
    for _ in range(20):
        n, p = int(rng.integers(40, 80)), int(rng.integers(3, 15))
        A = rng.standard_normal((n, p))
        truth = np.where(rng.random(p) < 0.4, rng.standard_normal(p), 0.0)
        y = A @ truth + 0.1 * rng.standard_normal(n)
        omega = rng.uniform(0.5, 2.0, p)
        cv = cv_select_lambda(A / omega, y, folds=5, seed=int(rng.integers(100)))
        alone = lasso_solve(LassoProblem(A, y, omega, cv.chosen))
        assert np.array_equal(np.nonzero(cv.fit / omega)[0], np.nonzero(alone)[0])
        assert np.allclose(cv.fit / omega, alone, rtol=1e-10, atol=1e-12)


def test_fold_grams_stack_folds_then_all_rows():
    # each fold's Gram from its training rows, bit for bit the product of
    # the rows np.delete leaves, and all rows' Gram last
    rng = np.random.default_rng(21)
    A = rng.standard_normal((53, 9))
    y = rng.standard_normal(53)
    holds = fold_indices(53, 10, 3)
    G, b = _fold_grams(A, y, holds)
    assert G.shape == (11, 9, 9) and b.shape == (11, 9)
    for f, hold in enumerate(holds):
        A_fit = np.delete(A, hold, axis=0)
        assert np.array_equal(G[f], A_fit.T @ A_fit)
        assert np.array_equal(b[f], A_fit.T @ np.delete(y, hold))
    assert np.array_equal(G[-1], A.T @ A) and np.array_equal(b[-1], A.T @ y)


def test_cv_scores_each_fold_segment_once(monkeypatch):
    import ttrec.sparse_solver as sp
    solve_path = sp._solve_path
    refits = []

    def recording(G, b, lams):
        out = solve_path(G, b, lams)
        refits.append(out)              # one refit row per fold segment
        return out

    monkeypatch.setattr(sp, "_solve_path", recording)
    revisits = 0
    for seed, n, p in ((17, 60, 10), (0, 30, 20)):
        A, y, G, b = _fold_problem(np.random.default_rng(seed), n, p, 5)
        omega = np.ones(p)
        lams = lambda_grid(A, y)
        fits = [np.isin(np.arange(n), hold, invert=True) for hold in fold_indices(n, 5, 0)]
        segments = list(_segments(G, b, omega, lams))
        for f, S, _, w, _, _ in segments:
            # each segment's w is the least-squares refit on its support
            if S.size:
                A_fit, y_fit = A[fits[f]], y[fits[f]]
                ref = np.linalg.lstsq(A_fit[:, S], y_fit, rcond=None)[0]
                assert np.abs(w - ref).max() <= 1e-10 * np.abs(ref).max()
        supports = {(f, np.sort(S).tobytes()) for f, S, *_ in segments}
        revisits += len(segments) - len(supports)
        # the path starts from the empty support at the largest lambdas
        assert (0, b"") in supports
        refits.clear()
        cv_select_lambda(A, y, folds=5, seed=0)
        (fold, lo, hi, R, _), = refits
        assert len(R) == len(segments)
        assert np.array_equal(fold, [f for f, *_ in segments])
        # each row's held-out error, as cross_validate scores it
        scores = np.empty(len(R))
        for f, hold in enumerate(fold_indices(n, 5, 0)):
            r = y[hold] - R[fold == f] @ A[hold].T
            scores[fold == f] = np.einsum("li,li->l", r, r) / len(hold)
        # a support a path returns to scores as on its first visit, up to
        # the rounding of a refit whose coordinates joined in another order
        first = {}
        for (f, S, *_), err in zip(segments, scores):
            ref = first.setdefault((f, np.sort(S).tobytes()), err)
            assert abs(err - ref) <= 1e-12 * abs(ref)
    # some path leaves a support and later returns to it
    assert revisits > 0


def test_cv_scoring_matches_the_gather_scorers():
    """The driver scores full-length fits on each fold's held-out rows; the
    gather scorers scored each engine's fits on their own (tests/oracles.py).
    Fold rows above and below p, duplicate and zero columns."""
    rng = np.random.default_rng(29)
    worst = 0.0
    for i in range(200):
        n, p, folds = int(rng.integers(10, 60)), int(rng.integers(2, 30)), int(rng.integers(2, 8))
        A = rng.standard_normal((n, p))
        if i % 3 == 1 and p >= 3:     # a duplicate, possibly scaled
            A[:, 0] = A[:, 1] * rng.choice([1.0, -2.0])
        elif i % 3 == 2:              # a zero column
            A[:, p - 1] = 0.0
        y = A[:, :2] @ np.array([1.0, -0.5]) + 0.1 * rng.standard_normal(n)
        seed = int(rng.integers(100))
        lasso = cv_select_lambda(A, y, folds=folds, seed=seed)
        ref, chosen = gather_cv_errors(A, y, lasso.lambdas, folds, seed)
        worst = max(worst, (np.abs(lasso.mean_errors - ref) / ref).max())
        assert lasso.chosen == chosen
        lams = np.append(lambda_grid(A, y), 0.0)
        ridge = cross_validate(A, y, lams, folds, seed, _ridge_refits)
        ref, chosen = gather_cv_errors(A, y, lams, folds, seed, ridge=True)
        assert np.array_equal(ridge.mean_errors, ref) and ridge.chosen == chosen
    assert worst <= 1e-11


def test_path_stress_degenerate_problems():
    """Criterion-5-style problems with n < p, duplicated and zero columns:
    every solve is certified and no linear-algebra error escapes."""
    rng = np.random.default_rng(19)
    worst = 0.0
    for i in range(2000):
        n, p = int(rng.integers(5, 40)), int(rng.integers(2, 20))
        A = rng.standard_normal((n, p))
        omega = rng.uniform(0.5, 3.0, p)
        kind = i % 4
        if kind == 1 and p >= 3:      # scaled duplicates
            k = int(rng.integers(1, p // 2 + 1))
            dst = rng.choice(p, k, replace=False)
            A[:, dst] = A[:, rng.integers(0, p, k)] * rng.choice([1.0, -1.0, 2.0], k)
        elif kind == 2:               # zero columns
            A[:, rng.choice(p, max(1, p // 4), replace=False)] = 0.0
        elif kind == 3:               # an exact duplicate with equal weight
            A[:, 1] = A[:, 0]
            omega[1] = omega[0]
        y = rng.standard_normal(n)
        prob = LassoProblem(A, y, omega, 10.0 ** rng.uniform(-3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            v = lasso_solve(prob)
        res = kkt_residual(prob, v)
        assert res <= max(KKT_TOL, 1e-12 * 2.0 * np.abs(A.T @ y).max())
        worst = max(worst, res)
        if i % 10 == 0:
            # the full-data fit rides in the folds' stack and is certified too
            with warnings.catch_warnings():
                warnings.simplefilter("error", ConvergenceWarning)
                cv = cv_select_lambda(A / omega, y, folds=4, seed=i)
            fit_res = kkt_residual(LassoProblem(A, y, omega, cv.chosen), cv.fit / omega)
            assert fit_res <= max(KKT_TOL, 1e-12 * 2.0 * np.abs(A.T @ y).max())
    assert worst <= 1e-8


def test_cv_transient_memory_within_reference():
    import tracemalloc
    rng = np.random.default_rng(18)
    A, y, _, _ = _fold_problem(rng, 240, 72, 10)
    omega = np.ones(72)
    peaks = []
    for run in (lambda: reference_cv_errors(A, y, omega),
                lambda: cv_select_lambda(A, y)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
