import warnings

import numpy as np
import pytest

from ttrec.bases import legendre_basis
from ttrec.sparse_solver import (ConvergenceWarning, CvReport, LassoProblem,
                                 SparseSolverError, cv_select_lambda,
                                 debias_on_support, fold_indices, kkt_residual,
                                 lambda_grid, lasso_solve, soft_threshold)
from ttrec.sparse_solver import _cd_gram

from oracles import (lasso_objective, prox_gradient_lasso, reference_cd_gram,
                     reference_cv_errors)


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


def test_objective_nonincreasing_across_sweeps():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((15, 8))
    y = rng.standard_normal(15)
    omega = np.ones(8)
    lam = 0.5
    G, b = A.T @ A, A.T @ y
    x = np.zeros(8)
    prev = lasso_objective(A, y, omega, lam, x)
    for _ in range(12):
        x, _ = _cd_gram(G, b, lam * omega / 2.0, x, max_sweeps=1, obj_rtol=0.0)
        cur = lasso_objective(A, y, omega, lam, x)
        assert cur <= prev + 1e-12
        prev = cur


def test_homogeneity():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    omega = rng.uniform(0.5, 2.0, 4)
    v1 = lasso_solve(LassoProblem(A, y, omega, 0.3))
    c = 2.5
    v2 = lasso_solve(LassoProblem(A, c * y, omega, c * 0.3))
    assert np.abs(v2 - c * v1).max() <= 1e-8 * max(1.0, np.abs(v1).max())


def test_nonconvergence_warns_with_residual():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((10, 25))
    y = rng.standard_normal(10)
    prob = LassoProblem(A, y, np.ones(25), 1e-4)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        lasso_solve(prob, max_sweeps=1)
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
    lams = lambda_grid(A, y, np.ones(4))
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
    report = cv_select_lambda(A, y, np.ones(8), folds=10, seed=0, refit=True)
    v = debias_on_support(A, y, lasso_solve(LassoProblem(A, y, np.ones(8), report.chosen)))
    assert set(np.nonzero(v)[0]) == {3}
    assert np.abs(v - truth).max() <= 1e-8


def test_cv_zero_target_returns_lambda_max():
    A = np.eye(12)
    report = cv_select_lambda(A, np.zeros(12), np.ones(12), folds=4)
    assert report.chosen == 0.0  # lambda_max is 0 for a zero target
    assert np.all(report.mean_errors == 0.0)


def test_cv_identical_rows_give_identical_fold_errors():
    row = np.array([1.0, -2.0, 0.5])
    A = np.tile(row, (8, 1))
    y = np.full(8, 3.0)
    report = cv_select_lambda(A, y, np.ones(3), folds=2, seed=1)
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
        cv_select_lambda(np.ones((5, 2)), np.ones(5), np.ones(2), folds=10)


def test_cv_fold_determinism():
    a = fold_indices(30, 10, 42)
    b = fold_indices(30, 10, 42)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_cv_report_invariant():
    with pytest.raises(SparseSolverError):
        CvReport(np.array([1.0, 0.1]), np.array([0.5, 0.1]), chosen=1.0, seed=0)


def test_cv_tie_break_prefers_largest_lambda():
    # constant-feature design fitted exactly at every lambda below a point;
    # ties at the minimum must resolve to the largest lambda
    rng = np.random.default_rng(11)
    A = np.ones((20, 1))
    y = np.zeros(20)
    report = cv_select_lambda(A, y, np.ones(1), folds=5, seed=0)
    assert report.chosen == report.lambdas.max()


def test_cv_numpy_fallback_matches_numba_path(monkeypatch):
    import ttrec.sparse_solver as sp
    rng = np.random.default_rng(12)
    A = rng.standard_normal((40, 6))
    y = A @ np.array([1.0, 0.0, -2.0, 0.0, 0.0, 0.5]) + 0.05 * rng.standard_normal(40)
    with_numba = cv_select_lambda(A, y, np.ones(6), folds=5, seed=0)
    monkeypatch.setattr(sp, "HAVE_NUMBA", False)
    without = cv_select_lambda(A, y, np.ones(6), folds=5, seed=0)
    assert with_numba.chosen == without.chosen
    assert np.abs(with_numba.mean_errors - without.mean_errors).max() <= 1e-6


# ---------------------------------------------------------------------------
# the optimized descent and CV selection against their reference versions


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


def test_cd_gram_matches_reference_batched():
    rng = np.random.default_rng(13)
    A, y, G, b = _fold_problem(rng, 60, 9, 5)
    lams = lambda_grid(A, y, np.ones(9))
    omega = rng.uniform(0.5, 2.0, 9)
    t = lams[:, None, None] * omega / 2.0           # (L, 1, p) against (F, p, p)
    x, sweeps = _cd_gram(G, b, t, np.zeros(9))
    x_ref, sweeps_ref = reference_cd_gram(G, b, t, np.zeros(9))
    assert x.shape == (len(lams), 5, 9)
    assert np.array_equal(x, x_ref) and sweeps == sweeps_ref
    # the column-major Gram layout cv_select_lambda builds
    Gc = np.moveaxis(np.ascontiguousarray(np.moveaxis(G, -1, 0)), 0, -1)
    x_c, sweeps_c = _cd_gram(Gc, b, t, np.zeros(9))
    assert np.array_equal(x_c, x_ref) and sweeps_c == sweeps_ref


def test_cd_gram_matches_reference_unbatched():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((20, 12))
    y = rng.standard_normal(20)
    G, b = A.T @ A, A.T @ y
    t = 0.3 * rng.uniform(0.5, 2.0, 12)
    x0 = rng.standard_normal(12)
    for kwargs in ({}, {"kkt_tol": 1e-8, "max_sweeps": 50}, {"max_sweeps": 3, "obj_rtol": 0.0}):
        x, sweeps = _cd_gram(G, b, t, x0, **kwargs)
        x_ref, sweeps_ref = reference_cd_gram(G, b, t, x0, **kwargs)
        assert x.shape == (12,)
        assert np.array_equal(x, x_ref) and sweeps == sweeps_ref


def test_cd_gram_matches_reference_with_zero_diagonal():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((15, 6))
    A[:, 2] = 0.0
    y = rng.standard_normal(15)
    G, b = A.T @ A, A.T @ y
    x0 = np.full(6, 0.5)   # the dead coordinate must be zeroed
    t = np.array([[0.05], [0.5]]) * np.ones(6)
    x, sweeps = _cd_gram(G, b, t, x0)
    x_ref, sweeps_ref = reference_cd_gram(G, b, t, x0)
    assert np.all(x[:, 2] == 0.0)
    assert np.array_equal(x, x_ref) and sweeps == sweeps_ref


@pytest.mark.parametrize("refit", [True, False])
def test_cv_select_lambda_matches_reference(refit):
    rng = np.random.default_rng(16)
    for n, p, folds in ((60, 10, 5), (45, 20, 3)):
        A, y, _, _ = _fold_problem(rng, n, p, folds)
        omega = rng.uniform(0.5, 2.0, p)
        report = cv_select_lambda(A, y, omega, folds=folds, seed=0, refit=refit)
        mean_errors, chosen = reference_cv_errors(A, y, omega, folds=folds, seed=0,
                                                  refit=refit)
        assert np.array_equal(report.mean_errors, mean_errors)
        assert report.chosen == chosen


def test_cv_refits_each_fold_support_once(monkeypatch):
    import ttrec.sparse_solver as sp
    rng = np.random.default_rng(17)
    A, y, G, b = _fold_problem(rng, 60, 10, 5)
    omega = np.ones(10)
    lams = lambda_grid(A, y, omega)
    x, _ = reference_cd_gram(G, b, lams[:, None, None] * omega / 2.0, np.zeros(10))
    supports = {(f, (x[i, f] != 0).tobytes()) for i in range(len(lams)) for f in range(5)}
    # the path has empty supports (largest lambdas) and repeated ones
    assert any(not np.any(x[i, f]) for i in range(len(lams)) for f in range(5))
    assert len(supports) < x.shape[0] * x.shape[1]
    calls = []

    def counting(A_fit, y_fit, v):
        calls.append(1)
        return debias_on_support(A_fit, y_fit, v)

    monkeypatch.setattr(sp, "debias_on_support", counting)
    cv_select_lambda(A, y, omega, folds=5, seed=0, refit=True)
    assert len(calls) == len(supports)


def test_cv_transient_memory_within_reference():
    import tracemalloc
    rng = np.random.default_rng(18)
    A, y, _, _ = _fold_problem(rng, 240, 72, 10)
    omega = np.ones(72)
    peaks = []
    for run in (lambda: reference_cv_errors(A, y, omega, refit=True),
                lambda: cv_select_lambda(A, y, omega, refit=True)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
