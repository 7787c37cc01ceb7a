"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the LASSO oracle is an
accelerated proximal-gradient method (the solver under test is a homotopy
path), tensor ranks come from dense matricizations, the Poisson value
from its double sine series.  The reference coordinate descent and CV
error loop below are the solver the path replaced, kept as a second,
independent LASSO engine whose cross-validated choices the path must
reproduce; the reference ridge CV is the per-fold ``eigh`` and ``lstsq``
loop that the batched fold-Gram scorer replaced; the reference diffusion
solve is the sparse assembly and direct solve that the banded Cholesky
solver replaced.  The gather scorers are cross-validation's held-out
scoring as it was written inside each engine before ``cross_validate``
took it over: the LASSO path's padded per-step gather and the ridge's
per-fold loop.  The reference H1 Gramian is the Gauss quadrature that the
closed form ``I + D^T D`` replaced, with numpy's polynomial differentiation.
The reference injection is the Gram-Schmidt loop that ``rank_adapt``'s one
QR replaced.
"""
import math

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from numpy.polynomial import hermite_e, legendre

from ttrec.uq_bench import BenchmarkError, DiffusionModel


def prox_gradient_lasso(A, y, omega, lam, iters=100_000, tol=1e-14):
    """FISTA for min ||y - Av||^2 + lam * ||omega*v||_1."""
    A = np.asarray(A, float)
    y = np.asarray(y, float)
    omega = np.asarray(omega, float)
    L = 2.0 * np.linalg.norm(A, 2) ** 2
    step = 1.0 / L
    thr = step * lam * omega
    x = np.zeros(A.shape[1])
    z = x.copy()
    t = 1.0
    for _ in range(iters):
        grad = 2.0 * A.T @ (A @ z - y)
        x_new = z - step * grad
        x_new = np.sign(x_new) * np.maximum(np.abs(x_new) - thr, 0.0)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + (t - 1.0) / t_new * (x_new - x)
        if np.abs(x_new - x).max() <= tol * max(1.0, np.abs(x_new).max()):
            x = x_new
            break
        x, t = x_new, t_new
    return x


def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def lasso_objective(A, y, omega, lam, v):
    r = y - A @ v
    return float(r @ r + lam * np.abs(omega * v).sum())


def unfolding_ranks(t, rtol=1e-10):
    """Ranks of the k-th matricizations of a dense tensor."""
    t = np.asarray(t, float)
    ranks = []
    for k in range(t.ndim - 1):
        mat = t.reshape(int(np.prod(t.shape[:k + 1])), -1)
        s = np.linalg.svd(mat, compute_uv=False)
        ranks.append(int(np.count_nonzero(s > rtol * s[0])) if s[0] > 0 else 1)
    return tuple(ranks)


def dense_embedding(tt, m, W):
    """Embed a candidate mode-m component into the full coefficient tensor."""
    from ttrec.tensor_core import tt_to_dense
    return tt_to_dense(tt.with_component(m, W))


def reference_h1_gramian(basis):
    """``int (b_i b_k + b_i' b_k') drho`` on 4 d Gauss nodes of the basis
    measure, each derivative by differentiating the polynomial's
    coefficients."""
    d = basis.dimension
    if basis.kind == "legendre":
        val, der, norms = legendre.legval, legendre.legder, basis.sup_norms
    else:
        val, der = hermite_e.hermeval, hermite_e.hermeder
        norms = [1.0 / math.sqrt(math.factorial(k)) for k in range(d)]
    x, w = basis.quadrature(4 * d)
    B = basis.evaluate(x)
    dB = np.stack([val(x, der(norms[k] * np.eye(d)[k])) for k in range(d)], axis=-1)
    return B.T @ (w[:, None] * B) + dB.T @ (w[:, None] * dB)


def reference_injected_directions(U, draws):
    """The columns of ``draws`` made orthonormal to those of ``U`` and to
    each other, one by one, by classical Gram-Schmidt applied twice."""
    cols = np.empty_like(draws)
    for j in range(draws.shape[1]):
        v = draws[:, j].copy()
        for _ in range(2):  # twice for numerical orthogonality
            v -= U @ (U.T @ v)
            if j:
                v -= cols[:, :j] @ (cols[:, :j].T @ v)
            v /= np.linalg.norm(v)
        cols[:, j] = v
    return cols


def poisson_unit_square_qoi(terms=100):
    """Integral of the Poisson solution (a=1, f=1, zero boundary) by its
    double sine series."""
    total = 0.0
    for j in range(1, 2 * terms, 2):
        for k in range(1, 2 * terms, 2):
            total += 64.0 / (np.pi**6 * j**2 * k**2 * (j**2 + k**2))
    return total


def random_direction_sup(basis_values, n_directions, rng):
    """Brute-force variation estimate: max over random unit coefficient
    vectors of the squared evaluation, maximized over the grid."""
    k = basis_values.shape[1]
    w = rng.standard_normal((n_directions, k))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    vals = basis_values @ w.T
    return float((vals**2).max())


def monte_carlo_local_variation(d1, d2, r, n_draws, rng):
    """Feasible-point sampling lower bound for the structured rank-1
    local variation constant.

    Draws the alphas, then per alpha a beta and, when its interval is
    bounded, a gamma.  A scalar ``rng.uniform(lo, hi)`` is ``lo + (hi - lo)
    * u`` for the stream's next double ``u``, so the loop replays those
    doubles from one pre-drawn buffer with plain floats: the same values as
    one ``uniform`` call per draw, at a fraction of the cost.
    """
    best = 0.0
    alphas = rng.uniform(1 - r, 1 + r, n_draws).tolist()
    doubles = iter(rng.random(2 * n_draws).tolist())
    for alpha in alphas:
        a = abs(1 - alpha)
        if a == 0:
            continue
        lo, hi = 1 - a, 1 + a
        beta = lo + (hi - lo) * next(doubles)
        lo, hi = -math.inf, math.inf
        feasible = True
        for c in (alpha, beta):
            if c > 0:
                lo, hi = max(lo, (1 - a) / c), min(hi, (1 + a) / c)
            elif c < 0:
                lo, hi = max(lo, (1 + a) / c), min(hi, (1 - a) / c)
            elif a < 1:
                feasible = False
        if not feasible or lo > hi:
            continue
        if math.isfinite(lo) and math.isfinite(hi):
            gamma = lo + (hi - lo) * next(doubles)
        else:
            gamma = 1.0
        F = ((1 - alpha) ** 2 + (d2 - 1) * (1 - alpha * gamma) ** 2
             + (d1 - 1) * (1 - beta) ** 2
             + (d1 - 1) * (d2 - 1) * (1 - beta * gamma) ** 2)
        if F > 0:
            best = max(best, d1 * d2 * (1 - alpha) ** 2 / F)
    return best


def reference_cd_gram(G, b, thresholds, x0, max_sweeps=10_000, obj_rtol=1e-10,
                      kkt_tol=None):
    """Batched cyclic coordinate descent, one plain array expression per
    step.  Returns (x, sweeps)."""
    from ttrec.sparse_solver import _kkt_from_gram
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.asarray(thresholds, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    p = G.shape[-1]
    batch = np.broadcast_shapes(G.shape[:-2], b.shape[:-1], t.shape[:-1], x0.shape[:-1])
    squeeze = batch == ()
    if squeeze:
        batch = (1,)
    x = np.empty(batch + (p,))
    x[:] = x0
    b = np.broadcast_to(b, batch + (p,))
    t = np.broadcast_to(t, batch + (p,))
    Gx = (G @ x[..., None])[..., 0]
    diag = np.broadcast_to(np.diagonal(G, axis1=-2, axis2=-1), batch + (p,))
    safe_diag = np.where(diag > 0, diag, 1.0)
    positive = diag > 0

    def objective():
        return ((x * Gx).sum(-1) - 2 * (b * x).sum(-1) + 2 * (np.abs(x) * t).sum(-1))

    obj = objective()
    sweep = 0
    for sweep in range(1, max_sweeps + 1):
        moved = False
        for k in range(p):
            q = Gx[..., k] - diag[..., k] * x[..., k] - b[..., k]
            new = np.where(positive[..., k],
                           soft_threshold(-q, t[..., k]) / safe_diag[..., k],
                           0.0)
            delta = new - x[..., k]
            if np.any(delta != 0.0):
                moved = True
                Gx += G[..., :, k] * delta[..., None]
                x[..., k] = new
        if not moved:
            break
        if kkt_tol is not None:
            if _kkt_from_gram(Gx, b, t, x) <= kkt_tol:
                break
            continue
        new_obj = objective()
        if np.all(np.abs(obj - new_obj) <= obj_rtol * np.maximum(np.abs(new_obj), 1.0)):
            break
        obj = new_obj
    if squeeze:
        return x[0], sweep
    return x, sweep


def reference_cv_errors(A, y, omega, folds=10, seed=0):
    """Mean held-out error per lambda, the chosen lambda and the (lambda,
    fold, coordinate) supports of cross-validation by ``reference_cd_gram``,
    refitting every (lambda, fold) member on its own (no memo)."""
    from ttrec.sparse_solver import debias_on_support, fold_indices, lambda_grid
    A = np.asarray(A, float)
    y = np.asarray(y, float)
    omega = np.asarray(omega, float)
    lams = lambda_grid(A / omega, y)
    idx = fold_indices(A.shape[0], folds, seed)
    masks = []
    for hold in idx:
        mask = np.ones(A.shape[0], dtype=bool)
        mask[hold] = False
        masks.append(mask)
    G = np.stack([A[m].T @ A[m] for m in masks])
    b = np.stack([A[m].T @ y[m] for m in masks])
    x, _ = reference_cd_gram(G, b, lams[:, None, None] * omega / 2.0, np.zeros(A.shape[1]))
    errors = np.zeros((len(lams), folds))
    for i in range(len(lams)):
        for f, hold in enumerate(idx):
            xf = debias_on_support(A[masks[f]], y[masks[f]], x[i, f])
            r = y[hold] - A[hold] @ xf
            errors[i, f] = (r @ r) / len(hold)
    mean_errors = errors.mean(axis=1)
    best = np.nonzero(mean_errors <= mean_errors.min())[0]
    return mean_errors, float(lams[best[0]]), x != 0


def reference_ridge_cv(A, u, folds=10, seed=0, decades=4.0, points=25):
    """The grid, mean held-out error per penalty and chosen penalty of the
    ridge microstep's cross-validation, one fold at a time: the fold's own
    ``eigh`` for every penalty and ``lstsq`` for the unpenalized fit."""
    from ttrec.sparse_solver import fold_indices

    def _ridge_path(e, Vtb, lams):
        # eigen-decomposed ridge solutions for all penalties at once
        return Vtb[None, :] / (e[None, :] + lams[:, None])

    A = np.asarray(A, float)
    u = np.asarray(u, float)
    lam_max = 2.0 * float(np.abs(A.T @ u).max(initial=0.0))
    # unpenalized fit appended so noiseless in-class data can win exactly
    lams = np.append(np.geomspace(lam_max, lam_max * 10.0 ** (-decades), points), 0.0)
    idx = fold_indices(A.shape[0], folds, seed)
    errors = np.zeros((len(lams), folds))
    for f, hold in enumerate(idx):
        mask = np.ones(A.shape[0], dtype=bool)
        mask[hold] = False
        At, ut = A[mask], u[mask]
        e, V = np.linalg.eigh(At.T @ At)
        e = np.maximum(e, 0.0)
        coeffs = _ridge_path(e, V.T @ (At.T @ ut), lams[:-1]) @ V.T  # (points, p)
        ls = np.linalg.lstsq(At, ut, rcond=None)[0]
        coeffs = np.vstack([coeffs, ls])
        resid = u[hold][None, :] - coeffs @ A[hold].T
        errors[:, f] = np.einsum("li,li->l", resid, resid) / len(hold)
    mean_errors = errors.mean(axis=1)
    lam = float(lams[np.argmax(mean_errors <= mean_errors.min())])
    return lams, mean_errors, lam


def _held_out_errors(A, y, rows, n_rows, S, w) -> np.ndarray:
    """Mean squared held-out error of each refit ``w[i]`` on the columns
    ``S[i]``, over the rows ``rows[i, :n_rows[i]]`` of ``(A, y)``; entries
    of ``w`` past a support are zero, so their columns add nothing."""
    r = y[rows] - np.matmul(A[rows[:, :, None], S[:, None, :]], w[:, :, None])[:, :, 0]
    r[np.arange(rows.shape[1]) >= n_rows[:, None]] = 0.0
    return np.einsum("ij,ij->i", r, r) / n_rows


def _gather_solve_path(G, b, lams, A, y, holds):
    """Held-out errors (L, F) of the F folds and the full-data path (L, p).

    Runs the exact paths on the stacked Grams ``(G, b)``, the folds' and
    then all rows', and scores the least-squares refit of every segment of
    fold ``f``'s path on its held-out rows ``holds[f]`` of ``(A, y)``, the
    folds' segments of a step in one batch.  Consecutive segments differ by
    one coordinate, so a support a path returns to is rare; it is scored
    again.  The last problem's path gives the full-data solution at every
    grid lambda.
    """
    from ttrec.sparse_solver import _homotopy
    F = len(holds)
    n_rows = np.array([len(hold) for hold in holds])
    rows = np.zeros((F, n_rows.max()), dtype=np.intp)   # padded rows are masked
    for f, hold in enumerate(holds):
        rows[f, :len(hold)] = hold
    grid = np.arange(len(lams))
    errors = np.empty((len(lams), F))
    X = np.zeros((len(lams), A.shape[1]))
    for f, k, S, q, w, lo, hi in _homotopy(G, b, lams):
        fold = f < F
        if not fold.all():      # the full-data segment, at most one per step
            i = np.flatnonzero(~fold)[0]
            a, z, ki = lo[i], hi[i], k[i]
            X[a:z, S[i, :ki]] = w[i, :ki] - lams[a:z, None] * q[i, :ki]
            f, S, w, lo, hi = f[fold], S[fold], w[fold], lo[fold], hi[fold]
        err = _held_out_errors(A, y, rows[f], n_rows[f], S, w)
        seg, at = np.nonzero((lo[:, None] <= grid) & (grid < hi[:, None]))
        errors[at, f[seg]] = err[seg]
    return errors, X


def _gather_ridge_errors(G, b, lams, A, u, holds):
    """(L, F) held-out errors of the folds' ridge fits from one batched
    ``eigh`` of the F fold Grams, each fold's held-out rows scored by its
    own fits."""
    from ttrec.recovery import PINV_RTOL
    F = len(holds)
    e, V = np.linalg.eigh(G[:F])
    e = np.maximum(e, 0.0)
    ef = e[:, None, :]
    dropped = (lams[:, None] == 0.0) & (ef <= PINV_RTOL * ef[:, :, -1:])   # (F, L, p)
    denom = np.where(dropped, np.inf, ef + lams[:, None])
    coeffs = (b[:F, None, :] @ V) / denom @ V.swapaxes(1, 2)
    errors = np.empty((len(lams), F))
    for f, hold in enumerate(holds):   # each fold's held-out rows by its own fits
        resid = u[hold] - coeffs[f] @ A[hold].T
        errors[:, f] = np.einsum("li,li->l", resid, resid) / len(hold)
    return errors


def gather_cv_errors(A, y, lams, folds, seed, ridge=False):
    """Mean held-out error per lambda and the chosen lambda (the largest at
    the minimum), scored by the gather scorers above on the fold Grams of
    ``sparse_solver._fold_grams``: the LASSO path's, or the ridge's."""
    from ttrec.sparse_solver import _fold_grams, fold_indices
    holds = fold_indices(A.shape[0], folds, seed)
    G, b = _fold_grams(A, y, holds)
    if ridge:
        errors = _gather_ridge_errors(G, b, lams, A, y, holds)
    else:
        errors = _gather_solve_path(G, b, lams, A, y, holds)[0]
    mean_errors = errors.mean(axis=1)
    return mean_errors, float(lams[np.argmax(mean_errors <= mean_errors.min())])


def reference_solve_diffusion(model_or_field, y=None, n=64, f=None):
    """The sparse-assembly diffusion solve (SuperLU ``spsolve``); returns the
    node field and the assembled CSR operator."""
    if n < 8:
        raise BenchmarkError("grid must have at least 8 cells per side")
    nodes = np.linspace(0.0, 1.0, n + 1)
    X1, X2 = np.meshgrid(nodes, nodes, indexing="ij")
    if isinstance(model_or_field, DiffusionModel):
        a = model_or_field.coefficient(X1, X2, y)
    else:
        a = np.asarray(model_or_field, dtype=float)
        if a.shape != (n + 1, n + 1):
            raise BenchmarkError("coefficient field does not match the grid")
    if np.any(a <= 0):
        raise BenchmarkError("diffusion coefficient is not positive on the grid")
    if f is None:
        fvals = np.ones((n + 1, n + 1))
    else:
        fvals = np.asarray(f(X1, X2), dtype=float)

    def harm(p, q):
        return 2.0 * p * q / (p + q)

    aE = harm(a[1:-1, 1:-1], a[2:, 1:-1])
    aW = harm(a[1:-1, 1:-1], a[:-2, 1:-1])
    aN = harm(a[1:-1, 1:-1], a[1:-1, 2:])
    aS = harm(a[1:-1, 1:-1], a[1:-1, :-2])
    h2 = (1.0 / n) ** 2
    k = n - 1
    idx = np.arange(k * k).reshape(k, k)
    diag = (aE + aW + aN + aS).ravel() / h2
    rows = [idx.ravel()]
    cols = [idx.ravel()]
    data = [diag]
    # east/west couple x1-neighbours (first grid axis), north/south x2
    rows.append(idx[:-1, :].ravel()); cols.append(idx[1:, :].ravel()); data.append(-aE[:-1, :].ravel() / h2)
    rows.append(idx[1:, :].ravel()); cols.append(idx[:-1, :].ravel()); data.append(-aW[1:, :].ravel() / h2)
    rows.append(idx[:, :-1].ravel()); cols.append(idx[:, 1:].ravel()); data.append(-aN[:, :-1].ravel() / h2)
    rows.append(idx[:, 1:].ravel()); cols.append(idx[:, :-1].ravel()); data.append(-aS[:, 1:].ravel() / h2)
    A = sparse.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(k * k, k * k))
    u = splinalg.spsolve(A, fvals[1:-1, 1:-1].ravel())
    field = np.zeros((n + 1, n + 1))
    field[1:-1, 1:-1] = u.reshape(k, k)
    return field, A
