"""Weighted LASSO by cyclic coordinate descent, with cross-validated lambda.

The objective is ``||y - A v||_2^2 + lam * ||omega (*) v||_1`` (no 1/n
factor).  Optimality is certified by the KKT conditions: for active
coordinates ``|2 A_k^T (A v - y) + lam * omega_k * sign(v_k)| <= tol`` and
for inactive ones ``|2 A_k^T (A v - y)| <= lam * omega_k + tol``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional accelerator
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f
        return wrap

MAX_SWEEPS = 10_000
OBJ_RTOL = 1e-10
KKT_TOL = 1e-8


class SparseSolverError(ValueError):
    pass


class ConvergenceWarning(RuntimeWarning):
    pass


@dataclass(frozen=True)
class LassoProblem:
    A: np.ndarray      # (n, p) design
    y: np.ndarray      # (n,) target
    omega: np.ndarray  # (p,) positive coordinate weights
    lam: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        y = np.asarray(self.y, dtype=float)
        w = np.asarray(self.omega, dtype=float)
        if A.ndim != 2 or y.shape != (A.shape[0],) or w.shape != (A.shape[1],):
            raise SparseSolverError("inconsistent problem shapes")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
            raise SparseSolverError("problem data contains NaN or Inf")
        if np.any(w <= 0):
            raise SparseSolverError("coordinate weights must be positive")
        if self.lam < 0:
            raise SparseSolverError("lambda must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "omega", w)


def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _kkt_from_gram(Gx, b, thresholds, x) -> float:
    """KKT violation computed from the maintained gradient ``Gx - b``.

    ``thresholds`` is lam*omega/2, so the subgradient bound is 2*thresholds.
    Supports a leading batch axis.
    """
    grad = 2.0 * (Gx - b)
    bound = 2.0 * thresholds
    active = x != 0
    viol = np.where(active,
                    np.abs(grad + bound * np.sign(x)),
                    np.maximum(np.abs(grad) - bound, 0.0))
    return float(viol.max())


def _cd_gram(G, b, thresholds, x0, max_sweeps=MAX_SWEEPS,
             obj_rtol=OBJ_RTOL, kkt_tol=None):
    """Cyclic coordinate descent on ``x^T G x - 2 b^T x + 2 sum t_k |x_k|``.

    All arguments may carry broadcastable leading batch axes (e.g. folds,
    or a whole lambda path at once); the coordinate sweeps run jointly
    across the batch.  Stops at an exact fixed point, on relative objective
    stagnation, or, when ``kkt_tol`` is given, on the KKT residual.
    Returns (x, sweeps).

    The coordinate update ``(clip(q, -t, t) - q) / G_kk`` is the soft
    threshold of ``-q`` in fewer array operations.  It gives the same
    values, so iterates and sweep counts do not depend on the form; only a
    dead-zone coordinate reads +0.0 where ``soft_threshold`` gives -0.0.
    """
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
    Gx = (G @ x[..., None])[..., 0]
    diag = np.diagonal(G, axis1=-2, axis2=-1)
    positive = diag > 0
    all_positive = bool(positive.all())

    def by_coordinate(a):  # row k holds coordinate k of every member
        return np.ascontiguousarray(np.moveaxis(a, -1, 0))

    # the views and operands of each coordinate step, gathered once; the
    # operands keep their own (unbroadcast) shapes, and a column-major G
    # (see cv_select_lambda) makes its columns contiguous without a copy
    steps = list(zip(np.moveaxis(x, -1, 0), np.moveaxis(Gx, -1, 0),
                     by_coordinate(diag), by_coordinate(b), by_coordinate(-t),
                     by_coordinate(t), by_coordinate(np.where(positive, diag, 1.0)),
                     by_coordinate(positive), by_coordinate(G)))

    def objective():
        # one (batch, p) temporary at a time
        penalty = np.abs(x)
        penalty *= t
        penalty = penalty.sum(-1)
        return (x * Gx).sum(-1) - 2 * (b * x).sum(-1) + 2 * penalty

    obj = objective()
    sweep = 0
    for sweep in range(1, max_sweeps + 1):
        moved = False
        for xk, Gxk, dk, bk, lo, hi, safe, pos, col in steps:
            q = Gxk - dk * xk - bk
            new = np.minimum(np.maximum(q, lo), hi)
            new -= q
            new /= safe
            if not all_positive:
                new = np.where(pos, new, 0.0)
            delta = new - xk
            if np.count_nonzero(delta):
                moved = True
                Gx += col * delta[..., None]
                xk[...] = new
        if not moved:  # exact fixed point of the coordinate map
            break
        if kkt_tol is not None:
            if _kkt_from_gram(Gx, b, t, x) <= kkt_tol:
                break
            continue
        new_obj = objective()
        if np.all(np.abs(obj - new_obj) <= obj_rtol * np.maximum(np.abs(new_obj), 1.0)):
            obj = new_obj
            break
        obj = new_obj
    if squeeze:
        return x[0], sweep
    return x, sweep


@njit(cache=True)
def _cd_path_kernel(G, fold_of, b, t, x, max_sweeps, obj_rtol):  # pragma: no cover
    """Compiled batched descent: member i uses Gram ``G[fold_of[i]]``.

    Members are frozen individually once their objective stagnates or they
    reach an exact fixed point.  Mutates ``x`` in place.
    """
    B, p = x.shape
    Gx = np.zeros((B, p))
    obj = np.zeros(B)
    for i in range(B):
        f = fold_of[i]
        for j in range(p):
            acc = 0.0
            for k in range(p):
                acc += G[f, j, k] * x[i, k]
            Gx[i, j] = acc
        o = 0.0
        for k in range(p):
            o += x[i, k] * Gx[i, k] - 2.0 * b[i, k] * x[i, k] + 2.0 * t[i, k] * abs(x[i, k])
        obj[i] = o
    active = np.ones(B, np.bool_)
    sweeps = 0
    for sweep in range(max_sweeps):
        progressed = False
        for i in range(B):
            if not active[i]:
                continue
            progressed = True
            f = fold_of[i]
            moved = False
            for k in range(p):
                gkk = G[f, k, k]
                if gkk <= 0.0:
                    continue
                z = b[i, k] - (Gx[i, k] - gkk * x[i, k])
                tk = t[i, k]
                if z > tk:
                    new = (z - tk) / gkk
                elif z < -tk:
                    new = (z + tk) / gkk
                else:
                    new = 0.0
                d = new - x[i, k]
                if d != 0.0:
                    moved = True
                    for j in range(p):
                        Gx[i, j] += G[f, j, k] * d
                    x[i, k] = new
            o = 0.0
            for k in range(p):
                o += x[i, k] * Gx[i, k] - 2.0 * b[i, k] * x[i, k] + 2.0 * t[i, k] * abs(x[i, k])
            change = abs(obj[i] - o)
            limit = abs(o)
            if limit < 1.0:
                limit = 1.0
            if not moved or change <= obj_rtol * limit:
                active[i] = False
            obj[i] = o
        sweeps = sweep + 1
        if not progressed:
            break
    return sweeps


def _solve_path(G, b, thresholds, p):
    """Solve a (lambdas, folds) grid of LASSO problems on shared fold Grams.

    ``G``: (F, p, p); ``b``: (F, p); ``thresholds``: (L, 1, p) or
    broadcastable.  Returns solutions of shape (L, F, p).
    """
    F = G.shape[0]
    L = thresholds.shape[0]
    if HAVE_NUMBA:
        t = np.ascontiguousarray(np.broadcast_to(thresholds, (L, F, p)).reshape(L * F, p))
        bb = np.ascontiguousarray(np.broadcast_to(b, (L, F, p)).reshape(L * F, p))
        fold_of = np.tile(np.arange(F), L)
        x = np.zeros((L * F, p))
        _cd_path_kernel(np.ascontiguousarray(G), fold_of, bb, t, x,
                        MAX_SWEEPS, OBJ_RTOL)
        return x.reshape(L, F, p)
    x, _ = _cd_gram(G, b, thresholds, np.zeros(p))
    return x


def kkt_residual(problem: LassoProblem, v: np.ndarray) -> float:
    """Largest violation of the LASSO optimality conditions at ``v``."""
    v = np.asarray(v, dtype=float)
    Gx = problem.A.T @ (problem.A @ v)
    b = problem.A.T @ problem.y
    return _kkt_from_gram(Gx, b, problem.lam * problem.omega / 2.0, v)


def _active_set_polish(G, b, lam_omega, x):
    """Solve the stationarity system on the current support.

    With the correct support and signs the system ``G_SS w = b_S -
    lam*omega_S*sign_S/2`` is consistent and its least-squares solution
    zeroes the active KKT residuals exactly; a sign flip means the support
    is still wrong and None is returned.
    """
    S = np.nonzero(x)[0]
    if S.size == 0:
        return None
    s = np.sign(x[S])
    GSS = G[np.ix_(S, S)]
    rhs = b[S] - 0.5 * lam_omega[S] * s
    # minimal displacement from the iterate keeps the sign orthant when the
    # stationarity system is singular
    delta, *_ = np.linalg.lstsq(GSS, rhs - GSS @ x[S], rcond=None)
    w = x[S] + delta
    if np.any(w * s < 0):
        return None
    out = np.zeros_like(x)
    out[S] = w
    return out


def _null_space_jump(G, lam_omega, x):
    """Exact line search along null directions of the support Gramian.

    On a rank-deficient support the quadratic term is flat along
    ``null(G_SS)`` and the objective reduces to a piecewise-linear function
    of the step; its minimizer sits at a breakpoint where a coordinate
    leaves the support.  Returns an improved iterate or None.
    """
    out = x.copy()
    improved_any = False
    while True:
        S = np.nonzero(out)[0]
        if S.size < 2:
            break
        e, V = np.linalg.eigh(G[np.ix_(S, S)])
        null = V[:, e <= 1e-12 * max(e[-1], 1e-300)]
        if null.shape[1] == 0:
            break
        xs = out[S]
        w = lam_omega[S]
        f0 = float(w @ np.abs(xs))
        best_val, best_step = f0 * (1.0 - 1e-14), None
        for j in range(null.shape[1]):
            n = null[:, j]
            mask = n != 0.0
            if not np.any(mask):
                continue
            ts = -xs[mask] / n[mask]
            vals = np.abs(xs[None, :] + ts[:, None] * n[None, :]) @ w
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val, best_step = vals[k], ts[k] * n
        if best_step is None:
            break
        xs = xs + best_step
        xs[np.abs(xs) <= 1e-14 * np.abs(xs).max(initial=0.0)] = 0.0
        out[S] = xs
        improved_any = True
    return out if improved_any else None


def lasso_solve(problem: LassoProblem, x0=None, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Coordinate-descent minimizer of the weighted LASSO objective.

    Runs coordinate descent in growing chunks; between chunks a
    rank-deficient support is unstuck by an exact null-space line search
    and the stationarity system is polished on the active set (plain
    descent crawls in flat valleys).  Warns with the residual if the KKT
    tolerance is still unmet after ``max_sweeps`` sweeps.  ``lam = 0``
    falls back to least squares.
    """
    if problem.lam == 0.0:
        v, *_ = np.linalg.lstsq(problem.A, problem.y, rcond=None)
        return v
    p = problem.A.shape[1]
    G = problem.A.T @ problem.A
    b = problem.A.T @ problem.y
    lam_omega = problem.lam * problem.omega
    # absolute 1e-8 on unit-scale data, relative guard for large magnitudes
    tol = max(KKT_TOL, 1e-12 * 2.0 * float(np.abs(b).max(initial=0.0)))
    x = np.zeros(p) if x0 is None else np.asarray(x0, dtype=float)
    used = 0
    chunk = 50
    res = np.inf
    while used < max_sweeps:
        before = x.copy()
        x, sweeps = _cd_gram(G, b, lam_omega / 2.0, x,
                             max_sweeps=min(chunk, max_sweeps - used), kkt_tol=tol)
        used += sweeps
        res = kkt_residual(problem, x)
        if res <= tol:
            return x
        jumped = _null_space_jump(G, lam_omega, x)
        if jumped is not None:
            x = jumped
        polished = _active_set_polish(G, b, lam_omega, x)
        if polished is not None:
            res_p = kkt_residual(problem, polished)
            if res_p <= tol:
                return polished
            if res_p < res:
                x, res = polished, res_p
        if jumped is None and np.array_equal(before, x):
            break  # stationary for coordinate descent; no further progress
        chunk = min(2 * chunk, 2000)
    warnings.warn(
        f"lasso_solve: KKT residual {res:.3e} after {used} sweeps",
        ConvergenceWarning)
    return x


# ---------------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class CvReport:
    lambdas: np.ndarray       # grid, descending
    mean_errors: np.ndarray   # mean held-out squared error per lambda
    chosen: float
    seed: int

    def __post_init__(self):
        errs = np.asarray(self.mean_errors, dtype=float)
        lams = np.asarray(self.lambdas, dtype=float)
        if errs.shape != lams.shape:
            raise SparseSolverError("grid and error lengths differ")
        hits = np.nonzero(lams == self.chosen)[0]
        if hits.size == 0:
            raise SparseSolverError("chosen lambda is not on the grid")
        if errs[hits[0]] > errs.min():
            raise SparseSolverError("chosen lambda does not attain the CV minimum")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "mean_errors", errs)


def fold_indices(n: int, folds: int, seed: int):
    """Deterministic fold assignment from a seed."""
    if n < folds:
        raise SparseSolverError(f"need at least {folds} samples for {folds}-fold CV")
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), folds)


def lambda_grid(A, y, omega, decades: float = 4.0, points: int = 25) -> np.ndarray:
    """Logarithmic grid from the full-shrinkage threshold downward."""
    lam_max = 2.0 * float(np.abs(A.T @ y).max(initial=0.0)) / float(np.min(omega))
    if lam_max == 0.0:
        return np.zeros(1)
    return np.geomspace(lam_max, lam_max * 10.0 ** (-decades), points)


def debias_on_support(A, y, v):
    """Least-squares refit on the support of ``v`` (support unchanged)."""
    S = np.nonzero(v)[0]
    if S.size == 0:
        return v
    w, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
    out = np.zeros_like(v)
    out[S] = w
    return out


def _held_out_error(A, y, v) -> float:
    r = y - A @ v
    return (r @ r) / len(y)


def cv_select_lambda(A, y, omega, folds: int = 10, seed: int = 0,
                     decades: float = 4.0, points: int = 25,
                     refit: bool = False) -> CvReport:
    """Pick the regularization strength by k-fold cross-validation.

    The validation loss is the same squared empirical norm as the fit (the
    design rows already carry sqrt-weights).  Among lambdas tying at the
    minimum, the largest (sparsest model) wins.  With ``refit`` the
    held-out error is evaluated for the least-squares refit on each
    solution's support, so lambda purely selects the sparsity pattern.
    The refit depends on the support alone, so each distinct (fold,
    support) pair is refitted and scored once and its held-out error
    reused by every lambda that selects it.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    omega = np.asarray(omega, dtype=float)
    n, p = A.shape
    lams = lambda_grid(A, y, omega, decades, points)
    idx = fold_indices(n, folds, seed)
    masks = []
    for hold in idx:
        mask = np.ones(n, dtype=bool)
        mask[hold] = False
        masks.append(mask)
    # fold Grams stored column-major, so the descent reads each column
    # G[:, :, k] as one contiguous block without copying G
    G = np.moveaxis(np.empty((p, folds, p)), 0, -1)
    b = np.empty((folds, p))
    for f, m in enumerate(masks):
        G[f] = A[m].T @ A[m]
        b[f] = A[m].T @ y[m]
    errors = np.zeros((len(lams), folds))
    if np.all(lams == 0.0):
        x = np.stack([np.linalg.lstsq(A[m], y[m], rcond=None)[0] for m in masks])[None]
        x = np.broadcast_to(x, (len(lams), folds, p))
    else:
        # the whole path and all folds as one batched descent
        thresholds = lams[:, None, None] * omega / 2.0
        x = _solve_path(G, b, thresholds, p)
    supports = x != 0
    for f, (hold, m) in enumerate(zip(idx, masks)):
        A_fit, y_fit, A_hold, y_hold = A[m], y[m], A[hold], y[hold]
        refits = {}  # support -> held-out error of its refit
        for i in range(len(lams)):
            if not refit:
                errors[i, f] = _held_out_error(A_hold, y_hold, x[i, f])
                continue
            support = supports[i, f].tobytes()
            if support not in refits:
                refits[support] = _held_out_error(
                    A_hold, y_hold, debias_on_support(A_fit, y_fit, x[i, f]))
            errors[i, f] = refits[support]
    mean_errors = errors.mean(axis=1)
    best = np.nonzero(mean_errors <= mean_errors.min())[0]
    chosen = float(lams[best[0]])  # grid is descending: first hit = largest
    return CvReport(lams, mean_errors, chosen, seed)
