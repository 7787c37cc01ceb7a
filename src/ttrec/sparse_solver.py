"""Weighted LASSO by its exact homotopy path, with cross-validated lambda.

The objective is ``||y - A v||_2^2 + lam * ||omega (*) v||_1`` (no 1/n
factor).  On the Gram ``G = A^T A``, ``b = A^T y`` it reads ``x^T G x -
2 b^T x + 2 lam sum_k h_k |x_k|`` with ``h = omega / 2``, and its minimizer
is piecewise linear in ``lam``.  The homotopy (LARS-lasso) method of
Osborne, Presnell & Turlach (2000) and Efron, Hastie, Johnstone &
Tibshirani (2004) follows it from ``lam_max`` down, one active-set solve per
breakpoint, so both the final solve and every cross-validation fold get
exact solutions and exact supports at their lambdas.  Optimality is
certified by the KKT conditions: for active coordinates ``|2 A_k^T (A v -
y) + lam * omega_k * sign(v_k)| <= tol`` and for inactive ones ``|2 A_k^T
(A v - y)| <= lam * omega_k + tol``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# read by the benchmark's run stamp (bench/run.py), which records the LASSO
# engine; there is one, the numpy homotopy path in _homotopy
HAVE_NUMBA = False

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
    """KKT violation computed from the gradient ``Gx - b``.

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


def _homotopy(G, b, h, lams):
    """Exact paths of ``x^T G_f x - 2 b_f^T x + 2 lam sum_k h_k |x_k|`` over ``lams``.

    ``G`` is (F, p, p), ``b`` (F, p) and ``lams`` descending.  Yields
    ``(f, S, q, w, lo, hi)``, one segment of problem ``f``'s path that holds
    grid points: at ``lams[lo:hi]`` the minimizer is ``w - lam * q`` on the
    coordinates ``S`` and zero elsewhere.  On a segment with signs ``s``,
    ``G_SS [q, w] = [h_S * s, b_S]``, so ``q`` is the path direction and
    ``w`` the least-squares refit on ``S``.  Between grid points a path
    moves from breakpoint to breakpoint: a coordinate joins where its
    correlation ``c = b - G x`` reaches ``+-lam * h``, and leaves where its
    value crosses zero.  The F paths advance one breakpoint each per
    iteration, so the array operations of a step are shared; a shorter
    support is padded with identity rows.

    What keeps it exact on degenerate data: ``c`` and ``x`` are recomputed
    from each segment's solve, never accumulated; a column whose Schur
    complement on the support is below 1e-11 of its diagonal (a duplicate,
    a zero column, any column once the rows run out) does not join, since
    its correlation moves with the support's; and a coordinate leaves only
    while it moves towards zero.  The last rule also keeps a coordinate
    that has just left from rejoining at once: ``s_k q_k`` with it on the
    support and the rate at which its correlation would reach the bound
    without it have the same sign.
    """
    F, p = b.shape
    n_grid = len(lams)
    ratio = np.abs(b) / h
    first = ratio.argmax(1)
    lam = ratio[np.arange(F), first]      # x = 0 from here up
    lo = np.count_nonzero(lams >= lam[:, None], axis=1)
    for f in np.nonzero(lo)[0]:
        yield f, np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0), 0, lo[f]
    S = [[j] for j in first.tolist()]
    signs = [[1.0 if b[f, j] > 0 else -1.0] for f, j in enumerate(first)]
    xq = np.zeros((F, p, 2))              # each problem's x and path direction q
    active = np.zeros((F, p), dtype=bool)
    active[np.arange(F), first] = True
    grid = np.arange(n_grid)
    live = [f for f in range(F) if lo[f] < n_grid]
    for _ in range(10 * p + 100):         # a few p steps per path in practice
        if not live:
            return
        fl = np.array(live)
        rows = np.arange(len(live))
        sizes = [len(S[f]) for f in live]
        k_max = max(sizes)
        Sa = np.array([S[f] + [0] * (k_max - len(S[f])) for f in live], dtype=np.intp)
        s = np.array([signs[f] + [0.0] * (k_max - len(S[f])) for f in live])
        pad = s == 0.0
        GSS = G[fl[:, None, None], Sa[:, :, None], Sa[:, None, :]]
        rhs = np.stack((b[fl[:, None], Sa], h[Sa] * s), axis=2)
        if k_max > min(sizes):
            GSS[pad[:, None, :] | pad[:, :, None]] = 0.0
            m, k = np.nonzero(pad)
            GSS[m, k, k] = 1.0
            rhs[pad] = 0.0
        # G_SS [w, q] = [b_S, h_S * s]
        wq = _solve(GSS, rhs)
        w, q = wq[:, :, 0], wq[:, :, 1]
        xq[fl, :, 1] = 0.0
        xq[fl.repeat(sizes), Sa[~pad], 1] = q[~pad]
        Gxq = np.matmul(G, xq)[fl]        # all F: no copy of the Grams
        c = b[fl] - Gxq[:, :, 0]
        a = Gxq[:, :, 1]                  # rate of change of c as lam falls
        # join: c - gamma*a meets +-(lam - gamma)*h
        lam_f = lam[fl]
        up, down = h - a, h + a
        g_up = np.divide(np.maximum(lam_f[:, None] * h - c, 0.0), up,
                         out=np.full(up.shape, np.inf), where=up > 0)
        g_down = np.divide(np.maximum(lam_f[:, None] * h + c, 0.0), down,
                           out=np.full(up.shape, np.inf), where=down > 0)
        g_join = np.minimum(g_up, g_down)
        g_join[active[fl]] = np.inf
        # leave: a coordinate moving towards zero reaches it (the last column
        # keeps argmin defined should rounding ever empty a support)
        sq = s * q
        g_leave = np.full((len(live), k_max + 1), np.inf)
        np.divide(np.maximum(s * (w - lam_f[:, None] * q), 0.0), -sq,
                  out=g_leave[:, :-1], where=sq < 0)
        kl = g_leave.argmin(1)
        while True:
            jn = g_join.argmin(1)
            join = g_join[rows, jn] < g_leave[rows, kl]
            # a column in the span of its support (G_jj - G_jS G_SS^-1 G_Sj
            # about 0) never has to join: its correlation moves with the
            # support's
            col = G[fl[:, None], Sa, jn[:, None]] * ~pad
            Gjj = G[fl, jn, jn]
            spanned = join & (Gjj - (col * _solve(GSS, col[:, :, None])[:, :, 0]).sum(1)
                              <= 1e-11 * Gjj)
            if not spanned.any():
                break
            g_join[rows[spanned], jn[spanned]] = np.inf
        del GSS   # the next step's gather would otherwise hold two of them
        lam_next = lam_f - np.where(join, g_join[rows, jn], g_leave[rows, kl])
        lo_f = lo[fl]
        hi_f = lo_f + np.count_nonzero((lams > lam_next[:, None]) & (grid >= lo_f[:, None]),
                                       axis=1)
        # a path with no breakpoint left (lam_next = -inf) is done
        x_next = w - np.maximum(lam_next, 0.0)[:, None] * q
        plus = g_up[rows, jn] <= g_down[rows, jn]
        stepped, live = live, []
        for i, f in enumerate(stepped):
            k = sizes[i]
            if hi_f[i] > lo_f[i]:
                yield f, Sa[i, :k], q[i, :k], w[i, :k], lo_f[i], hi_f[i]
                lo[f] = hi_f[i]
                if lo[f] == n_grid:
                    continue
            xq[f, S[f], 0] = x_next[i, :k]
            if join[i]:
                S[f].append(jn[i])
                signs[f].append(1.0 if plus[i] else -1.0)
                active[f, jn[i]] = True
            else:
                left = S[f].pop(kl[i])
                signs[f].pop(kl[i])
                xq[f, left, 0] = 0.0
                active[f, left] = False
            lam[f] = lam_next[i]
            live.append(f)
    # step budget spent (never seen): extend the last segments; the KKT
    # certificate of lasso_solve reports the error
    for i, f in enumerate(stepped):
        if f in live:
            yield f, Sa[i, :sizes[i]], q[i, :sizes[i]], w[i, :sizes[i]], lo[f], n_grid


def _solve(M, rhs):
    """Batched ``M^-1 rhs``; minimum-norm solutions if a matrix is singular."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.stack([np.linalg.lstsq(Mf, r, rcond=None)[0] for Mf, r in zip(M, rhs)])


# the name bench/layers.py wraps; nothing in ttrec calls it
_cd_gram = _homotopy


def kkt_residual(problem: LassoProblem, v: np.ndarray) -> float:
    """Largest violation of the LASSO optimality conditions at ``v``."""
    v = np.asarray(v, dtype=float)
    Gx = problem.A.T @ (problem.A @ v)
    b = problem.A.T @ problem.y
    return _kkt_from_gram(Gx, b, problem.lam * problem.omega / 2.0, v)


def lasso_solve(problem: LassoProblem) -> np.ndarray:
    """Minimizer of the weighted LASSO objective: the homotopy path from
    ``lam_max`` stopped at ``problem.lam``.

    Certified by the KKT conditions; warns with the residual if they are
    not met.  ``lam = 0`` falls back to least squares.
    """
    if problem.lam == 0.0:
        v, *_ = np.linalg.lstsq(problem.A, problem.y, rcond=None)
        return v
    G = problem.A.T @ problem.A
    b = problem.A.T @ problem.y
    x = np.zeros(len(b))
    for _, S, q, w, _, _ in _homotopy(G[None], b[None], problem.omega / 2.0,
                                      np.array([problem.lam])):
        x[S] = w - problem.lam * q
    # absolute 1e-8 on unit-scale data, relative guard for large magnitudes
    tol = max(KKT_TOL, 1e-12 * 2.0 * float(np.abs(b).max(initial=0.0)))
    res = kkt_residual(problem, x)
    if res > tol:
        warnings.warn(f"lasso_solve: KKT residual {res:.3e} above {tol:.1e}",
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


def _solve_path(G, b, h, lams, A, y, holds) -> np.ndarray:
    """Held-out error at each (grid lambda, fold) of cross-validation.

    Runs the exact paths on the fold Grams ``(G, b)`` and scores the
    least-squares refit of each support that fold ``f``'s path visits on
    its held-out rows ``holds[f]`` of ``(A, y)``, once per distinct (fold,
    support).
    """
    errors = np.empty((len(lams), len(holds)))
    scored = {}  # (fold, support) -> held-out error of its refit
    for f, S, _, w, lo, hi in _homotopy(G, b, h, lams):
        key = (f, np.sort(S).tobytes())
        err = scored.get(key)
        if err is None:
            hold = holds[f]
            err = scored[key] = _held_out_error(A[np.ix_(hold, S)], y[hold], w)
        errors[lo:hi, f] = err
    return errors


def _fold_grams(A, y, holds):
    """The Gram ``A_fit^T A_fit`` and ``A_fit^T y_fit`` of each fold's
    training rows, shapes (F, p, p) and (F, p)."""
    G = np.empty((len(holds), A.shape[1], A.shape[1]))
    b = np.empty((len(holds), A.shape[1]))
    for f, hold in enumerate(holds):
        A_fit = np.delete(A, hold, axis=0)
        np.matmul(A_fit.T, A_fit, out=G[f])
        np.matmul(A_fit.T, np.delete(y, hold), out=b[f])
    return G, b


def cross_validate(A, y, lams, folds: int, seed: int, fold_errors) -> CvReport:
    """k-fold CV over the descending grid ``lams``: ``fold_errors(G, b, lams,
    A, y, holds)`` scores the fits on the fold Grams, shape (L, F); among
    lambdas tying at the minimum fold mean, the largest wins."""
    holds = fold_indices(A.shape[0], folds, seed)
    G, b = _fold_grams(A, y, holds)
    mean_errors = fold_errors(G, b, lams, A, y, holds).mean(axis=1)
    chosen = float(lams[np.argmax(mean_errors <= mean_errors.min())])  # first = largest
    return CvReport(lams, mean_errors, chosen, seed)


def cv_select_lambda(A, y, omega, folds: int = 10, seed: int = 0,
                     decades: float = 4.0, points: int = 25) -> CvReport:
    """Pick the regularization strength by k-fold cross-validation.

    The validation loss is the same squared empirical norm as the fit (the
    design rows already carry sqrt-weights).  The held-out error is always
    that of the least-squares refit on each path solution's support, so
    lambda purely selects the sparsity pattern.  Among lambdas tying at
    the minimum, the largest (sparsest model) wins.  The refit is the
    ``w`` of the path segment that holds the support, so each distinct
    (fold, support) pair is refitted and scored once and its held-out
    error reused by every lambda that selects it.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return cross_validate(A, y, lambda_grid(A, y, omega, decades, points), folds, seed,
                          lambda G, b, lams, A, y, holds:
                          _solve_path(G, b, omega / 2.0, lams, A, y, holds))
