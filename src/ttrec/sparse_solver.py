"""LASSO by its exact homotopy path, with cross-validated lambda.

The path solves the unit-weight LASSO ``||y - A v||_2^2 + lam * ||v||_1``
(no 1/n factor).  On the Gram ``G = A^T A``, ``b = A^T y`` it reads ``x^T G
x - 2 b^T x + lam sum_k |x_k|``, and its minimizer is piecewise linear in
``lam``.  The homotopy (LARS-lasso) method of Osborne, Presnell & Turlach
(2000) and Efron, Hastie, Johnstone & Tibshirani (2004) follows it from
``lam_max`` down, one active-set solve per breakpoint, so every path gets
exact solutions and exact supports at its lambdas.  ``cross_validate``,
the k-fold driver of this LASSO and of the ``als_l2`` ridge, alone reads
the held-out rows: an engine turns its stacked fold and full-data Grams
into fits.  The LASSO engine ``_solve_path`` runs the paths as one stack;
``lasso_solve`` is it on a stack of one.  Weights ``lam * ||omega (*)
v||_1`` are a change of variables (Zou 2006): ``lasso_solve`` and the
``rals`` microstep solve on the rescaled columns ``A / omega`` and map back
by ``v = x / omega``.  The KKT conditions certify optimality: ``|2 A_k^T (A
v - y) + lam * omega_k * sign(v_k)| <= tol`` where ``v_k != 0``, else ``|2
A_k^T (A v - y)| <= lam * omega_k + tol``.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

# read by the benchmark's run stamp (bench/run.py), which records the LASSO
# engine; there is one, the numpy homotopy path in _homotopy
HAVE_NUMBA = False

KKT_TOL = 1e-8
# the cross-validation defaults, also RecoveryConfig's: folds, and the
# decades and points of the lambda grid
CV_FOLDS, GRID_DECADES, GRID_POINTS = 10, 4.0, 25


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
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise SparseSolverError("lambda must be finite and nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "omega", w)


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


def _homotopy(G, b, lams):
    """Exact paths of ``x^T G_f x - 2 b_f^T x + lam sum_k |x_k|`` over ``lams``.

    ``G`` is (F, p, p), ``b`` (F, p) and ``lams`` descending.  Yields one
    batch per step, ``(f, k, S, q, w, lo, hi)``: row ``i`` is a segment of
    problem ``f[i]``'s path that holds grid points, and at
    ``lams[lo[i]:hi[i]]`` the minimizer is ``w[i] - lam * q[i]`` on the
    coordinates ``S[i]`` and zero elsewhere.  Only the first ``k[i]``
    entries of ``S[i]``, ``q[i]`` and ``w[i]`` belong to the support, in
    the order its coordinates joined; ``q`` and ``w`` are zero past them.
    On a segment with signs ``s``, ``G_SS [q, w] = [s / 2, b_S]``, so
    ``q`` is the path direction and ``w`` the least-squares refit on ``S``.
    Between grid points a path moves from breakpoint to breakpoint: a
    coordinate joins where its correlation ``c = b - G x`` reaches ``+-lam
    / 2``, and leaves where its value crosses zero.  The F paths advance
    one breakpoint each per iteration, so the array operations of a step
    are shared; a shorter support is padded with identity rows.  A support
    is kept per coordinate, as its sign and the step it joined at, and each
    step lists it in join order, the order of the sums in the solves.

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
    problems = np.arange(F)
    ratio = np.abs(b) / 0.5               # the lam at which each would join x = 0
    first = ratio.argmax(1)
    lam = ratio[problems, first]          # x = 0 from here up
    lo = np.count_nonzero(lams >= lam[:, None], axis=1)
    f = np.flatnonzero(lo)
    if f.size:
        none = np.zeros((f.size, 0))
        yield (f, np.zeros(f.size, dtype=np.intp), none.astype(np.intp), none, none,
               np.zeros(f.size, dtype=np.intp), lo[f])
    # each problem's support: signs[f, j] is +-1 on it and 0 off it, and
    # joined[f, j] the step at which j joined (inf off it), so sorting by
    # joined lists the support in join order
    signs = np.zeros((F, p))
    joined = np.full((F, p), np.inf)
    signs[problems, first] = np.where(b[problems, first] > 0, 1.0, -1.0)
    joined[problems, first] = 0.0
    xq = np.zeros((F, p, 2))              # each problem's x and path direction q
    neg_lams = -lams                      # ascending, for searchsorted
    fl = np.flatnonzero(lo < n_grid)      # the live problems
    for step in range(1, 10 * p + 101):   # a few p steps per path in practice
        if not fl.size:
            return
        rows = np.arange(fl.size)
        member = signs[fl] != 0.0
        sizes = member.sum(1)
        # at least one column: argmin needs one, and an empty support's leave
        # index 0 must be in range
        k_max = max(sizes.max(), 1)
        Sa = np.argsort(joined[fl], axis=1, kind="stable")[:, :k_max]
        s = signs[fl[:, None], Sa]
        pad = s == 0.0
        padded = k_max > sizes.min()
        GSS = G[fl[:, None, None], Sa[:, :, None], Sa[:, None, :]]
        rhs = np.empty((fl.size, k_max, 2))
        rhs[:, :, 0] = b[fl[:, None], Sa]
        np.multiply(0.5, s, out=rhs[:, :, 1])
        if padded:
            GSS[pad[:, None, :] | pad[:, :, None]] = 0.0
            m, k = np.nonzero(pad)
            GSS[m, k, k] = 1.0
            rhs[pad] = 0.0
        # G_SS [w, q] = [b_S, s / 2]
        wq = _solve(GSS, rhs)
        if padded:
            wq[pad] = 0.0
        w, q = wq[:, :, 0], wq[:, :, 1]
        on = ~pad
        sf, sj = fl.repeat(sizes), Sa[on]   # (problem, coordinate) of each support entry
        xq[fl, :, 1] = 0.0
        xq[sf, sj, 1] = q[on]
        Gxq = np.matmul(G, xq)[fl]        # all F: no copy of the Grams
        c = b[fl] - Gxq[:, :, 0]
        a = Gxq[:, :, 1]                  # rate of change of c as lam falls
        # join: c - gamma*a meets +-(lam - gamma)/2
        lam_f = lam[fl]
        up, down = 0.5 - a, 0.5 + a
        g_up = np.divide(np.maximum(lam_f[:, None] * 0.5 - c, 0.0), up,
                         out=np.full(up.shape, np.inf), where=up > 0)
        g_down = np.divide(np.maximum(lam_f[:, None] * 0.5 + c, 0.0), down,
                           out=np.full(up.shape, np.inf), where=down > 0)
        g_join = np.minimum(g_up, g_down)
        g_join[member] = np.inf
        # leave: a coordinate moving towards zero reaches it
        sq = s * q
        g_leave = np.full((fl.size, k_max), np.inf)
        np.divide(np.maximum(s * (w - lam_f[:, None] * q), 0.0), -sq,
                  out=g_leave, where=sq < 0)
        kl = g_leave.argmin(1)
        gamma_leave = g_leave[rows, kl]
        while True:
            jn = g_join.argmin(1)
            gamma_join = g_join[rows, jn]
            join = gamma_join < gamma_leave
            if not join.any():
                break
            # a column in the span of its support (G_jj - G_jS G_SS^-1 G_Sj
            # about 0) never has to join: its correlation moves with the
            # support's
            col = G[fl[:, None], Sa, jn[:, None]] * on
            Gjj = G[fl, jn, jn]
            spanned = join & (Gjj - (col * _solve(GSS, col[:, :, None])[:, :, 0]).sum(1)
                              <= 1e-11 * Gjj)
            if not spanned.any():
                break
            g_join[rows[spanned], jn[spanned]] = np.inf
        lam_next = lam_f - np.where(join, gamma_join, gamma_leave)
        plus = g_up[rows, jn] <= g_down[rows, jn]
        # the next step's gather of G_SS is the peak of a CV call's memory:
        # none of this step's temporaries is held through it
        del GSS, rhs, Gxq, c, a, up, down, g_up, g_down, g_join, g_leave, sq
        lo_f = lo[fl]
        # the grid points above lam_next form a prefix of lams
        hi_f = np.maximum(lo_f, np.searchsorted(neg_lams, -lam_next))
        x_next = w - np.maximum(lam_next, 0.0)[:, None] * q
        seg = hi_f > lo_f
        if seg.all():
            yield fl, sizes, Sa, q, w, lo_f, hi_f
        elif seg.any():
            yield fl[seg], sizes[seg], Sa[seg], q[seg], w[seg], lo_f[seg], hi_f[seg]
        lo[fl] = hi_f
        # the move to the next breakpoint; a path with no breakpoint left
        # (lam_next = -inf) is done, and nothing reads its state again
        xq[sf, sj, 0] = x_next[on]
        fj, jj = fl[join], jn[join]
        signs[fj, jj] = np.where(plus[join], 1.0, -1.0)
        joined[fj, jj] = step
        if not join.all():
            fv, left = fl[~join], Sa[rows, kl][~join]
            xq[fv, left, 0] = 0.0
            signs[fv, left] = 0.0
            joined[fv, left] = np.inf
        lam[fl] = lam_next
        go = hi_f < n_grid
        fl = fl[go]
    # step budget spent (never seen): extend the last segments; the KKT
    # certificate reports the error
    if fl.size:
        yield fl, sizes[go], Sa[go], q[go], w[go], lo[fl], np.full(fl.size, n_grid)


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


def _certified(G, b, lam: float, x: np.ndarray) -> np.ndarray:
    """``x``, the path's solution at ``lam > 0`` on the Grams ``G``, ``b``;
    warns with the KKT residual if the conditions are not met."""
    # absolute 1e-8 on unit-scale data, relative guard for large magnitudes
    tol = max(KKT_TOL, 1e-12 * 2.0 * float(np.abs(b).max(initial=0.0)))
    res = _kkt_from_gram(G @ x, b, lam / 2.0, x)
    if res > tol:
        warnings.warn(f"LASSO path at lambda {lam:.3e}: KKT residual {res:.3e} "
                      f"above {tol:.1e}", ConvergenceWarning)
    return x


def lasso_solve(problem: LassoProblem) -> np.ndarray:
    """Minimizer of the weighted LASSO objective: ``_solve_path``'s fit on
    the rescaled columns ``A / omega`` and the grid ``[lam]``, mapped back
    by ``1 / omega``.  ``lam = 0`` falls back to least squares on ``A``."""
    A, y, lam, omega = problem.A, problem.y, problem.lam, problem.omega
    if lam == 0.0:
        return np.linalg.lstsq(A, y, rcond=None)[0]
    A = A / omega
    *_, fit = _solve_path((A.T @ A)[None], (A.T @ y)[None], np.array([lam]))
    return fit(0) / omega


# ---------------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class CvReport:
    """The grid, its fold-mean errors, the chosen lambda (the largest one at
    the minimum) and ``fit``, the full-data minimizer at ``chosen``."""

    lambdas: np.ndarray       # grid, descending
    mean_errors: np.ndarray   # mean held-out squared error per lambda
    chosen: float
    fit: np.ndarray = None    # (p,) fit on all rows at ``chosen``

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


@functools.lru_cache(maxsize=16)
def fold_indices(n: int, folds: int, seed: int):
    """Deterministic fold assignment from a seed: a tuple of read-only index
    arrays, drawn once per ``(n, folds, seed)``."""
    if n < folds:
        raise SparseSolverError(f"need at least {folds} samples for {folds}-fold CV")
    perm = np.random.default_rng(seed).permutation(n)
    perm.flags.writeable = False                  # and so are its splits
    return tuple(np.array_split(perm, folds))


def lambda_grid(A, y, decades: float = GRID_DECADES, points: int = GRID_POINTS) -> np.ndarray:
    """Logarithmic grid from the full-shrinkage threshold downward."""
    lam_max = 2.0 * float(np.abs(A.T @ y).max(initial=0.0))
    if lam_max == 0.0:
        return np.zeros(1)
    lam_min = lam_max * 10.0 ** (-decades)
    if lam_min == 0.0:
        raise SparseSolverError(f"lambda grid bottom {lam_max!r} * 10**-{decades} underflows to 0")
    return np.geomspace(lam_max, lam_min, points)


def debias_on_support(A, y, v):
    """Least-squares refit on the support of ``v`` (support unchanged)."""
    S = np.nonzero(v)[0]
    if S.size == 0:
        return v
    w, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
    out = np.zeros_like(v)
    out[S] = w
    return out


def _solve_path(G, b, lams):
    """The LASSO engine of ``cross_validate``: the exact paths on the
    stacked Grams ``(G, b)``, the folds' and then all rows'.  Row ``i`` of
    ``R`` is the least-squares refit on the support of a segment of fold
    ``fold[i]``'s path that holds ``lams[lo[i]:hi[i]]``, one row per
    segment, so a support a path returns to gets a row again.  The last
    path gives ``fit(k)``, certified by ``_certified``."""
    F, p = len(G) - 1, b.shape[1]
    X = np.zeros((len(lams), p))
    batches = []
    for f, k, S, q, w, lo, hi in _homotopy(G, b, lams):
        fold = f < F
        if not fold.all():      # the full-data segment, at most one per step
            i = np.flatnonzero(~fold)[0]
            a, z, ki = lo[i], hi[i], k[i]
            X[a:z, S[i, :ki]] = w[i, :ki] - lams[a:z, None] * q[i, :ki]
            f, S, w, lo, hi = f[fold], S[fold], w[fold], lo[fold], hi[fold]
        R = np.zeros((len(f), p))
        R[np.arange(len(f))[:, None], S] = w   # w is zero past each support
        batches.append((f, lo, hi, R))
    fold, lo, hi, R = (np.concatenate(parts) for parts in zip(*batches))
    return fold, lo, hi, R, lambda k: _certified(G[-1], b[-1], lams[k], X[k])


def _fold_grams(A, y, holds):
    """The Grams ``A_fit^T A_fit`` and ``A_fit^T y_fit`` of each fold's
    training rows and then of all rows, shapes (F + 1, p, p) and (F + 1, p)."""
    F, (n, p) = len(holds), A.shape
    G = np.empty((F + 1, p, p))
    b = np.empty((F + 1, p))
    for f, hold in enumerate(holds):
        fit = np.ones(n, dtype=bool)
        fit[hold] = False
        A_fit = A[fit]
        np.matmul(A_fit.T, A_fit, out=G[f])
        np.matmul(A_fit.T, y[fit], out=b[f])
    np.matmul(A.T, A, out=G[-1])
    np.matmul(A.T, y, out=b[-1])
    return G, b


def cross_validate(A, y, lams, folds: int, seed: int, engine) -> CvReport:
    """k-fold CV over the descending grid ``lams``, with the full-data fit in
    the same stack; the one place that reads held-out rows.

    ``engine(G, b, lams)`` gets the F fold Grams and then all rows' and
    returns ``(fold, lo, hi, R, fit)``: row ``i`` of ``R`` is a fit of fold
    ``fold[i]`` at ``lams[lo[i]:hi[i]]``, each fold's rows covering the grid
    once in order, scored by its mean squared error on the fold's held-out
    rows; ``fit(k)`` is the full-data fit at ``lams[k] > 0``, and at ``lam =
    0`` it is least squares.  Among lambdas tying at the minimum fold mean,
    the largest wins.  Non-finite Grams raise ``SparseSolverError``."""
    holds = fold_indices(A.shape[0], folds, seed)
    G, b = _fold_grams(A, y, holds)
    if not (np.isfinite(G).all() and np.isfinite(b).all()):
        raise SparseSolverError("cross-validation Grams are not finite")
    fold, lo, hi, R, fit = engine(G, b, lams)
    errors = np.empty((len(lams), len(holds)))
    span = hi - lo
    for f, hold in enumerate(holds):
        mine = fold == f
        resid = y[hold] - R[mine] @ A[hold].T
        errors[:, f] = np.repeat(np.einsum("li,li->l", resid, resid) / len(hold), span[mine])
    mean_errors = errors.mean(axis=1)
    k = int(np.argmax(mean_errors <= mean_errors.min()))  # first = largest
    fit_k = fit(k) if lams[k] > 0.0 else np.linalg.lstsq(A, y, rcond=None)[0]
    return CvReport(lams, mean_errors, float(lams[k]), fit_k)


def cv_select_lambda(A, y, folds: int = CV_FOLDS, seed: int = 0,
                     decades: float = GRID_DECADES, points: int = GRID_POINTS) -> CvReport:
    """Pick the regularization strength by k-fold cross-validation and fit
    the LASSO at it on all rows: ``cross_validate`` with ``_solve_path``.

    The validation loss is the same squared empirical norm as the fit (the
    design rows already carry sqrt-weights).  The held-out error is always
    that of the least-squares refit on each path solution's support, so
    lambda purely selects the sparsity pattern.  Among lambdas tying at
    the minimum, the largest (sparsest model) wins.  Each fold segment's
    refit is scored once and its error holds for every lambda on it; a
    support a path leaves and returns to is scored again, which can move
    its error by rounding (about 1e-13 relative).  The full-data problem
    runs as one more path in the folds' stack; its solution at the chosen
    lambda is the report's ``fit``, certified as ``lasso_solve``'s is.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    return cross_validate(A, y, lambda_grid(A, y, decades, points), folds, seed, _solve_path)
