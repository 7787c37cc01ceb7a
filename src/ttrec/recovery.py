"""Alternating least-squares recovery of tensor-train coefficients.

Four microstep flavors share one sweep engine, and ``_plan`` states each once:

* ``als``     -- plain least squares,
* ``als_l2``  -- ridge with cross-validated penalty,
* ``rals``    -- weighted LASSO in the eigenbasis of the local Gramian of the
                 model space (rotation by Q, weights sqrt(S), rotation back),
* ``r2als``   -- plain LASSO on the univariate basis values times ``T``,
                 the one-time change of basis that makes the Gramian the
                 identity; the returned train is mapped back with ``T``.

``recover`` alone splits the samples, once per call: one permutation
seeded by ``config.seed`` gives the test share (``test_fraction``), then
the validation share of the rest (``validation_fraction``, at least one
sample), and the remainder trains.

Each sweep right-orthogonalizes the train, builds the per-sample interface
stacks on the training partition, and walks modes left to right: it solves
the configured microstep on the design rows read from the stacks,
left-orthogonalizes the updated component, adapts the bond rank via the
stable/unstable singular-value split, and advances the stacks one mode.
The best-validation iterate is returned since the LASSO microsteps make
the error sequences non-monotonic; the test error is that iterate's.
Every penalty, and the full-data fit at it, comes from one k-fold driver,
``sparse_solver.cross_validate``; its ridge engine is ``_ridge_refits``.
The CV microsteps read their folds, fold seed and lambda grid from the
run's ``RecoveryConfig``, whose defaults for them are ``sparse_solver``'s.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import UnivariateBasis, diag_sup_gramian, gramian_orthonormalize, h1_gramian
from .sparse_solver import (CV_FOLDS, GRID_DECADES, GRID_POINTS, SparseSolverError,
                            cross_validate, cv_select_lambda, debias_on_support,
                            lambda_grid)
from .sparse_solver import lasso_solve  # noqa: F401 - the benchmark tracer (bench/layers.py) wraps it here
from .tensor_core import (TensorTrain, _bond_svd, canonicalize, design_matrix,
                          fixed_interface, tt_evaluate_batch, tt_random)

RIDGE_RTOL = 1e-12      # relative ridge of every overdetermined LS microstep's
                        # normal equations
EIG_FLOOR = 1e-12       # eigenvalue floor before taking square roots
PINV_RTOL = 1e-12       # relative eigenvalue floor of the unpenalized ridge CV fit
UNSTABLE_MAGNITUDE = 1e-3  # size of injected singular values, relative to
                           # the smallest stable one

ALGORITHMS = ("als", "als_l2", "rals", "r2als")
GRAMIANS = ("diag_sup", "h1")


class RecoveryError(RuntimeError):
    pass


@dataclass(frozen=True)
class SampleSet:
    """Point samples of the target function; every point has at least one
    parameter column.  The set keeps read-only copies of the arrays it is
    given, so writing to the caller's arrays leaves it unchanged.
    """

    points: np.ndarray            # (n, M)
    values: np.ndarray            # (n,)
    weights: np.ndarray = None    # (n,) nonnegative, default 1

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, ndmin=2)
        vals = np.array(self.values, dtype=float)
        n = pts.shape[0]
        if vals.shape != (n,):
            raise RecoveryError("values length does not match points")
        if pts.shape[1] == 0:
            raise RecoveryError("points have no parameter columns")
        w = np.ones(n) if self.weights is None else np.array(self.weights, dtype=float)
        if w.shape != (n,) or np.any(w < 0):
            raise RecoveryError("weights must be nonnegative and match points")
        finite = np.stack([np.isfinite(pts).all(axis=1), np.isfinite(vals), np.isfinite(w)])
        if not finite.all():
            i = int(np.argmin(finite.all(axis=0)))
            bad = [name for name, ok in zip(("point", "value", "weight"), finite[:, i]) if not ok]
            raise RecoveryError(f"sample {i} (counting from 0) has a non-finite "
                                + " and ".join(bad))
        for name, arr in (("points", pts), ("values", vals), ("weights", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def order(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class RecoveryConfig:
    algorithm: str = "r2als"
    max_rank: int = 8
    initial_rank: int = 1
    max_sweeps: int = 50
    stop_tol: float = 1e-4        # relative validation improvement that resets patience
    patience: int = 5
    theta: float = 0.05           # stable/unstable singular-value threshold
    buffer: int = 1               # size of the unstable group
    seed: int = 0
    cv_folds: int = CV_FOLDS
    lambda_grid_decades: float = GRID_DECADES
    lambda_grid_points: int = GRID_POINTS
    validation_fraction: float = 0.2   # of the samples outside the test share
    test_fraction: float = 0.0
    gramian: str = "diag_sup"     # diag_sup | h1

    def __post_init__(self):
        if not 0.0 <= self.test_fraction < 1.0:
            raise RecoveryError("test_fraction must lie in [0, 1)")
        if self.algorithm not in ALGORITHMS:
            raise RecoveryError(f"unknown algorithm {self.algorithm!r}")
        if self.gramian not in GRAMIANS:
            raise RecoveryError(f"unknown gramian {self.gramian!r}")
        if self.max_rank < 1 or self.initial_rank < 1:
            raise RecoveryError("ranks must be >= 1")
        if self.initial_rank > self.max_rank:
            raise RecoveryError(
                f"initial_rank {self.initial_rank} exceeds max_rank {self.max_rank}")
        if not 0.0 < self.theta < 1.0:
            raise RecoveryError("theta must lie in (0, 1)")
        if self.buffer < 0:
            raise RecoveryError("buffer must be >= 0")
        if self.max_sweeps < 1:
            raise RecoveryError("max_sweeps must be >= 1")
        if self.patience < 1:
            raise RecoveryError("patience must be >= 1")
        if not self.stop_tol >= 0.0:
            raise RecoveryError("stop_tol must be >= 0")
        if self.cv_folds < 2:
            raise RecoveryError("cv_folds must be >= 2")
        if self.lambda_grid_points < 1:
            raise RecoveryError("lambda_grid_points must be >= 1")
        if not self.lambda_grid_decades > 0.0:
            raise RecoveryError("lambda_grid_decades must be > 0")
        # min: ``10.0 ** -n`` raises OverflowError for an int n past the float range
        if 10.0 ** -min(self.lambda_grid_decades, 400.0) == 0.0:
            raise RecoveryError("lambda_grid_decades is too large: 10**-decades underflows to 0")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise RecoveryError("validation_fraction must lie in [0, 1)")
        if self.seed < 0:
            raise RecoveryError("seed must be >= 0")


@dataclass
class RecoveryReport:
    tt: TensorTrain               # best iterate, coefficients in ``basis``
    basis: UnivariateBasis        # the basis passed to ``recover``
    train_errors: list
    val_errors: list
    rank_history: list            # ranks after every sweep
    lambdas: list                 # chosen penalty per microstep, per sweep
    best_sweep: int
    test_error: float = None      # best iterate's on the test share; None if empty
    underdetermined: list = field(default_factory=list)
    aborted: str = None

    def predict(self, points) -> np.ndarray:
        return predict(self.tt, self.basis, points)


def predict(tt: TensorTrain, basis: UnivariateBasis, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    B = [basis.evaluate(pts[:, m]) for m in range(tt.order)]
    return tt_evaluate_batch(tt, B)


def relative_error(pred, values, weights=None) -> float:
    """Relative weighted empirical L2 error."""
    pred = np.asarray(pred, float)
    values = np.asarray(values, float)
    w = np.ones_like(values) if weights is None else np.asarray(weights, float)
    num = float(w @ (pred - values) ** 2)
    den = float(w @ values**2)
    if den == 0.0:
        return float(np.sqrt(num))
    return float(np.sqrt(num / den))


# ---------------------------------------------------------------------------
# microsteps: each takes the weighted design rows ``A`` (from
# tensor_core.design_matrix) and the weighted training values ``u``


def microstep_ls(A: np.ndarray, u: np.ndarray):
    """Least-squares microstep: the normal equations with a ridge of
    ``RIDGE_RTOL`` times the largest diagonal entry of the Gram when
    ``n >= p``, so rank-deficient designs stay solvable, and the
    minimum-norm solution when ``n < p``.  The ridge scales with the Gram,
    so scaling the weights by a power of two leaves ``v`` bit for bit
    unchanged; an all-zero design gives the zero vector.

    Returns ``(v, 0.0)``, the ``(v, lam)`` of the other microsteps.
    """
    n, p = A.shape
    if n < p:
        return np.linalg.lstsq(A, u, rcond=None)[0], 0.0
    G = A.T @ A
    scale = float(np.diag(G).max())
    if scale == 0.0:
        return np.zeros(p), 0.0
    return np.linalg.solve(G + RIDGE_RTOL * scale * np.eye(p), A.T @ u), 0.0


def _ridge_refits(G, b, lams):
    """The ridge engine of ``cross_validate``: row ``f L + l`` of ``R`` is
    fold ``f``'s fit at ``lams[l]``, every one from one batched ``eigh`` of
    the F fold Grams; at ``lam = 0`` the pseudo-inverse fit, eigenvalues
    under ``PINV_RTOL`` of the largest dropped.  ``fit(k)`` comes from
    ``eigh`` of all rows' Gram."""
    F, L = len(G) - 1, len(lams)
    e, V = np.linalg.eigh(G[:F])
    e = np.maximum(e, 0.0)
    ef = e[:, None, :]
    dropped = (lams[:, None] == 0.0) & (ef <= PINV_RTOL * ef[:, :, -1:])   # (F, L, p)
    denom = np.where(dropped, np.inf, ef + lams[:, None])
    coeffs = (b[:F, None, :] @ V) / denom @ V.swapaxes(1, 2)
    grid = np.tile(np.arange(L), F)

    def fit(k):
        e_all, V_all = np.linalg.eigh(G[-1])
        return V_all @ (V_all.T @ b[-1] / (np.maximum(e_all, 0.0) + lams[k]))

    return np.repeat(np.arange(F), L), grid, grid + 1, coeffs.reshape(F * L, -1), fit


def microstep_l2(A: np.ndarray, u: np.ndarray, config: RecoveryConfig):
    """Ridge microstep: ``cross_validate`` with ``_ridge_refits`` on
    ``config``'s folds, fold seed and lambda grid, and the full-data fit.

    Returns ``(v, lam)``; ties at the CV minimum go to the largest penalty,
    and the unpenalized fit is least squares.
    """
    A = np.asarray(A, float)
    u = np.asarray(u, float)
    # unpenalized fit appended so noiseless in-class data can win exactly
    lams = np.append(lambda_grid(A, u, config.lambda_grid_decades,
                                 config.lambda_grid_points), 0.0)
    cv = cross_validate(A, u, lams, config.cv_folds, config.seed, _ridge_refits)
    return cv.fit, cv.chosen


def local_gramian(tt: TensorTrain, m: int, g) -> np.ndarray:
    """Gramian of the local model space, ``H = Vhat_m^T (g (x) ... (x) g) Vhat_m``.

    Assembled by sweeping ``g``, the univariate Gramian of every mode,
    through the orthogonalized interface chains; each push is rescaled with
    the log-scale tracked to dodge floating-point under- and overflow.
    """
    if not tt.is_canonical_at(m):
        raise RecoveryError(f"train is not canonical at mode {m}")
    g = np.asarray(g, float)
    log_scale = 0.0
    Lg = np.ones((1, 1))
    for k in range(m):
        C = tt.components[k]
        Lg = np.einsum("lk,ler,ef,kfs->rs", Lg, C, g, C)
        mx = float(np.abs(Lg).max())
        if mx == 0.0:
            raise RecoveryError("left interface Gramian vanished")
        Lg /= mx
        log_scale += np.log(mx)
    Rg = np.ones((1, 1))
    for k in range(tt.order - 1, m, -1):
        C = tt.components[k]
        Rg = np.einsum("ler,ef,kfs,rs->lk", C, g, C, Rg)
        mx = float(np.abs(Rg).max())
        if mx == 0.0:
            raise RecoveryError("right interface Gramian vanished")
        Rg /= mx
        log_scale += np.log(mx)
    with np.errstate(over="ignore"):
        factor = np.exp(log_scale)
    if not np.isfinite(factor):
        raise RecoveryError(f"local Gramian scale overflows (log-scale {log_scale:.1f})")
    H = np.kron(Lg, np.kron(g, Rg)) * factor
    return 0.5 * (H + H.T)


def _cv_lasso(A: np.ndarray, u: np.ndarray, config: RecoveryConfig):
    """The LASSO microstep body: one stacked homotopy pass on ``config``'s
    folds, fold seed and lambda grid gives the cross-validated lambda and the
    full-data fit at it, refitted by least squares on its support."""
    cv = cv_select_lambda(A, u, config.cv_folds, config.seed,
                          config.lambda_grid_decades, config.lambda_grid_points)
    return debias_on_support(A, u, cv.fit), cv.chosen


def microstep_rals(A: np.ndarray, u: np.ndarray, H: np.ndarray, config: RecoveryConfig):
    """Variation-restricted microstep: weighted LASSO via the local Gramian.

    Rotates into the eigenbasis of ``H`` (ascending eigenvalues), weights by
    sqrt of the (floored) eigenvalues, solves a standard LASSO
    cross-validated as ``config`` sets, debiases by least squares on the
    selected support, and rotates back.  Returns ``(v, lam)``.
    """
    s, Q = np.linalg.eigh(np.asarray(H, float))
    s = np.maximum(s, EIG_FLOOR)
    W = Q / np.sqrt(s)            # combination "rotate, then unweight"
    U, lam = _cv_lasso(A @ W, u, config)
    return W @ U, lam


def microstep_r2als(A: np.ndarray, u: np.ndarray, config: RecoveryConfig):
    """Plain LASSO, cross-validated as ``config`` sets, on the raw local
    coordinates (the basis is assumed Gramian-orthonormalized upfront),
    debiased by least squares on its support.  Returns ``(v, lam)``."""
    return _cv_lasso(A, u, config)


# ---------------------------------------------------------------------------
# rank adaptation


def rank_adapt(tt: TensorTrain, m: int, theta: float, buffer: int,
               max_rank: int, rng) -> TensorTrain:
    """Adapt the bond rank right of mode ``m`` by the stable/unstable split.

    The core is split by ``tensor_core._bond_svd``, which drops singular
    values at most ``EXACT_RANK_RTOL`` times the largest; values at least
    ``theta`` times the largest are stable.  The unstable group is resized
    to exactly ``buffer`` members, dropping the smallest values or injecting
    random directions orthonormal to the kept ones, of magnitude 1e-3 times
    the smallest stable value, drawn from ``rng``.  The new rank is capped
    by ``max_rank`` and the dimension bound; the core moves to mode ``m + 1``.
    """
    if m >= tt.order - 1:
        raise RecoveryError("no bond to adapt right of the last mode")
    if not tt.is_canonical_at(m):
        raise RecoveryError(f"train is not canonical at mode {m}")
    comps = list(tt.components)
    rl, d, rm = comps[m].shape
    U, s, Vt = _bond_svd(comps[m].reshape(rl * d, rm))
    k = s.size
    stable = int(np.count_nonzero(s >= theta * s[0]))
    inject = UNSTABLE_MAGNITUDE * float(s[:stable].min())
    nxt = comps[m + 1]
    dim_cap = min(rl * d, nxt.shape[1] * nxt.shape[2])
    target = max(1, min(stable + buffer, max_rank, dim_cap))
    carry = (s[:, None] * Vt) @ nxt.reshape(rm, -1)
    if target <= k:
        U = U[:, :target]
        carry = carry[:target]
    else:
        extra = target - k
        # the draws made orthonormal to U and to each other: Gram-Schmidt's
        # directions, as one QR whose signs come from R's diagonal
        draws = rng.standard_normal((extra, rl * d)).T
        Q, R = np.linalg.qr(np.hstack([U, draws]))
        U = np.hstack([U, Q[:, k:] * np.sign(np.diag(R)[k:])])
        rows = rng.standard_normal((extra, carry.shape[1]))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        carry = np.vstack([carry, inject * rows])
    comps[m] = U.reshape(rl, d, target)
    comps[m + 1] = carry.reshape(target, nxt.shape[1], nxt.shape[2])
    return TensorTrain(tuple(comps), lorth=m + 1, rorth=m + 2)


# ---------------------------------------------------------------------------
# full recovery loop


def _plan(config: RecoveryConfig, basis: UnivariateBasis):
    """``(T, microstep)``: ``T`` the matrix applied to the basis values, with
    coefficients ``c`` in the new functions being ``T c`` in ``basis`` (None
    for all but ``r2als``), and the microstep ``(A, u, tt, m) -> (v, lam)``
    of mode ``m``.
    It looks ``microstep_*`` and ``local_gramian`` up as module attributes
    at each call, so replacing them (the benchmark's tracer) reaches it."""
    if config.algorithm == "als":
        return None, lambda A, u, tt, m: microstep_ls(A, u)
    if config.algorithm == "als_l2":
        return None, lambda A, u, tt, m: microstep_l2(A, u, config)
    # infinite sup-norms (Gaussian measure): diag_sup falls back to the
    # Sobolev-style Gramian
    g = (h1_gramian if config.gramian == "h1" or basis.sup_norms is None
         else diag_sup_gramian)(basis)
    if config.algorithm == "rals":
        return None, lambda A, u, tt, m: microstep_rals(
            A, u, local_gramian(tt, m, g.matrix), config)
    return gramian_orthonormalize(basis, g), lambda A, u, tt, m: microstep_r2als(A, u, config)


def _initial_tt(dims, ranks, rng, scale: float) -> TensorTrain:
    """Seeded start iterate: the constant function at the data scale plus a
    one-percent random kick per component.

    A fully random rank-1 product concentrates its mass on a vanishing
    corner of the sample set once the order is large, and sweeps diverge
    from it; centering the start at the empirical mean keeps every
    microstep well-posed while the kick breaks the degeneracy.  Components
    remain unit-norm up to the kick.
    """
    tt = tt_random(dims, ranks, rng)
    comps = []
    for m, c in enumerate(tt.components):
        base = np.zeros_like(c)
        base[0, 0, 0] = 1.0
        comps.append(base + 0.01 * np.asarray(c))
    comps[0] = comps[0] * scale
    return TensorTrain(tuple(comps))


def _split_samples(n: int, config: RecoveryConfig):
    """``(train, val, test)`` sample indices, each sorted: the seeded
    permutation of the ``n`` samples, cut into its first
    ``round(test_fraction * n)`` for testing, the validation share of the
    rest (at least one sample) next, and the remainder for training."""
    perm = np.random.default_rng(config.seed).permutation(n)
    n_test = int(round(config.test_fraction * n))
    rest = perm[n_test:]
    n_val = max(1, int(round(config.validation_fraction * len(rest))))
    return np.sort(rest[n_val:]), np.sort(rest[:n_val]), np.sort(perm[:n_test])


def recover(samples: SampleSet, config: RecoveryConfig,
            basis: UnivariateBasis) -> RecoveryReport:
    """Run the configured sweep algorithm and return the best-validation
    iterate, in ``basis`` for every algorithm, with per-sweep diagnostics.
    A point outside ``basis.domain``, or one where a basis value is not
    finite, raises ``RecoveryError``; a singular or non-finite sweep ends
    the run, recorded in ``aborted``."""
    if samples.size == 0:
        raise RecoveryError("no samples")
    lo, hi = basis.domain   # a polynomial basis outside it takes any size
    outside = (samples.points < lo) | (samples.points > hi)
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise RecoveryError(f"sample {i} (counting from 0) has y_{j + 1} = "
                            f"{float(samples.points[i, j])!r}, outside the {basis.kind} "
                            f"basis's domain [{lo}, {hi}]")
    M = samples.order
    rng = np.random.default_rng(config.seed)

    T, microstep = _plan(config, basis)
    train_idx, val_idx, test_idx = _split_samples(samples.size, config)
    if len(train_idx) == 0:
        raise RecoveryError("the sample split leaves no training samples")
    # a weightless partition would fit nothing, or score every sweep 0.0
    for name, idx in (("training", train_idx), ("validation", val_idx),
                      ("test", test_idx)):
        if len(idx) and samples.weights[idx].sum() == 0.0:
            raise RecoveryError(f"the {name} partition has zero total weight")
    if config.algorithm != "als" and len(train_idx) < config.cv_folds:
        raise RecoveryError(f"{len(train_idx)} training samples are fewer than the "
                            f"{config.cv_folds} cross-validation folds")
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        B = [basis.evaluate(samples.points[:, m]) for m in range(M)]
        if T is not None:   # r2als: the values of the g-orthonormal functions
            B = [b @ T for b in B]
    finite = np.stack([np.isfinite(b).all(axis=1) for b in B], axis=1)   # (n, M)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise RecoveryError(f"sample {i} (counting from 0) has y_{j + 1} = "
                            f"{float(samples.points[i, j])!r}, where the {basis.kind} "
                            f"basis values are not finite")
    # the microsteps read only the training rows of the design
    B_train = [b[train_idx] for b in B]
    w_train = samples.weights[train_idx]
    u = np.sqrt(w_train) * samples.values[train_idx]
    d = basis.dimension

    scale = float(np.mean(samples.values[train_idx]))
    if scale == 0.0:
        rms = float(np.sqrt(np.mean(samples.values[train_idx] ** 2)))
        scale = rms if rms > 0 else 1.0
    tt = _initial_tt((d,) * M, (config.initial_rank,) * max(M - 1, 0), rng, scale)

    report = RecoveryReport(tt=tt, basis=basis, train_errors=[], val_errors=[],
                            rank_history=[], lambdas=[], best_sweep=-1)
    best_err = np.inf
    marker_err = np.inf
    stall = 0

    def error(pred, idx):   # every partition is scored from the sweep's pred
        return relative_error(pred[idx], samples.values[idx], samples.weights[idx])

    for sweep in range(config.max_sweeps):
        try:
            tt = canonicalize(tt, 0)
            stacks = fixed_interface(tt, 0, B_train)
            lam_sweep = []
            for m in range(M):
                A = design_matrix(stacks, w_train)
                if len(train_idx) < A.shape[1]:
                    report.underdetermined.append((sweep, m))
                v, lam = microstep(A, u, tt, m)
                lam_sweep.append(lam)
                shape = (tt.components[m].shape[0], d, tt.components[m].shape[2])
                tt = tt.with_component(m, v.reshape(shape))
                if m < M - 1:
                    tt = rank_adapt(tt, m, config.theta, config.buffer,
                                    config.max_rank, rng)
                    stacks.advance(tt)
        except (RecoveryError, SparseSolverError, np.linalg.LinAlgError) as exc:
            report.aborted = f"sweep {sweep}: {exc}"
            break

        pred = tt_evaluate_batch(tt, B)
        err_train = error(pred, train_idx)
        err_val = error(pred, val_idx)
        report.train_errors.append(err_train)
        report.val_errors.append(err_val)
        report.rank_history.append(tt.ranks)
        report.lambdas.append(lam_sweep)

        if err_val < best_err:
            best_err = err_val
            report.tt = tt
            report.best_sweep = sweep
            if len(test_idx):
                report.test_error = error(pred, test_idx)
        if err_val <= marker_err * (1.0 - config.stop_tol):
            marker_err = err_val
            stall = 0
        else:
            stall += 1
        if stall >= config.patience:
            break

    if T is not None:
        report.tt = TensorTrain(tuple(np.einsum("jk,lkr->ljr", T, c)
                                      for c in report.tt.components))
    return report
