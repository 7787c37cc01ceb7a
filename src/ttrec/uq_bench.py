"""Sample generators for the diffusion benchmarks and spectrum experiments.

A stationary diffusion problem on the unit square with homogeneous Dirichlet
boundary, parametrized by a 20-dimensional coefficient (affine with uniform
parameters, or log-normal with Gaussian parameters).  The scalar quantity of
interest is the spatial integral of the solution field.  A 5-point finite
difference scheme with harmonic-mean face coefficients discretizes the
operator.  The red nodes of a checkerboard split couple only to black ones,
so they are eliminated exactly; the symmetric positive definite system left
on the black nodes (half the unknowns, same bandwidth) is solved by banded
Cholesky and the red values follow by back-substitution.  The values agree
with a solve of the full operator to about 1e-14 relative, so samples
written by earlier versions, which solved it, differ in the last digits.
Recovery only ever sees (parameter, value) pairs, so any consistent
discretization serves.

The band solve is the package's only use of scipy: LAPACK ``dpbsv``, the
routine behind ``scipy.linalg.solveh_banded``.  ``_band_solve`` loads it at
its first call from scipy's compiled ``scipy/linalg/_flapack`` extension
alone, without running ``scipy/__init__`` or ``scipy/linalg/__init__``,
whose array-API layer costs about 0.2-0.3 s and 25 MB; the extension costs
about 5 ms and 2.5 MB.  So importing this module, and with it the command
line, loads no scipy, and a PDE solve loads only that extension.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace

import numpy as np

from .bases import legendre_basis
from .recovery import (RecoveryConfig, RecoveryError, SampleSet, predict, recover,
                       relative_error)
from .tensor_core import TensorTrain


class BenchmarkError(ValueError):
    pass


# the names each experiment accepts; the command line offers the same ones
DIFFUSION_MODELS = ("affine", "lognormal")
TARGETS = ("ones", "exp_sum")            # phase-diagram targets
WEIGHT_RULES = ("legendre", "ones")      # spectrum-experiment weights
N_PARAMS = 20                            # parameters of every diffusion model


def _check_choice(what: str, value, choices) -> None:
    if value not in choices:
        raise BenchmarkError(f"unknown {what} {value!r}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise BenchmarkError("seed must be >= 0")


def _check_grid(n: int) -> None:
    if n < 8:
        raise BenchmarkError("grid must have at least 8 cells per side")


def __getattr__(name):
    # the benchmark tracer (bench/layers.py) wraps ``splinalg.spsolve``
    # here; resolving the name lazily keeps scipy.sparse out of every run
    # that is not traced
    if name == "splinalg":
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DiffusionModel:
    """Parametric diffusion coefficient on [0, 1]^2.

    Frequencies pair up as (pi*floor(m/2), pi*ceil(m/2)) for m = 1..20; the
    m = 1 term has a vanishing first frequency and is kept verbatim as a
    dead term.  The affine model decays like m^-2 and stays uniformly
    elliptic on [-1, 1]^20; the log-normal model decays like m^-1 with the
    harmonic-number normalization.
    """

    kind: str = "affine"       # one of DIFFUSION_MODELS

    def __post_init__(self):
        _check_choice("diffusion model", self.kind, DIFFUSION_MODELS)

    @property
    def measure(self) -> str:
        return "uniform" if self.kind == "affine" else "gaussian"

    def _mode_fields(self, x1, x2):
        """Per-parameter spatial modes evaluated on a broadcastable grid."""
        m = np.arange(1, N_PARAMS + 1)
        modes = (np.sin(np.multiply.outer(np.pi * (m // 2), x1))
                 * np.sin(np.multiply.outer(np.pi * ((m + 1) // 2), x2)))
        if self.kind == "affine":
            decay = (6.0 / np.pi**2) * m.astype(float) ** -2
        else:
            h = np.sum(1.0 / m)
            decay = (1.0 / h) / m
        return decay[(...,) + (None,) * np.ndim(x1)] * modes

    def from_modes(self, modes, y):
        """Coefficient from the stacked mode fields ``modes`` (parameter axis
        first) and the parameter vector ``y``."""
        y = np.asarray(y, dtype=float)
        if y.shape != (N_PARAMS,):
            raise BenchmarkError(f"parameter vector must have length {N_PARAMS}")
        field = np.tensordot(y, modes, axes=(0, 0))
        if self.kind == "affine":
            return 1.0 + field
        return np.exp(field)

    def coefficient(self, x1, x2, y):
        """Diffusion coefficient a(x, y); x components broadcast."""
        return self.from_modes(self._mode_fields(np.asarray(x1, float), np.asarray(x2, float)), y)


@functools.lru_cache(maxsize=16)
def _grid_nodes(n: int):
    """Read-only node coordinates (X1, X2) of the n x n cell grid, "ij" indexed."""
    nodes = np.linspace(0.0, 1.0, n + 1)
    X1, X2 = np.meshgrid(nodes, nodes, indexing="ij")
    X1.flags.writeable = X2.flags.writeable = False
    return X1, X2


@functools.lru_cache(maxsize=16)
def _mode_stack(model: DiffusionModel, n: int) -> np.ndarray:
    """Read-only (N_PARAMS, n+1, n+1) mode fields of ``model`` on the grid nodes."""
    modes = model._mode_fields(*_grid_nodes(n))
    modes.flags.writeable = False
    return modes


# offsets from a black node to itself and to the black nodes after it that
# share a red neighbour with it, in the order of the condensed entry fields
_BLACK_OFFSETS = ((0, 0), (0, 2), (2, 0), (1, 1), (1, -1))


@functools.lru_cache(maxsize=16)
def _checkerboard(n: int):
    """Read-only index maps of the red-black split of the n x n cell grid.

    Interior node (i, j), 0 <= i, j < k = n - 1, is red when i + j is even
    and black otherwise; black nodes are numbered row-major, so the later
    black neighbours (i, j+2), (i+1, j-1), (i+1, j+1) and (i+2, j) sit at
    band offsets 1, about k/2 and k.  Returns ``(black, red, src, dst)``:
    the flat interior indices of each colour, and the scatter
    ``ab.flat[dst] = entries.flat[src]`` from the (5, k, k) entry fields of
    :func:`_condense` (one per offset in ``_BLACK_OFFSETS``) into upper band
    storage of shape (k + 1, len(black)).
    """
    k = n - 1
    i, j = np.indices((k, k))
    is_black = (i + j) % 2 == 1
    n_black = int(np.count_nonzero(is_black))
    number = np.full((k, k), -1)
    number[is_black] = np.arange(n_black)
    src, dst = [], []
    for t, (di, dj) in enumerate(_BLACK_OFFSETS):
        ok = is_black & (i + di < k) & (j + dj >= 0) & (j + dj < k)
        row = number[ok]
        col = number[i[ok] + di, j[ok] + dj]
        src.append(t * k * k + np.flatnonzero(ok))
        dst.append((k - (col - row)) * n_black + col)
    maps = (np.flatnonzero(is_black), np.flatnonzero(~is_black),
            np.concatenate(src), np.concatenate(dst))
    for m in maps:
        m.flags.writeable = False
    return maps


def _condense(a: np.ndarray, n: int):
    """Eliminate the red nodes from the 5-point operator for the nodal
    coefficient ``a``.

    A red node couples only to black nodes, so the red block of the operator
    is diagonal and the black Schur complement S = A_bb - A_br D_r^-1 A_rb
    is exact.  Returns ``(ab, w, inv_d)``: h^2 S in LAPACK upper band
    storage with half-bandwidth k = n - 1; the ratios w = c / d of each
    interior node's west, east, south and north face coefficient c to its
    face sum d, shape (4, k, k); and 1 / d.  The face sum d is h^2 times the
    operator's diagonal.  ``harm(p, q) == harm(q, p)`` to the bit (doubling
    is exact), so one face coefficient serves both of its nodes.
    """
    def harm(p, q):
        return 2.0 * p * q / (p + q)

    k = n - 1
    f1 = harm(a[:-1, 1:-1], a[1:, 1:-1])    # (k+1, k): face between x1-nodes i, i+1
    f2 = harm(a[1:-1, :-1], a[1:-1, 1:])    # (k, k+1): face between x2-nodes j, j+1
    cW, cE, cS, cN = f1[:-1], f1[1:], f2[:, :-1], f2[:, 1:]
    d = cW + cE + cS + cN
    # a magnitude near the float range limits over- or underflows the face
    # means; stop before inf * 0 = NaN reaches the factorization
    if not 0 < d.min() <= d.max() < np.inf:
        raise BenchmarkError("diffusion system cannot be solved: "
                             "a face sum is not finite and positive")
    inv_d = 1.0 / d
    w = np.stack((cW, cE, cS, cN)) * inv_d
    wW, wE, wS, wN = w
    # entry of black node (i, j) and its later black neighbour (i, j) + offset;
    # each term is c_br c_rb' / d_r for the red node r between the two
    ent = np.zeros((5, k, k))
    diag, e02, e20, e11, e1m = ent
    diag[:] = d
    diag[1:] -= cE[:-1] * wE[:-1]
    diag[:-1] -= cW[1:] * wW[1:]
    diag[:, 1:] -= cN[:, :-1] * wN[:, :-1]
    diag[:, :-1] -= cS[:, 1:] * wS[:, 1:]
    e02[:, :-1] = -cS[:, 1:] * wN[:, 1:]
    e20[:-1] = -cW[1:] * wE[1:]
    e11[:-1] = -cW[1:] * wN[1:]
    e11[:, :-1] -= cS[:, 1:] * wE[:, 1:]
    e1m[:-1] = -cW[1:] * wS[1:]
    e1m[:, 1:] -= cN[:, :-1] * wE[:, :-1]
    _, _, src, dst = _checkerboard(n)
    ab = np.zeros((k + 1, (k * k) // 2))
    ab.reshape(-1)[dst] = ent.reshape(-1)[src]
    if not 0 < ab[k].min() <= ab[k].max() < np.inf:
        raise BenchmarkError("diffusion system cannot be solved: "
                             "a condensed diagonal entry is not finite and positive")
    return ab, w, inv_d


@functools.cache
def _lapack_dpbsv():
    """LAPACK ``dpbsv`` from scipy's ``scipy/linalg/_flapack`` extension.

    The extension is found in scipy's package directory and loaded by file,
    so neither scipy's nor scipy.linalg's ``__init__`` runs.  The extension
    is initialized once per process (single-phase), so an ``import
    scipy.linalg`` before or after this shares the routine.
    """
    import importlib.machinery
    import importlib.util
    name = "scipy.linalg._flapack"
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader))
                loader.exec_module(module)
                return module.dpbsv
    raise ModuleNotFoundError(f"no module named {name!r}", name=name)


def _band_solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite system held in LAPACK upper band
    storage ``ab`` for ``rhs`` by banded Cholesky (LAPACK ``dpbsv``, as
    ``scipy.linalg.solveh_banded`` does).  Neither input is modified."""
    # unlike solveh_banded this makes no pass for finite values: the
    # coefficient, f, the face sums d and the condensed diagonal are checked
    # finite before, and the weights w = c / d lie in [0, 1], so every entry
    # of ab and rhs is finite
    _, x, info = _lapack_dpbsv()(ab, rhs)
    if info > 0:
        raise BenchmarkError(f"diffusion system cannot be solved: the leading "
                             f"minor of order {info} is not positive definite")
    if info < 0:
        raise BenchmarkError(f"diffusion system cannot be solved: argument "
                             f"{-info} of LAPACK dpbsv has an illegal value")
    return x


def solve_diffusion(model_or_field, y=None, n: int = 64, f=None) -> np.ndarray:
    """Solve -div(a grad u) = f with zero Dirichlet data on an n x n cell grid.

    Returns the full (n+1) x (n+1) node field including the boundary zeros.
    ``model_or_field`` is a DiffusionModel (with parameter ``y``) or a
    precomputed nodal coefficient array; ``f`` is called on the read-only
    node coordinate arrays and its result, which must be finite, is
    broadcast to the node grid (a constant serves).  Face coefficients are
    harmonic means of the node values.  The red nodes of the checkerboard
    split are eliminated exactly, the symmetric positive definite system on
    the black nodes is solved by banded Cholesky (``_band_solve``, LAPACK
    ``dpbsv`` from scipy's ``_flapack`` extension), and the red values follow
    by back-substitution; the field agrees with a full-operator solve to
    about 1e-14 relative.
    """
    _check_grid(n)
    if isinstance(model_or_field, DiffusionModel):
        a = model_or_field.from_modes(_mode_stack(model_or_field, n), y)
    else:
        a = np.asarray(model_or_field, dtype=float)
        if a.shape != (n + 1, n + 1):
            raise BenchmarkError("coefficient field does not match the grid")
    if not np.all(np.isfinite(a)):
        raise BenchmarkError("diffusion coefficient is not finite on the grid")
    if np.any(a <= 0):
        raise BenchmarkError("diffusion coefficient is not positive on the grid")
    k = n - 1
    h2 = (1.0 / n) ** 2
    if f is None:
        F = np.full((k, k), h2)
    else:
        try:
            fn = np.broadcast_to(np.asarray(f(*_grid_nodes(n)), dtype=float), (n + 1, n + 1))
        except ValueError as exc:
            raise BenchmarkError(f"source term does not broadcast to the "
                                 f"{n + 1} x {n + 1} node grid: {exc}") from exc
        if not np.all(np.isfinite(fn)):
            raise BenchmarkError("source term is not finite on the grid")
        F = h2 * fn[1:-1, 1:-1]
    black, red, _, _ = _checkerboard(n)
    ab, (wW, wE, wS, wN), inv_d = _condense(a, n)
    # condensed right-hand side h^2 (f_b - A_br D_r^-1 f_r), gathered from
    # the red west, east, south and north neighbours
    g = F.copy()
    g[1:] += wE[:-1] * F[:-1]
    g[:-1] += wW[1:] * F[1:]
    g[:, 1:] += wN[:, :-1] * F[:, :-1]
    g[:, :-1] += wS[:, 1:] * F[:, 1:]
    # the checks in _condense catch over- and underflow; _band_solve reports
    # a system that is still not numerically positive definite
    ub = _band_solve(ab, g.reshape(-1)[black])
    u = np.zeros((k, k))
    u.reshape(-1)[black] = ub
    field = np.zeros((n + 1, n + 1))
    field[1:-1, 1:-1] = u
    # u_r = D_r^-1 (f_r - A_rb u_b); the red entries of the field are still zero
    ur = (F * inv_d + wW * field[:-2, 1:-1] + wE * field[2:, 1:-1]
          + wS * field[1:-1, :-2] + wN * field[1:-1, 2:])
    u.reshape(-1)[red] = ur.reshape(-1)[red]
    field[1:-1, 1:-1] = u
    return field


def qoi(field: np.ndarray, n: int) -> float:
    """Trapezoidal integral of a node field over the unit square."""
    if field.shape != (n + 1, n + 1):
        raise BenchmarkError("field does not match the grid")
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    return float(w @ field @ w) / n**2


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_processes(fn, tasks: list, workers: int) -> list:
    """``[fn(*task) for task in tasks]`` on up to ``workers`` processes, and
    never more than :func:`_cpu_count` or one per task.

    This process runs the first task while a pool of the others takes the
    rest in order; then it runs, last first, the tasks no worker has
    started.  ``fn`` must be module-level so that a worker can receive it;
    the pool uses the platform's default start method.  A task's exception
    reaches the caller, and the pool's ``with`` block joins every worker
    before this returns or raises.
    """
    workers = min(workers, len(tasks), _cpu_count())
    if workers < 2:
        return [fn(*task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers - 1) as pool:
        futures = {i: pool.submit(fn, *tasks[i]) for i in range(1, len(tasks))}
        try:
            done = {0: fn(*tasks[0])}
            for i in reversed(futures):
                # only a task no worker has started can be cancelled; the
                # workers start them in order, so none before this one can
                if not futures[i].cancel():
                    break
                done[i] = fn(*tasks[i])
            return [done[i] if i in done else futures[i].result()
                    for i in range(len(tasks))]
        finally:
            # after an error no worker starts another task
            for fut in futures.values():
                fut.cancel()


# the fewest samples a darcy-gen process solves: a smaller chunk costs more
# to hand to a worker than it saves
_MIN_CHUNK = 64


def _qois(model: DiffusionModel, pts: np.ndarray, grid: int) -> np.ndarray:
    """The quantity of interest at each parameter row of ``pts``;
    module-level so that worker processes can receive it."""
    return np.array([qoi(solve_diffusion(model, y, grid), grid) for y in pts])


def generate_samples(model: DiffusionModel, n_samples: int, seed: int = 0,
                     grid: int = 64) -> SampleSet:
    """Draw i.i.d. parameters from the model's measure (uniform on
    [-1, 1]^N_PARAMS for the affine model, standard normal for the
    log-normal one) and solve for the quantity of interest; sampling
    weights are identically 1.

    The solves are split into contiguous chunks, one per CPU in this
    process's affinity mask but at least 64 samples each.  This process
    solves the first chunk and worker processes the others, every one
    through the same per-sample solve, so the values are bit-identical
    for any worker count.  No worker outlives the call.
    """
    if n_samples < 1:
        raise BenchmarkError("need at least one sample")
    _check_seed(seed)
    _check_grid(grid)
    rng = np.random.default_rng(seed)
    if model.measure == "uniform":
        pts = rng.uniform(-1.0, 1.0, (n_samples, N_PARAMS))
    else:
        pts = rng.standard_normal((n_samples, N_PARAMS))
    workers = max(1, min(_cpu_count(), n_samples // _MIN_CHUNK))
    chunks = np.array_split(pts, workers)
    values = _map_processes(_qois, [(model, c, grid) for c in chunks], workers)
    return SampleSet(pts, np.concatenate(values))


# ---------------------------------------------------------------------------
# synthetic rank-1 targets and the recovery phase diagram


def synthetic_target(kind: str, order: int, dimension: int) -> TensorTrain:
    """Rank-1 coefficient trains for the phase-diagram targets.

    ``ones``:    all-ones coefficient tensor (the adversarial flat tensor).
    ``exp_sum``: coefficients of exp(y_1 + ... + y_M) projected per mode.
    """
    _check_choice("target", kind, TARGETS)
    basis = legendre_basis(dimension)
    if kind == "ones":
        c = np.ones(dimension)
    else:
        x, w = basis.quadrature(4 * dimension + 40)
        c = basis.evaluate(x).T @ (w * np.exp(x))
    return TensorTrain(tuple(c.reshape(1, dimension, 1) for _ in range(order)))


def _phase_realization(M, n, rep, target, cfg, dimension, n_test, seed) -> float:
    """Relative test error of one realization of the (order, sample count)
    cell, NaN when recovery fails; module-level so worker processes can
    receive it."""
    tt = synthetic_target(target, M, dimension)
    basis = legendre_basis(dimension)
    rng = np.random.default_rng([seed, M, n, rep])
    pts = rng.uniform(-1.0, 1.0, (n, M))
    vals = predict(tt, basis, pts)
    test_rng = np.random.default_rng([seed, M, rep, 1_000_003])
    tpts = test_rng.uniform(-1.0, 1.0, (n_test, M))
    tvals = predict(tt, basis, tpts)
    try:
        report = recover(SampleSet(pts, vals), replace(cfg, seed=rep), basis)
    except (RecoveryError, np.linalg.LinAlgError):
        return np.nan
    # a run that aborts before its first sweep has only the untrained start
    if report.best_sweep < 0:
        return np.nan
    return relative_error(report.predict(tpts), tvals)


def phase_diagram(orders, sample_counts, realizations: int = 20,
                  target: str = "exp_sum", algorithm: str = "r2als",
                  dimension: int = 15, n_test: int = 1000, seed: int = 0,
                  max_rank: int = 4, max_sweeps: int = 20,
                  jobs: int = 1) -> np.ndarray:
    """Mean relative test error per (order, sample count) cell.

    Every cell averages over independent realizations; realization ``rep``
    of one (order, count) derives its RNG streams from (seed, order, count,
    rep) and its recovery seed from ``rep``, so each realization's error,
    and the mean over them in realization order, is independent of
    ``jobs``, the most processes that compute realizations (this one
    included; no more than the CPUs in the affinity mask).  A failed
    realization counts as NaN, and so does its cell.
    Every argument, ``target`` and the recovery configuration included, is
    checked before a worker process starts.
    """
    orders = [int(M) for M in orders]
    sample_counts = [int(n) for n in sample_counts]
    if any(M < 1 for M in orders):
        raise BenchmarkError("orders must be positive")
    if any(n < 1 for n in sample_counts):
        raise BenchmarkError("sample counts must be positive")
    _check_choice("target", target, TARGETS)
    if realizations < 1:
        raise BenchmarkError("realizations must be >= 1")
    if dimension < 1:
        raise BenchmarkError("dimension must be >= 1")
    if n_test < 1:
        raise BenchmarkError("test sample count must be >= 1")
    if jobs < 1:
        raise BenchmarkError("jobs must be >= 1")
    _check_seed(seed)
    cfg = RecoveryConfig(algorithm=algorithm, max_rank=max_rank, max_sweeps=max_sweeps)
    tasks = [(M, n, rep, target, cfg, dimension, n_test, seed)
             for M in orders for n in sample_counts for rep in range(realizations)]
    errs = _map_processes(_phase_realization, tasks, jobs)
    cells = [np.mean(errs[i:i + realizations])
             for i in range(0, len(errs), realizations)]
    return np.array(cells, dtype=float).reshape(len(orders), len(sample_counts))


# ---------------------------------------------------------------------------
# singular-value spectra under Legendre sup-norm weighting


def legendre_weight_matrix(d: int) -> np.ndarray:
    """omega_ij = sqrt(2i+1) sqrt(2j+1), the product sup-norm weights of a
    2-mode Legendre product basis (0-indexed)."""
    s = legendre_basis(d).sup_norms
    return np.outer(s, s)


def spectrum_experiment(d: int = 50, weight: str = "legendre",
                        realizations: int = 100, seed: int = 0) -> dict:
    """Singular values of Gaussian matrices and their weighted Hadamard
    products.

    The matrices are one draw of the seeded stream.  Returns ``plain`` and
    ``weighted``, the (realizations, d) descending spectra; ``tail_index``,
    ``d // 2``; ``tail_ratio``, per realization the weighted spectrum's
    share of its sum from ``tail_index`` on over the plain one's (1 where
    that is 0); and ``fraction_faster``, the share of ratios below 1 (0 for
    ``d = 1``).  Weighted spectra decay faster, so most ratios are.
    """
    if d < 1:
        raise BenchmarkError("dimension must be >= 1")
    if realizations < 1:
        raise BenchmarkError("realizations must be >= 1")
    _check_choice("weight rule", weight, WEIGHT_RULES)
    _check_seed(seed)
    W = legendre_weight_matrix(d) if weight == "legendre" else np.ones((d, d))
    k = d // 2
    X = np.random.default_rng(seed).standard_normal((realizations, d, d))
    plain, weighted = (np.linalg.svd(Y, compute_uv=False) for Y in (X, W * X))
    tail_plain, tail_weighted = (s[:, k:].sum(axis=1) / s.sum(axis=1)
                                 for s in (plain, weighted))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(tail_plain > 0, tail_weighted / tail_plain, 1.0)
    return {
        "plain": plain,
        "weighted": weighted,
        "tail_index": k,
        "tail_ratio": ratio,
        "fraction_faster": float(np.mean(ratio < 1.0)) if d > 1 else 0.0,
    }
