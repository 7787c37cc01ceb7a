import multiprocessing

import numpy as np
import pytest

from ttrec import uq_bench
from ttrec.recovery import (RecoveryConfig, RecoveryError, SampleSet, predict,
                            recover, relative_error)
from ttrec.tensor_core import tt_evaluate_batch
from ttrec.bases import legendre_basis
from ttrec.uq_bench import (BenchmarkError, DiffusionModel, generate_samples,
                            legendre_weight_matrix, phase_diagram, qoi,
                            solve_diffusion, spectrum_experiment, synthetic_target)
from ttrec.uq_bench import (_checkerboard, _condense, _grid_nodes, _map_processes,
                            _mode_stack)

from oracles import poisson_unit_square_qoi, reference_solve_diffusion


def test_coefficient_at_zero_parameters():
    x = np.linspace(0, 1, 13)
    for kind in ("affine", "lognormal"):
        model = DiffusionModel(kind)
        assert np.allclose(model.coefficient(x, x[::-1], np.zeros(20)), 1.0)


def test_coefficient_dead_first_term():
    # the first frequency pair is (0, pi): the m=1 term vanishes identically
    model = DiffusionModel("affine")
    y = np.zeros(20)
    y[0] = 1.0
    assert model.coefficient(0.5, 0.5, y) == 1.0
    x = np.linspace(0, 1, 50)
    assert np.allclose(model.coefficient(x, x, y), 1.0)


def test_coefficient_uniform_ellipticity():
    model = DiffusionModel("affine")
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (2000, 2))
    lowest = np.inf
    for _ in range(50):
        y = rng.uniform(-1, 1, 20)
        lowest = min(lowest, model.coefficient(x[:, 0], x[:, 1], y).min())
    m = np.arange(1, 21)
    bound = 1.0 - 6.0 / np.pi**2 * np.sum(1.0 / m.astype(float) ** 2)
    assert lowest >= bound > 0


def test_lognormal_positive():
    model = DiffusionModel("lognormal")
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (500, 2))
    for _ in range(10):
        a = model.coefficient(x[:, 0], x[:, 1], rng.standard_normal(20))
        assert np.all(a > 0)


def test_solver_poisson_series_oracle():
    field = solve_diffusion(DiffusionModel("affine"), np.zeros(20), 64)
    q = qoi(field, 64)
    assert abs(q - poisson_unit_square_qoi()) <= 5e-5


def test_solver_manufactured_convergence_rate():
    def f(X1, X2):
        return 2 * np.pi**2 * np.sin(np.pi * X1) * np.sin(np.pi * X2)

    errs = []
    for n in (16, 32, 64):
        field = solve_diffusion(np.ones((n + 1, n + 1)), None, n, f)
        nodes = np.linspace(0, 1, n + 1)
        X1, X2 = np.meshgrid(nodes, nodes, indexing="ij")
        exact = np.sin(np.pi * X1) * np.sin(np.pi * X2)
        errs.append(np.sqrt(((field - exact) ** 2).mean()))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= r <= 2.2 for r in rates)


def test_solver_symmetric_coefficient_gives_symmetric_field():
    model = DiffusionModel("affine")
    y = np.zeros(20)
    y[1] = 0.7     # even index: equal frequency pair, symmetric mode
    field = solve_diffusion(model, y, 32)
    assert np.abs(field - field.T).max() <= 1e-10


def test_solver_rejects_bad_input():
    with pytest.raises(BenchmarkError):
        solve_diffusion(DiffusionModel("affine"), np.zeros(20), 4)
    # a non-finite coefficient (NaN, Inf, or exp overflow in the log-normal
    # model) and magnitudes whose face means overflow or underflow
    huge_y = np.full(20, 1e5)
    fields = [-np.ones((17, 17)), np.ones((17, 17)), np.ones((17, 17)),
              np.full((17, 17), 1e200), np.full((17, 17), 1e-200)]
    fields[1][5, 7] = np.nan
    fields[2][5, 7] = np.inf
    with np.errstate(over="ignore"):
        for a in fields:
            with pytest.raises(BenchmarkError):
                solve_diffusion(a, None, 16)
        with pytest.raises(BenchmarkError):
            solve_diffusion(DiffusionModel("lognormal"), huge_y, 16)
    with pytest.raises(BenchmarkError, match="parameter vector must have length 20"):
        solve_diffusion(DiffusionModel("affine"), np.zeros(19), 16)
    with pytest.raises(BenchmarkError, match="coefficient field does not match the grid"):
        solve_diffusion(np.ones((16, 16)), None, 16)
    with pytest.raises(BenchmarkError, match="field does not match the grid"):
        qoi(np.zeros((16, 16)), 16)


def test_solver_source_term_broadcast_and_validation():
    model, y = DiffusionModel("affine"), np.linspace(-1, 1, 20)
    default = solve_diffusion(model, y, 16)
    assert np.array_equal(solve_diffusion(model, y, 16, lambda X1, X2: 1.0), default)
    for f in (lambda X1, X2: np.full_like(X1, np.nan), lambda X1, X2: X1[:-1],
              lambda X1, X2: np.ones(3)):
        with pytest.raises(BenchmarkError, match="source term"):
            solve_diffusion(model, y, 16, f)


def band_to_dense(ab):
    """Symmetric dense matrix from LAPACK upper band storage."""
    u, N = ab.shape[0] - 1, ab.shape[1]
    A = np.zeros((N, N))
    for r in range(u + 1):
        off = u - r
        i = np.arange(N - off)
        A[i, i + off] = ab[r, off:]
        A[i + off, i] = ab[r, off:]
    return A


def test_condensed_operator_equals_dense_schur_complement():
    # odd and even k = n - 1 place the diagonal couplings in different band rows
    rng = np.random.default_rng(12)
    for kind in ("affine", "lognormal"):
        model = DiffusionModel(kind)
        for n in (8, 9, 16, 17):
            y = rng.uniform(-1, 1, 20) if kind == "affine" else rng.standard_normal(20)
            a = model.from_modes(_mode_stack(model, n), y)
            _, A = reference_solve_diffusion(model, y, n)
            A = A.toarray()
            k = n - 1
            i, j = np.divmod(np.arange(k * k), k)
            black = np.flatnonzero((i + j) % 2 == 1)
            red = np.flatnonzero((i + j) % 2 == 0)
            A_rr = A[np.ix_(red, red)]
            assert np.array_equal(A_rr, np.diag(np.diag(A_rr)))
            A_br = A[np.ix_(black, red)]
            S = A[np.ix_(black, black)] - A_br @ (A_br.T / np.diag(A_rr)[:, None])
            ab, _, _ = _condense(a, n)
            assert ab.shape == (k + 1, (k * k) // 2)
            S_band = band_to_dense(ab) * n**2
            assert np.abs(S_band - S).max() <= 1e-13 * np.abs(S).max()


def test_solver_matches_sparse_reference():
    rng = np.random.default_rng(13)

    def f(X1, X2):
        return np.exp(X1) * np.cos(3 * X2)

    def rel(x, ref):
        return np.abs(x - ref).max() / np.abs(ref).max()

    for kind in ("affine", "lognormal"):
        model = DiffusionModel(kind)
        for n in (8, 9, 16, 17, 64, 65):
            y = rng.uniform(-1, 1, 20) if kind == "affine" else rng.standard_normal(20)
            a = model.coefficient(*_grid_nodes(n), y)
            for args in ((model, y, n), (model, y, n, f), (a, None, n), (a, None, n, f)):
                field = solve_diffusion(*args)
                ref, _ = reference_solve_diffusion(*args)
                assert rel(field, ref) <= 1e-12
                assert abs(qoi(field, n) - qoi(ref, n)) <= 1e-12 * abs(qoi(ref, n))


@pytest.mark.parametrize("kind", ("affine", "lognormal"))
def test_band_solve_matches_solveh_banded(monkeypatch, kind):
    # solveh_banded calls the same LAPACK routine after its finiteness
    # passes; a scipy whose _flapack extension changed would fail here
    from scipy.linalg import solveh_banded
    rng = np.random.default_rng(14)
    model = DiffusionModel(kind)
    runs = []
    for n in (8, 16, 64):
        y = rng.uniform(-1, 1, 20) if kind == "affine" else rng.standard_normal(20)
        for f in (None, lambda X1, X2: np.exp(X1) * np.cos(3 * X2)):
            runs.append(((model, y, n, f), solve_diffusion(model, y, n, f)))
    monkeypatch.setattr(uq_bench, "_band_solve", solveh_banded)
    for args, field in runs:
        assert np.array_equal(solve_diffusion(*args), field)


def test_band_solve_rejects_an_indefinite_band():
    ab = np.array([[0.0, 1.0, 1.0], [4.0, -1.0, 4.0]])    # upper storage, kd = 1
    rhs = np.ones(3)
    with pytest.raises(BenchmarkError, match="leading minor of order 2 is not positive definite"):
        uq_bench._band_solve(ab, rhs)
    ab[1, 1] = 4.0
    x = uq_bench._band_solve(ab, rhs)
    assert np.allclose(band_to_dense(ab) @ x, rhs, rtol=0, atol=1e-15)
    assert np.array_equal(ab[1], [4.0, 4.0, 4.0]) and np.array_equal(rhs, np.ones(3))


def test_band_solve_shares_scipy_linalgs_routine():
    # the extension is initialized once per process, whichever of the two
    # loads it first
    from scipy.linalg import lapack
    assert uq_bench._lapack_dpbsv() is lapack.dpbsv


def test_band_solve_loader_names_the_extension_without_scipy(monkeypatch):
    # the uncached loader, so the process-wide routine stays loaded
    import importlib.util
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    with pytest.raises(ModuleNotFoundError, match=r"'scipy\.linalg\._flapack'") as info:
        uq_bench._lapack_dpbsv.__wrapped__()
    assert info.value.name == "scipy.linalg._flapack"


def test_cpu_count_without_an_affinity_mask(monkeypatch):
    # a platform without sched_getaffinity counts the machine's CPUs
    monkeypatch.delattr(uq_bench.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(uq_bench.os, "cpu_count", lambda: 3)
    assert uq_bench._cpu_count() == 3
    monkeypatch.setattr(uq_bench.os, "cpu_count", lambda: None)
    assert uq_bench._cpu_count() == 1


def test_splinalg_resolves_on_demand():
    # the benchmark tracer wraps uq_bench.splinalg.spsolve
    assert callable(uq_bench.splinalg.spsolve)
    assert getattr(uq_bench, "missing", None) is None


def test_grid_caches_are_read_only_and_shared():
    X1, X2 = _grid_nodes(16)
    modes = _mode_stack(DiffusionModel("lognormal"), 16)
    assert not (X1.flags.writeable or X2.flags.writeable or modes.flags.writeable)
    assert modes.shape == (20, 17, 17)
    assert _mode_stack(DiffusionModel("lognormal"), 16) is modes
    assert _mode_stack(DiffusionModel("affine"), 16) is not modes
    maps = _checkerboard(16)
    assert _checkerboard(16) is maps
    assert not any(m.flags.writeable for m in maps)


def test_qoi_trivia():
    n = 16
    assert qoi(np.zeros((n + 1, n + 1)), n) == 0.0
    ones_interior = np.zeros((n + 1, n + 1))
    ones_interior[1:-1, 1:-1] = 1.0
    assert np.isclose(qoi(ones_interior, n), ((n - 1) / n) ** 2)


def test_qoi_positivity_of_samples():
    model = DiffusionModel("affine")
    ss = generate_samples(model, 4, seed=3, grid=16)
    assert np.all(ss.values > 0)
    assert np.all(ss.weights == 1.0)


def test_generate_samples_deterministic():
    model = DiffusionModel("affine")
    a = generate_samples(model, 3, seed=9, grid=16)
    b = generate_samples(model, 3, seed=9, grid=16)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("cpus", [1, 2])
def test_generate_samples_matches_per_sample_loop(monkeypatch, cpus):
    # at two CPUs this process solves the first 80 samples, a worker the rest
    monkeypatch.setattr(uq_bench, "_cpu_count", lambda: cpus)
    model = DiffusionModel("affine")
    ss = generate_samples(model, 160, seed=11, grid=16)
    assert multiprocessing.active_children() == []
    pts = np.random.default_rng(11).uniform(-1.0, 1.0, (160, 20))
    vals = [qoi(solve_diffusion(model, y, 16), 16) for y in pts]
    assert np.array_equal(ss.points, pts)
    assert np.array_equal(ss.values, vals)


def test_generate_samples_gives_each_process_at_least_64_samples(monkeypatch):
    monkeypatch.setattr(uq_bench, "_cpu_count", lambda: 8)
    chunks = []

    def serial(fn, tasks, workers):
        chunks.append([len(pts) for _, pts, _ in tasks])
        assert len(tasks) == workers
        return [fn(*task) for task in tasks]

    monkeypatch.setattr(uq_bench, "_map_processes", serial)
    for n in (4, 127, 128, 200):
        generate_samples(DiffusionModel("affine"), n, grid=8)
    assert chunks == [[4], [127], [64, 64], [67, 67, 66]]


def test_map_processes_keeps_task_order(monkeypatch):
    # more tasks than processes: the pool takes them from the front and this
    # process, after its own, from the back; three CPUs let three workers
    # run a pool of two on any host
    monkeypatch.setattr(uq_bench, "_cpu_count", lambda: 3)
    tasks = [(i, 2) for i in range(40)]
    for workers in (1, 2, 3):
        assert _map_processes(pow, tasks, workers) == [i * i for i in range(40)]
        assert multiprocessing.active_children() == []
    with pytest.raises(ZeroDivisionError):
        _map_processes(divmod, [(1, 1), (1, 0), (2, 1)], 2)
    assert multiprocessing.active_children() == []


def test_qoi_richardson_ratio():
    model = DiffusionModel("affine")
    rng = np.random.default_rng(4)
    y = rng.uniform(-1, 1, 20)
    qs = [qoi(solve_diffusion(model, y, n), n) for n in (16, 32, 64)]
    ratio = (qs[0] - qs[1]) / (qs[1] - qs[2])
    assert 3.5 <= ratio <= 4.5


def test_gaussian_samples_for_lognormal():
    model = DiffusionModel("lognormal")
    ss = generate_samples(model, 3, seed=5, grid=16)
    assert ss.points.shape == (3, 20)
    assert np.all(np.isfinite(ss.values))


# ---------------------------------------------------------------------------
# synthetic targets and harness


def test_synthetic_targets_are_rank_one():
    for kind in ("ones", "exp_sum"):
        tt = synthetic_target(kind, 4, 6)
        assert tt.ranks == (1, 1, 1)


def test_exp_sum_target_matches_exponential():
    tt = synthetic_target("exp_sum", 3, 15)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, (50, 3))
    vals = predict(tt, legendre_basis(15), pts)
    assert np.abs(vals / np.exp(pts.sum(axis=1)) - 1).max() <= 1e-10


def test_ones_target_is_product_of_basis_sums():
    tt = synthetic_target("ones", 2, 5)
    basis = legendre_basis(5)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, (20, 2))
    vals = predict(tt, basis, pts)
    expect = basis.evaluate(pts[:, 0]).sum(1) * basis.evaluate(pts[:, 1]).sum(1)
    assert np.allclose(vals, expect)


def test_phase_diagram_rejects_zero_samples():
    with pytest.raises(BenchmarkError):
        phase_diagram([2], [0], realizations=1)


@pytest.mark.parametrize("kwargs, message", [
    (dict(orders=[0]), "orders must be positive"),
    (dict(realizations=0), "realizations must be >= 1"),
    (dict(jobs=0), "jobs must be >= 1"),
    (dict(dimension=0), "dimension must be >= 1"),
    (dict(n_test=0), "test sample count must be >= 1"),
])
def test_phase_diagram_rejects_empty_parameter_spaces(kwargs, message):
    args = {"orders": [2], "sample_counts": [10], "realizations": 1, **kwargs}
    with pytest.raises(BenchmarkError, match=message):
        phase_diagram(**args)


@pytest.fixture
def no_process_pool(monkeypatch):
    """Fail any test that starts a worker pool, on any number of CPUs."""
    from concurrent.futures.process import ProcessPoolExecutor

    def no_pool(self, *args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", no_pool)
    monkeypatch.setattr(uq_bench, "_cpu_count", lambda: 2)


def test_phase_diagram_checks_target_before_starting_processes(no_process_pool):
    with pytest.raises(BenchmarkError, match="unknown target 'nope'"):
        phase_diagram([2], [30], realizations=3, target="nope", jobs=2)


def test_generate_samples_checks_grid_before_starting_processes(no_process_pool):
    with pytest.raises(BenchmarkError, match="grid must have at least 8 cells per side"):
        generate_samples(DiffusionModel("affine"), 200, grid=4)


def test_negative_seeds_raise_before_starting_processes(no_process_pool):
    with pytest.raises(BenchmarkError, match="seed must be >= 0"):
        generate_samples(DiffusionModel("affine"), 200, seed=-1)
    with pytest.raises(BenchmarkError, match="seed must be >= 0"):
        phase_diagram([2], [30], realizations=3, seed=-1, jobs=2)
    with pytest.raises(BenchmarkError, match="seed must be >= 0"):
        spectrum_experiment(d=3, realizations=1, seed=-1)
    with pytest.raises(RecoveryError, match="seed must be >= 0"):
        RecoveryConfig(seed=-1)


def test_jobs_above_the_cpu_count_start_no_processes(no_process_pool, monkeypatch):
    # the pool never has more processes than CPUs, so on one CPU four jobs
    # run every realization in this process
    monkeypatch.setattr(uq_bench, "_cpu_count", lambda: 1)
    kwargs = dict(realizations=3, dimension=4, n_test=50, max_rank=2, max_sweeps=3)
    assert np.isfinite(phase_diagram([3], [30], jobs=4, **kwargs)[0, 0])


def test_unknown_choices_raise_benchmark_error():
    with pytest.raises(BenchmarkError, match="unknown target 'nope'"):
        synthetic_target("nope", 2, 3)
    with pytest.raises(BenchmarkError, match="unknown diffusion model 'nope'"):
        DiffusionModel("nope")
    with pytest.raises(BenchmarkError, match="unknown weight rule 'nope'"):
        spectrum_experiment(d=3, weight="nope", realizations=1)


def test_phase_diagram_config_errors_propagate(monkeypatch):
    with pytest.raises(RecoveryError, match="unknown algorithm"):
        phase_diagram([2], [30], realizations=1, algorithm="nope")
    # a recovery failure in one realization still reads as a NaN cell
    import ttrec.uq_bench as uq

    def failing(*args, **kwargs):
        raise RecoveryError("left interface Gramian vanished")

    monkeypatch.setattr(uq, "recover", failing)
    grid = phase_diagram([2], [30], realizations=1, dimension=4, n_test=10)
    assert np.isnan(grid[0, 0])


def test_phase_diagram_abort_before_first_sweep_is_nan_cell(monkeypatch):
    # recover catches a microstep's failure and returns the untrained start
    # with best_sweep -1; that realization has no model to score
    import ttrec.recovery as rec

    def failing(*args, **kwargs):
        raise RecoveryError("local Gramian scale overflows")

    monkeypatch.setattr(rec, "microstep_r2als", failing)
    grid = phase_diagram([3], [60], realizations=1, dimension=4, n_test=10)
    assert np.isnan(grid[0, 0])


def test_phase_diagram_too_few_samples_for_cv_is_nan_cell():
    # 11 samples leave 9 training rows for 10 CV folds
    grid = phase_diagram([2], [11], realizations=2, dimension=4, n_test=10)
    assert np.isnan(grid[0, 0])


def test_phase_diagram_single_cell_matches_standalone():
    M, n, d = 3, 60, 5
    grid = phase_diagram([M], [n], realizations=1, target="exp_sum",
                         algorithm="r2als", dimension=d, n_test=200, seed=0,
                         max_rank=2, max_sweeps=8)
    assert grid.shape == (1, 1)
    tt = synthetic_target("exp_sum", M, d)
    basis = legendre_basis(d)
    rng = np.random.default_rng([0, M, n, 0])
    pts = rng.uniform(-1, 1, (n, M))
    vals = tt_evaluate_batch(tt, [basis.evaluate(pts[:, m]) for m in range(M)])
    test_rng = np.random.default_rng([0, M, 0, 1_000_003])
    tpts = test_rng.uniform(-1, 1, (200, M))
    tvals = tt_evaluate_batch(tt, [basis.evaluate(tpts[:, m]) for m in range(M)])
    cfg = RecoveryConfig(algorithm="r2als", max_rank=2, max_sweeps=8, seed=0)
    report = recover(SampleSet(pts, vals), cfg, basis)
    standalone = relative_error(report.predict(tpts), tvals)
    assert np.isclose(grid[0, 0], standalone)


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_weight_matrix():
    W = legendre_weight_matrix(3)
    assert np.allclose(W, np.outer(np.sqrt([1, 3, 5]), np.sqrt([1, 3, 5])))


def test_spectrum_degenerate_dimension():
    res = spectrum_experiment(d=1, realizations=3, seed=0)
    assert res["plain"].shape == (3, 1)
    assert np.allclose(res["plain"], res["weighted"])


def test_spectrum_rejects_no_realizations():
    with pytest.raises(BenchmarkError, match="realizations must be >= 1"):
        spectrum_experiment(d=4, realizations=0)


def test_spectrum_unit_weight_identical():
    res = spectrum_experiment(d=8, weight="ones", realizations=5, seed=1)
    assert np.allclose(res["plain"], res["weighted"])
    assert np.allclose(res["tail_ratio"], 1.0)


def test_spectrum_weighted_decays_faster():
    res = spectrum_experiment(d=20, realizations=50, seed=2)
    assert np.median(res["tail_ratio"]) < 1.0
    assert res["fraction_faster"] >= 0.9
    # spectra are sorted descending
    assert np.all(np.diff(res["weighted"], axis=1) <= 1e-12)


def test_phase_diagram_jobs_parallel_matches_serial():
    kwargs = dict(realizations=1, target="exp_sum", algorithm="r2als",
                  dimension=4, n_test=50, seed=0, max_rank=2, max_sweeps=3)
    serial = phase_diagram([2, 3], [30], jobs=1, **kwargs)
    parallel = phase_diagram([2, 3], [30], jobs=2, **kwargs)
    assert np.array_equal(serial, parallel)


def test_phase_diagram_realizations_are_the_parallel_tasks(monkeypatch):
    # one cell of three realizations is three tasks, so two jobs use two
    # processes; the cell's mean does not depend on which process ran what
    tasks_seen = []

    def counting(fn, tasks, workers):
        tasks_seen.append(len(tasks))
        return _map_processes(fn, tasks, workers)

    monkeypatch.setattr(uq_bench, "_map_processes", counting)
    kwargs = dict(realizations=3, dimension=4, n_test=50, max_rank=2, max_sweeps=3)
    serial = phase_diagram([3], [30], jobs=1, **kwargs)
    parallel = phase_diagram([3], [30], jobs=2, **kwargs)
    assert tasks_seen == [3, 3]
    assert np.isfinite(serial[0, 0]) and np.array_equal(serial, parallel)
