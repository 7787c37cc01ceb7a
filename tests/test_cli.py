import json
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ttrec
from ttrec import cli, uq_bench
from ttrec.bases import legendre_basis
from ttrec.cli import build_parser, main, read_sample_csv
from ttrec.recovery import RecoveryConfig, _split_samples
from ttrec.uq_bench import BenchmarkError, _qois


def write_constant_fixture(tmp_path, n=200, M=3, value=2.5, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, M))
    lines = [",".join(f"y_{i + 1}" for i in range(M)) + ",u"]
    for row in pts:
        lines.append(",".join(repr(float(v)) for v in row) + f",{value}")
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def write_config(tmp_path, **overrides):
    base = {
        "algorithm": "r2als", "basis": "legendre", "dimension": 5,
        "max_rank": 2, "max_sweeps": 4, "seed": 1, "test_fraction": 0.1,
    }
    base.update(overrides)
    body = "[recovery]\n" + "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return path


def test_recover_end_to_end(tmp_path, capsys):
    samples = write_constant_fixture(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "model.tt"
    report = tmp_path / "report.json"
    rc = main(["--timestamp", "2026-01-01T00:00:00Z", "recover",
               "--config", str(cfg), "--samples", str(samples),
               "--out", str(out), "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["test_error"] is not None and doc["test_error"] < 1e-8
    assert out.exists()
    from ttrec.tensor_core import load_tt
    tt = load_tt(out)
    assert tt.order == 3


def test_recover_malformed_row_exit_2(tmp_path, capsys):
    samples = write_constant_fixture(tmp_path, n=30)
    lines = samples.read_text().splitlines()
    cfg = write_config(tmp_path)
    for i, bad, message in ((5, "0.1,0.2,oops,1.0", "row 6"),
                            (8, "0.1,0.2,1.0", "row 9: expected 4 fields, got 3")):
        text = list(lines)
        text[i] = bad
        samples.write_text("\n".join(text) + "\n")
        rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
                   "--out", str(tmp_path / "m.tt")])
        assert rc == 2
        assert message in capsys.readouterr().err
    # a whole file that holds no samples
    for text, message in (("y_1,v\n0.1,1.0\n", "header must be y_1..y_M,u[,w], got ['y_1', 'v']"),
                          ("", "empty file"), ("# a comment\ny_1,y_2,u\n", "no sample rows")):
        samples.write_text(text)
        rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
                   "--out", str(tmp_path / "m.tt")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {samples}: {message}\n"
    assert not (tmp_path / "m.tt").exists()


def test_recover_bad_sample_values_exit_2(tmp_path, capsys):
    samples = write_constant_fixture(tmp_path, n=30)
    lines = samples.read_text().splitlines()
    cfg = write_config(tmp_path)
    weighted = [lines[0] + ",w"] + [line + ",1.0" for line in lines[1:]]
    weighted[4] = lines[4] + ",-1.0"
    lines[5] = "0.1,0.2,0.3,nan"
    for text, message in ((lines, "sample 4 (counting from 0) has a non-finite value"),
                          (weighted, "weights must be nonnegative")):
        samples.write_text("\n".join(text) + "\n")
        rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
                   "--out", str(tmp_path / "m.tt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(samples) in err and message in err
        assert "internal error" not in err
    assert not (tmp_path / "m.tt").exists()


def test_recover_no_parameter_columns_exit_2(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("u\n" + "".join(f"{v}\n" for v in range(30)))
    out = tmp_path / "m.tt"
    rc = main(["recover", "--config", str(write_config(tmp_path)),
               "--samples", str(samples), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{samples}: points have no parameter columns" in err
    assert "internal error" not in err
    assert not out.exists()


def test_recover_abort_before_first_sweep_writes_no_model(tmp_path, capsys, monkeypatch):
    import ttrec.recovery as recovery

    def failing(*args, **kwargs):
        raise recovery.RecoveryError("left interface Gramian vanished")

    monkeypatch.setattr(recovery, "microstep_r2als", failing)
    samples = write_constant_fixture(tmp_path, n=60)
    cfg = write_config(tmp_path)
    out = tmp_path / "model.tt"
    report = tmp_path / "report.json"
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(out), "--report", str(report)])
    assert rc == 1
    assert not out.exists() and not report.exists()
    err = capsys.readouterr().err
    assert "sweep 0: left interface Gramian vanished" in err
    assert "internal error" not in err


def test_recover_abort_after_a_sweep_writes_model_and_exits_1(tmp_path, capsys, monkeypatch):
    # the (M+1)-th microstep is the first of sweep 1: sweep 0 is complete
    import ttrec.recovery as recovery

    real, calls = recovery.microstep_r2als, []

    def failing_later(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise recovery.RecoveryError("left interface Gramian vanished")
        return real(*args, **kwargs)

    monkeypatch.setattr(recovery, "microstep_r2als", failing_later)
    samples = write_constant_fixture(tmp_path, n=60)
    cfg = write_config(tmp_path)
    out = tmp_path / "model.tt"
    report = tmp_path / "report.json"
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(out), "--report", str(report)])
    assert rc == 1
    assert out.exists()
    doc = json.loads(report.read_text())
    assert doc["aborted"].startswith("sweep 1:") and doc["best_sweep"] == 0
    err = capsys.readouterr().err
    assert "recover: aborted: sweep 1: left interface Gramian vanished" in err
    assert "internal error" not in err


def test_recover_model_is_in_the_config_basis(tmp_path, capsys):
    # r2als sweeps in a Gramian-orthonormal copy of the basis; the model file
    # holds the library's train mapped back to the config's basis, split
    # alike with the command line's default test share
    from ttrec.recovery import SampleSet, predict, recover
    from ttrec.tensor_core import load_tt
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (120, 3))
    vals = np.exp(pts.sum(axis=1) / 3.0)
    lines = ["y_1,y_2,y_3,u"] + [",".join(repr(float(v)) for v in [*row, val])
                                 for row, val in zip(pts, vals)]
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(lines) + "\n")
    out = tmp_path / "model.tt"
    rc = main(["recover", "--config", str(write_config(tmp_path)), "--samples", str(samples),
               "--out", str(out)])
    assert rc == 0
    report = recover(SampleSet(pts, vals),
                     RecoveryConfig(algorithm="r2als", max_rank=2, max_sweeps=4, seed=1,
                                    test_fraction=0.1),
                     legendre_basis(5))
    model = load_tt(out)
    assert all(np.array_equal(a, b) for a, b in zip(model.components, report.tt.components))
    np.testing.assert_allclose(predict(model, legendre_basis(5), pts), report.predict(pts),
                               rtol=1e-12, atol=0)
    assert f"test error {report.test_error:.3e}" in capsys.readouterr().out


def move_first_coordinate(samples, row, value):
    """Rewrites ``y_1`` of sample ``row`` (counting from 0) in a sample CSV."""
    lines = samples.read_text().splitlines()
    lines[1 + row] = f"{value}," + lines[1 + row].split(",", 1)[1]
    samples.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("algorithm", ["als", "als_l2", "rals", "r2als"])
def test_recover_overflowing_basis_values_abort(tmp_path, capsys, algorithm):
    # one training sample at y_1 = 1e100 overflows the Hermite basis values:
    # a data error, named before any sweep, with no numpy warning
    samples = write_constant_fixture(tmp_path, n=60)
    i = int(_split_samples(60, RecoveryConfig(seed=1, test_fraction=0.1))[0][0])
    move_first_coordinate(samples, i, "1e100")
    out = tmp_path / "m.tt"
    cfg = write_config(tmp_path, algorithm=algorithm, basis="hermite")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
                   "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == (f"error: sample {i} (counting from 0) has y_1 = "
                                       "1e+100, where the hermite basis values are "
                                       "not finite\n")


def test_recover_point_outside_the_basis_domain_exits_2(tmp_path, capsys):
    # a Legendre basis takes any size outside [-1, 1]: a point there is a
    # data error, named before any sweep
    samples = write_constant_fixture(tmp_path, n=60)
    move_first_coordinate(samples, 0, "1e30")
    out = tmp_path / "m.tt"
    rc = main(["recover", "--config", str(write_config(tmp_path, algorithm="als")),
               "--samples", str(samples), "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == ("error: sample 0 (counting from 0) has y_1 = 1e+30, "
                                       "outside the legendre basis's domain [-1.0, 1.0]\n")


def test_recover_hermite_basis_end_to_end(tmp_path, capsys):
    samples = write_constant_fixture(tmp_path, n=100)
    cfg = write_config(tmp_path, basis="hermite")
    out = tmp_path / "model.tt"
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(out)])
    assert rc == 0
    from ttrec.tensor_core import load_tt
    assert load_tt(out).dims == (5, 5, 5)


def test_recover_hermite_basis_past_int64_factorials(tmp_path, capsys):
    # the norms sqrt(k!) of a dimension-22 basis need 21!, past int64
    samples = write_constant_fixture(tmp_path, n=60, M=2)
    cfg = write_config(tmp_path, basis="hermite", dimension=22, max_rank=1, max_sweeps=1)
    out = tmp_path / "model.tt"
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(out)])
    assert rc == 0
    from ttrec.tensor_core import load_tt
    assert load_tt(out).dims == (22, 22)


@pytest.mark.parametrize("dimension, message", [
    (100, "gramian has non-finite entries (h1)"),   # its 400-node Gauss rule overflows
    (172, "hermite dimension must be <= 171"),      # 171! overflows a float
])
def test_recover_hermite_dimension_errors_exit_2(tmp_path, capsys, dimension, message):
    # one line on stderr: a floating-point warning would be an error here
    samples = write_constant_fixture(tmp_path, n=60, M=2)
    out = tmp_path / "model.tt"
    for algorithm in ("rals", "r2als"):
        cfg = write_config(tmp_path, algorithm=algorithm, basis="hermite",
                           dimension=dimension, max_rank=1, max_sweeps=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
                       "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"


def test_recover_all_nan_validation_writes_no_model(tmp_path, capsys):
    # values near 1e160 overflow the squared norms of the relative error, so
    # every sweep's validation error is NaN and no sweep is the best
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (60, 3))
    lines = ["y_1,y_2,y_3,u"] + [",".join(repr(float(v)) for v in row)
                                 + f",{float(1e160 * np.exp(row.sum()))!r}" for row in pts]
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, dimension=4, max_rank=2)
    out = tmp_path / "model.tt"
    report = tmp_path / "report.json"
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(out), "--report", str(report)])
    assert rc == 1
    assert not out.exists() and not report.exists()
    err = capsys.readouterr().err
    assert "no sweep has a finite validation error" in err
    assert "internal error" not in err


def test_recover_fewer_samples_than_cv_folds_exit_2(tmp_path, capsys):
    samples = write_constant_fixture(tmp_path, n=12)
    cfg = write_config(tmp_path)
    out = tmp_path / "m.tt"
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "10 cross-validation folds" in err
    assert "internal error" not in err


@pytest.mark.parametrize("key, value", [
    ("max_sweeps", 0), ("cv_folds", 0), ("cv_folds", 1), ("lambda_grid_points", 0),
    ("lambda_grid_decades", 0), ("lambda_grid_decades", -1),
    ("validation_fraction", 1.2), ("test_fraction", -0.1), ("test_fraction", 1.5),
    ("dimension", 0), ("patience", 0), ("stop_tol", -0.001),
    ("initial_rank", 3), ("gramian", "bogus"), ("max_rank", "x"), ("dimension", "x"),
    ("basis", "chebyshev")])
def test_recover_out_of_range_config_exit_2(tmp_path, capsys, key, value):
    samples = write_constant_fixture(tmp_path, n=100)
    algorithm = "als" if key in ("validation_fraction", "test_fraction", "gramian") else "r2als"
    cfg = write_config(tmp_path, algorithm=algorithm, **{key: value})
    out = tmp_path / "m.tt"
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error: {cfg}: " in err and key in err and "internal error" not in err


def test_cli_choices_are_the_library_choices():
    # every choice list of the command line is the library's own object
    from ttrec.recovery import ALGORITHMS
    from ttrec.uq_bench import DIFFUSION_MODELS, TARGETS, WEIGHT_RULES
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    choices = {(sub, action.dest): action.choices
               for sub, p in subparsers.items() for action in p._actions
               if action.choices is not None}
    expected = {("phase-diagram", "target"): TARGETS,
                ("phase-diagram", "algorithm"): ALGORITHMS,
                ("darcy-gen", "model"): DIFFUSION_MODELS,
                ("spectrum", "weight"): WEIGHT_RULES}
    assert choices.keys() == expected.keys()
    assert all(choices[key] is obj for key, obj in expected.items())


def test_recover_zero_weights_exit_2(tmp_path, capsys):
    samples = write_constant_fixture(tmp_path, n=60)
    lines = samples.read_text().splitlines()
    samples.write_text("\n".join([lines[0] + ",w"] + [line + ",0.0" for line in lines[1:]])
                       + "\n")
    out = tmp_path / "m.tt"
    rc = main(["recover", "--config", str(write_config(tmp_path)), "--samples", str(samples),
               "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert "error: the training partition has zero total weight" in capsys.readouterr().err


def test_recover_missing_file_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["recover", "--config", str(cfg),
               "--samples", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "m.tt")])
    assert rc == 2


def test_bad_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[recovery]\nalgorithm = r2als\nwibble = 3\n")
    samples = write_constant_fixture(tmp_path, n=30)
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(tmp_path / "m.tt")])
    assert rc == 2
    assert "wibble" in capsys.readouterr().err
    missing = tmp_path / "nope.cfg"
    for text, path, message in (
            ("[recovery]\nalgorithm\n", cfg, f"Source contains parsing errors: '{cfg}'"),
            (None, missing, f"cannot read config file {missing}"),
            ("[other]\nalgorithm = r2als\n", cfg, f"{cfg}: missing [recovery] section")):
        if text is not None:
            path.write_text(text)
        rc = main(["recover", "--config", str(path), "--samples", str(samples),
                   "--out", str(tmp_path / "m.tt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "m.tt").exists()


@pytest.mark.parametrize("target", ["missing/out", "taken"])
@pytest.mark.parametrize("command", ["spectrum", "recover"])
def test_unwritable_output_exit_2(tmp_path, capsys, command, target):
    # a missing directory fails at the temp file, a directory in the
    # target's place at the rename; neither leaves a file behind
    inputs, work = tmp_path / "in", tmp_path / "work"
    inputs.mkdir()
    (work / "taken").mkdir(parents=True)
    out = work / target
    if command == "spectrum":
        argv = ["spectrum", "--d", "3", "--realizations", "2"]
    else:
        argv = ["recover", "--config", str(write_config(inputs, algorithm="als")),
                "--samples", str(write_constant_fixture(inputs, n=60))]
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err and "internal error" not in err
    assert [p.name for p in work.rglob("*")] == ["taken"]


def test_sample_reader_weights_column(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("y_1,y_2,u,w\n0.1,0.2,1.0,2.0\n-0.3,0.4,2.0,0.5\n")
    ss = read_sample_csv(path)
    assert np.allclose(ss.weights, [2.0, 0.5])
    assert np.allclose(ss.values, [1.0, 2.0])


def test_variation_subcommand(tmp_path):
    out = tmp_path / "var.csv"
    svg = tmp_path / "var.svg"
    rc = main(["--timestamp", "2026-01-01T00:00:00Z", "variation",
               "--d", "2,4,8", "--r", "1e-3,1,1e3", "--grid", "41",
               "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    assert len(rows) == 9
    for d, r, K in rows:
        assert 1.0 <= float(K) <= int(d) ** 2 * (1 + 1e-9)
    assert svg.read_text().startswith("<svg")


def test_spectrum_subcommand(tmp_path):
    out = tmp_path / "spectra.csv"
    rc = main(["--timestamp", "2026-01-01T00:00:00Z", "spectrum",
               "--d", "10", "--realizations", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert any(line.startswith("# tail_index=") for line in lines)
    data = [l for l in lines if l and not l.startswith("#")][1:]
    assert len(data) == 4 * 2 * 10


def test_variation_bad_arguments_exit_2(tmp_path, capsys):
    out = tmp_path / "var.csv"
    for extra, message in ((["--d", "1"], "matrix dimensions must be >= 2"),
                           (["--r", "-1"], "radius must be positive"),
                           (["--grid", "0"], "grid size must be >= 3")):
        # the last of a repeated flag wins
        rc = main(["variation", "--d", "2", "--r", "1", "--out", str(out)] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
    assert not out.exists()


def test_spectrum_bad_arguments_exit_2(tmp_path, capsys):
    out = tmp_path / "spectra.csv"
    for extra, message in ((["--d", "0"], "dimension must be >= 1"),
                           (["--realizations", "0"], "realizations must be >= 1")):
        rc = main(["spectrum", "--out", str(out)] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
    assert not out.exists()


def test_darcy_gen_subcommand(tmp_path):
    out = tmp_path / "darcy.csv"
    # an odd grid leaves an even number of interior nodes per side
    for grid, count in ((16, 2), (9, 3)):
        rc = main(["--timestamp", "2026-01-01T00:00:00Z", "darcy-gen",
                   "--model", "affine", "--n", str(count), "--grid", str(grid),
                   "--out", str(out)])
        assert rc == 0
        ss = read_sample_csv(out)
        assert ss.points.shape == (count, 20)
        assert np.all(ss.values > 0)


def test_darcy_gen_bad_arguments_exit_2(tmp_path, capsys):
    out = tmp_path / "darcy.csv"
    for extra in (["--n", "2", "--grid", "4"], ["--n", "0"]):
        rc = main(["darcy-gen", "--out", str(out)] + extra)
        assert rc == 2
        assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


def _qois_failing_in_workers(model, pts, grid):
    # module-level so that the worker receives it by name
    if multiprocessing.parent_process() is not None:
        raise BenchmarkError("a worker's solve failed")
    return _qois(model, pts, grid)


def test_darcy_gen_worker_error_exit_2(tmp_path, capsys, monkeypatch):
    # 160 samples on two CPUs: this process solves the first 80 and one
    # worker the rest, where the solve raises
    monkeypatch.setattr(uq_bench, "_cpu_count", lambda: 2)
    monkeypatch.setattr(uq_bench, "_qois", _qois_failing_in_workers)
    out = tmp_path / "darcy.csv"
    rc = main(["darcy-gen", "--n", "160", "--grid", "16", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "a worker's solve failed" in err and "internal error" not in err
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["darcy-gen --n 2 --grid 8",
                                     "phase-diagram --orders 2 --counts 30",
                                     "spectrum", "recover",
                                     "variation --d 2 --r 1 --grid 5"])
def test_negative_seed_exit_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "recover":
        cfg = write_config(tmp_path, seed=-1)
        argv = ["recover", "--config", str(cfg),
                "--samples", str(write_constant_fixture(tmp_path, n=100))]
        expected = f"error: {cfg}: seed must be >= 0"
    else:
        argv = command.split() + ["--seed", "-1"]
        expected = "error: seed must be >= 0"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == expected
    assert not out.exists()


def test_phase_diagram_bad_count_exit_2(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    rc = main(["phase-diagram", "--orders", "2", "--counts", "0",
               "--out", str(out)])
    assert rc == 2
    assert "internal error" not in capsys.readouterr().err
    rc = main(["phase-diagram", "--orders", "2,x", "--counts", "30", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: bad list argument: '2,x'\n"
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--orders", "0"], "orders must be positive"),
    (["--realizations", "0"], "realizations must be >= 1"),
    (["--jobs", "-2"], "jobs must be >= 1"),
    (["--dimension", "0"], "dimension must be >= 1"),
    (["--test-samples", "0"], "test sample count must be >= 1"),
    (["--max-rank", "0"], "ranks must be >= 1"),
])
def test_phase_diagram_empty_parameter_space_exit_2(tmp_path, capsys, extra, message):
    out = tmp_path / "phase.csv"
    rc = main(["phase-diagram", "--orders", "2", "--counts", "10",
               "--out", str(out)] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["variation", "--d", "", "--r", "1", "--svg", "{tmp}/var.svg"],
    ["variation", "--d", "2", "--r", ","],
    ["phase-diagram", "--orders", "", "--counts", "10"],
])
def test_empty_list_argument_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    rc = main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "empty list argument" in err and "internal error" not in err
    assert list(tmp_path.iterdir()) == []


def test_phase_diagram_subcommand(tmp_path):
    out = tmp_path / "phase.csv"
    svg = tmp_path / "phase.svg"
    rc = main(["--timestamp", "2026-01-01T00:00:00Z", "phase-diagram",
               "--orders", "2", "--counts", "40", "--realizations", "1",
               "--dimension", "4", "--test-samples", "100",
               "--max-rank", "2", "--max-sweeps", "4",
               "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 1
    order, count, err = rows[0].split(",")
    assert (order, count) == ("2", "40")
    assert float(err) < 1.0
    assert svg.exists()


def test_phase_diagram_svg_draws_nan_cells_grey(tmp_path, monkeypatch):
    # a cell without a finite mean error is grey; the finite ones are shaded
    monkeypatch.setattr(cli, "phase_diagram",
                        lambda orders, counts, **kwargs: np.array([[0.1, np.nan]]))
    out, svg = tmp_path / "phase.csv", tmp_path / "phase.svg"
    rc = main(["phase-diagram", "--orders", "2", "--counts", "30,60",
               "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    assert out.read_text().splitlines()[-1] == "2,60,nan"
    cells = [line for line in svg.read_text().splitlines() if 'width="40"' in line]
    assert len(cells) == 2
    assert 'fill="#bbbbbb"' not in cells[0] and 'fill="#bbbbbb"' in cells[1]


def test_reproducible_outputs(tmp_path):
    out = tmp_path / "det.csv"
    args = ["--timestamp", "2026-02-02T00:00:00Z", "variation",
            "--d", "2,4", "--r", "0.1,10", "--grid", "21", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_help_for_all_subcommands(capsys):
    for sub in ("recover", "variation", "phase-diagram", "darcy-gen", "spectrum"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


def test_config_allows_inline_comments(tmp_path):
    samples = write_constant_fixture(tmp_path, n=60)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[recovery]\n"
        "algorithm = r2als   ; restricted sweep\n"
        "dimension = 4       # basis functions\n"
        "max_rank = 2\n"
        "max_sweeps = 3\n"
        "seed = 0\n")
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(tmp_path / "m.tt")])
    assert rc == 0


# The cold-start tests run in fresh interpreters: the test process has
# scipy loaded already (the oracles use it).

def _python(code, *args):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(ttrec.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy():
    proc = _python("import sys, ttrec, ttrec.recovery, ttrec.uq_bench, ttrec.cli\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_darcy_gen_loads_only_scipys_lapack_extension(tmp_path):
    proc = _python("import sys\n"
                   "from ttrec.cli import main\n"
                   "rc = main(['darcy-gen', '--n', '8', '--grid', '16', '--out', sys.argv[1]])\n"
                   "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                   str(tmp_path / "darcy.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 ['scipy.linalg._flapack']"


_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from ttrec.cli import main
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""


def test_commands_without_pde_run_without_scipy(tmp_path):
    samples = write_constant_fixture(tmp_path, n=100)
    cfg = write_config(tmp_path)
    runs = [["recover", "--config", str(cfg), "--samples", str(samples),
             "--out", str(tmp_path / "blocked.tt")],
            ["variation", "--d", "2", "--r", "1", "--grid", "5",
             "--out", str(tmp_path / "var.csv")],
            ["spectrum", "--d", "6", "--realizations", "2",
             "--out", str(tmp_path / "spectra.csv")]]
    proc = _python(_WITHOUT_SCIPY, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    assert main(["recover", "--config", str(cfg), "--samples", str(samples),
                 "--out", str(tmp_path / "model.tt")]) == 0
    assert (tmp_path / "blocked.tt").read_bytes() == (tmp_path / "model.tt").read_bytes()
