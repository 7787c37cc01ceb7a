import json

import numpy as np
import pytest

from ttrec.cli import main, read_sample_csv


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
    text = samples.read_text().splitlines()
    text[5] = "0.1,0.2,oops,1.0"
    samples.write_text("\n".join(text) + "\n")
    cfg = write_config(tmp_path)
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(tmp_path / "m.tt")])
    assert rc == 2
    assert "row 6" in capsys.readouterr().err


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
    ("initial_rank", 3)])
def test_recover_out_of_range_config_exit_2(tmp_path, capsys, key, value):
    samples = write_constant_fixture(tmp_path, n=100)
    algorithm = "als" if key in ("validation_fraction", "test_fraction") else "r2als"
    cfg = write_config(tmp_path, algorithm=algorithm, **{key: value})
    out = tmp_path / "m.tt"
    rc = main(["recover", "--config", str(cfg), "--samples", str(samples),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert key in err and "internal error" not in err


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


def test_phase_diagram_bad_count_exit_2(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    rc = main(["phase-diagram", "--orders", "2", "--counts", "0",
               "--out", str(out)])
    assert rc == 2
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


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
