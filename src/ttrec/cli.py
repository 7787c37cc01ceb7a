"""Command-line front end: recovery runs, variation sweeps, benchmarks.

Every output file starts with a manifest header (subcommand, inputs,
outputs, seed, timestamp, version); identical manifests reproduce
byte-identical files.  Floats are written with shortest round-trip
formatting and all writes go through a temp file plus atomic rename.

Exit codes: 0 success, 2 usage/configuration/data errors (``CliError`` and
the library's typed errors), 1 internal errors.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import datetime
import json
import sys
import typing

import numpy as np

from . import __version__, tensor_core
from .bases import BasisError, UnivariateBasis
from .recovery import ALGORITHMS, RecoveryConfig, RecoveryError, SampleSet, recover
from .tensor_core import atomic_open
from .uq_bench import (DIFFUSION_MODELS, N_PARAMS, TARGETS, WEIGHT_RULES, BenchmarkError,
                       DiffusionModel, generate_samples, phase_diagram,
                       spectrum_experiment)
from .variation import VariationError, local_variation_rank1


class CliError(Exception):
    """User-facing error; maps to exit code 2."""


def _timestamp(args) -> str:
    if args.timestamp:
        return args.timestamp
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def manifest_lines(subcommand, args, inputs, outputs) -> list:
    fields = {
        "subcommand": subcommand,
        "config": getattr(args, "config", None) or "-",
        "inputs": ",".join(inputs) or "-",
        "outputs": ",".join(outputs) or "-",
        "seed": getattr(args, "seed", "-"),
        "timestamp": _timestamp(args),
        "version": f"ttrec-{__version__}",
    }
    # a name that is not UTF-8 reaches argv surrogate-escaped, and the
    # manifest, UTF-8 text, cannot record it
    for path in (fields["config"], *inputs, *outputs):
        try:
            path.encode("utf-8")
        except UnicodeEncodeError:
            raise CliError(f"path {path!r} is not valid UTF-8; the manifest "
                           "records every path as UTF-8 text") from None
    return ["# manifest: " + " ".join(f"{k}={v}" for k, v in fields.items())]


def fmt(x) -> str:
    """Shortest round-trip decimal representation (deterministic)."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


@contextlib.contextmanager
def _writing(path):
    """Turns a failure to create or replace the output file ``path`` (a
    missing or unwritable directory, a directory in its place) into a
    ``CliError`` that names it; ``atomic_open`` has removed its temp file."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def atomic_write(path: str, text: str) -> None:
    with _writing(path), atomic_open(path) as fh:
        fh.write(text)


def save_tt(tt, path) -> None:
    with _writing(path):
        tensor_core.save_tt(tt, path)


def write_csv(path, header_lines, columns, rows) -> None:
    lines = list(header_lines)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# minimal self-contained SVG renderers (no plotting dependency)


def svg_lines(series, labels, path):
    """Log-log line plot: one polyline per ``(xs, ys)`` of ``series``."""
    width, height = 640, 420

    def tx(v, lo, hi, size, pad=50):
        return pad + (v - lo) / (hi - lo + 1e-300) * (size - 2 * pad)

    pts = [(np.log10(x), np.log10(y)) for xs, ys in series for x, y in zip(xs, ys)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    for i, (sx, sy) in enumerate(series):
        path_pts = []
        for x, y in zip(sx, sy):
            px = tx(np.log10(x), x0, x1, width)
            py = height - tx(np.log10(y), y0, y1, height)
            path_pts.append(f"{px:.1f},{py:.1f}")
        out.append(f'<polyline points="{" ".join(path_pts)}" fill="none" '
                   f'stroke="{colors[i % len(colors)]}" stroke-width="1.5"/>')
        out.append(f'<text x="{width - 160}" y="{20 + 16 * i}" font-size="12" '
                   f'fill="{colors[i % len(colors)]}">{labels[i]}</text>')
    out.append("</svg>")
    atomic_write(path, "\n".join(out) + "\n")


def svg_heatmap(matrix, row_labels, col_labels, path):
    cell = 40
    m, n = matrix.shape
    width, height = 80 + n * cell, 60 + m * cell
    finite = matrix[np.isfinite(matrix)]
    lo = float(np.log10(finite.min())) if finite.size else -1.0
    hi = float(np.log10(finite.max())) if finite.size else 0.0
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    for i in range(m):
        for j in range(n):
            v = matrix[i, j]
            if not np.isfinite(v):
                color = "#bbbbbb"
            else:
                t = 0.0 if hi == lo else (np.log10(v) - lo) / (hi - lo)
                shade = int(255 * t)
                color = f"#{shade:02x}{int(64 + 0.25 * shade):02x}{255 - shade:02x}"
            out.append(f'<rect x="{60 + j * cell}" y="{30 + i * cell}" width="{cell}" '
                       f'height="{cell}" fill="{color}"/>')
    for i, lab in enumerate(row_labels):
        out.append(f'<text x="10" y="{55 + i * cell}" font-size="12">{lab}</text>')
    for j, lab in enumerate(col_labels):
        out.append(f'<text x="{62 + j * cell}" y="20" font-size="12">{lab}</text>')
    out.append("</svg>")
    atomic_write(path, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# config and data files


# the [recovery] keys: RecoveryConfig's fields with their types, and the
# keys ``recover`` reads itself with their defaults (a value takes its
# default's type)
RECOVERY_KEYS = typing.get_type_hints(RecoveryConfig)
EXTRA_KEYS = {"basis": "legendre", "dimension": 8}


def read_recovery_config(path):
    """``(RecoveryConfig, UnivariateBasis)`` from the INI file's [recovery]."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:  # message carries the line number
        raise CliError(str(exc))
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}")
    if not read:
        raise CliError(f"cannot read config file {path}")
    if not parser.has_section("recovery"):
        raise CliError(f"{path}: missing [recovery] section")
    # unlike the library, the command line holds out a test share by default
    cfg_kwargs, extras = {"test_fraction": 0.1}, dict(EXTRA_KEYS)
    for key, raw in parser.items("recovery"):
        if key in RECOVERY_KEYS:
            into, conv = cfg_kwargs, RECOVERY_KEYS[key]
        elif key in EXTRA_KEYS:
            into, conv = extras, type(EXTRA_KEYS[key])
        else:
            raise CliError(f"{path}: unknown config key {key!r}")
        try:
            into[key] = conv(raw)
        except ValueError:
            raise CliError(f"{path}: bad value for {key}: {raw!r}")
    try:
        basis = UnivariateBasis(extras["basis"], extras["dimension"])
        return RecoveryConfig(**cfg_kwargs), basis
    except (RecoveryError, BasisError) as exc:
        raise CliError(f"{path}: {exc}")


def read_sample_csv(path) -> SampleSet:
    """Sample file: header y_1..y_M,u[,w]; one sample per row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = [(lineno, line) for lineno, line in enumerate(map(str.strip, fh), start=1)
                     if line and not line.startswith("#")]
    except OSError as exc:
        raise CliError(f"cannot read samples: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}")
    if not lines:
        raise CliError(f"{path}: empty file")
    header = [h.strip() for h in _csv_record(path, *lines[0])]
    width = len(header)
    ycols = width - 2 if header[-1] == "w" else width - 1
    if header[:ycols] != [f"y_{i + 1}" for i in range(ycols)] or header[ycols] != "u":
        raise CliError(f"{path}: header must be y_1..y_M,u[,w], got {header}")
    rows = []
    for lineno, line in lines[1:]:
        row = _csv_record(path, lineno, line)
        if len(row) != width:
            raise CliError(f"{path}: row {lineno}: expected {width} fields, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise CliError(f"{path}: row {lineno}: non-numeric value")
    if not rows:
        raise CliError(f"{path}: no sample rows")
    table = np.array(rows)
    try:
        return SampleSet(table[:, :ycols], table[:, ycols],
                         table[:, -1] if ycols + 2 == width else None)
    except RecoveryError as exc:
        raise CliError(f"{path}: {exc}")


# every line is one CSV record: a quote does not join lines
def _csv_record(path, lineno, line) -> list:
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:  # such as a field past csv's size limit
        raise CliError(f"{path}: row {lineno}: {exc}")


def _parse_list(text, conv):
    try:
        values = [conv(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise CliError(f"bad list argument: {text!r}")
    if not values:
        raise CliError(f"empty list argument: {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_recover(args) -> int:
    cfg, basis = read_recovery_config(args.config)
    samples = read_sample_csv(args.samples)
    report = recover(samples, cfg, basis)
    if report.best_sweep < 0:
        # no sweep completed, or none has a finite validation error (they are
        # NaN when the values overflow): the only iterate is the untrained start
        what = ("no sweep completed" if not report.val_errors
                else "no sweep has a finite validation error")
        reason = f" (aborted: {report.aborted})" if report.aborted else ""
        print(f"recover: {what}{reason}; no model written", file=sys.stderr)
        return 1
    header = manifest_lines("recover", args, [args.config, args.samples],
                            [args.out, args.report or "-"])
    save_tt(report.tt, args.out)
    doc = {
        "manifest": header[0][2:],
        "algorithm": cfg.algorithm,
        "train_errors": report.train_errors,
        "val_errors": report.val_errors,
        "test_error": report.test_error,
        "best_sweep": report.best_sweep,
        "rank_history": [list(r) for r in report.rank_history],
        "lambdas": report.lambdas,
        "underdetermined": [list(t) for t in report.underdetermined],
        "aborted": report.aborted,
    }
    if args.report:
        atomic_write(args.report, json.dumps(doc, indent=1) + "\n")
    print(f"recover: best sweep {report.best_sweep}, "
          f"validation error {min(report.val_errors):.3e}"
          + (f", test error {report.test_error:.3e}" if report.test_error is not None else ""))
    if report.aborted:
        print(f"recover: aborted: {report.aborted}", file=sys.stderr)
        return 1
    return 0


def cmd_variation(args) -> int:
    if args.seed < 0:
        raise CliError("seed must be >= 0")
    ds = _parse_list(args.d, int)
    rs = _parse_list(args.r, float)
    rows = [(d, r, local_variation_rank1(d, d, r, args.grid))
            for d in ds for r in rs]
    header = manifest_lines("variation", args, [], [args.out])
    write_csv(args.out, header, ["d", "r", "K_estimate"], rows)
    if args.svg:
        series, labels = [], []
        for d in ds:
            xs = [r for dd, r, _ in rows if dd == d]
            ys = [k for dd, _, k in rows if dd == d]
            series.append((xs, ys))
            labels.append(f"d={d}")
        svg_lines(series, labels, args.svg)
    print(f"variation: wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_phase_diagram(args) -> int:
    orders = _parse_list(args.orders, int)
    counts = _parse_list(args.counts, int)
    grid = phase_diagram(orders, counts, realizations=args.realizations,
                         target=args.target, algorithm=args.algorithm,
                         dimension=args.dimension, n_test=args.test_samples,
                         seed=args.seed, max_rank=args.max_rank,
                         max_sweeps=args.max_sweeps, jobs=args.jobs)
    rows = [(orders[i], counts[j], grid[i, j])
            for i in range(len(orders)) for j in range(len(counts))]
    header = manifest_lines("phase-diagram", args, [], [args.out])
    write_csv(args.out, header, ["order", "n_samples", "mean_rel_error"], rows)
    if args.svg:
        svg_heatmap(grid, [f"M={M}" for M in orders], [str(n) for n in counts], args.svg)
    print(f"phase-diagram: wrote {len(rows)} cells to {args.out}")
    return 0


def cmd_darcy_gen(args) -> int:
    model = DiffusionModel(args.model)
    samples = generate_samples(model, args.n, seed=args.seed, grid=args.grid)
    header = manifest_lines("darcy-gen", args, [], [args.out])
    cols = [f"y_{i + 1}" for i in range(N_PARAMS)] + ["u"]
    rows = [tuple(samples.points[i]) + (samples.values[i],) for i in range(samples.size)]
    write_csv(args.out, header, cols, rows)
    print(f"darcy-gen: wrote {samples.size} samples to {args.out}")
    return 0


def cmd_spectrum(args) -> int:
    res = spectrum_experiment(d=args.d, weight=args.weight,
                              realizations=args.realizations, seed=args.seed)
    header = manifest_lines("spectrum", args, [], [args.out])
    header.append(f"# tail_index={res['tail_index']} "
                  f"fraction_faster={fmt(res['fraction_faster'])}")
    rows = []
    for r in range(args.realizations):
        for kind in ("plain", "weighted"):
            for i, s in enumerate(res[kind][r]):
                rows.append((r, kind, i, s))
    write_csv(args.out, header, ["realization", "kind", "index", "sigma"], rows)
    print(f"spectrum: wrote {len(rows)} rows to {args.out} "
          f"(faster-decay fraction {res['fraction_faster']:.2f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttrec",
        description="Tensor-train least-squares recovery and benchmarks")
    parser.add_argument("--timestamp", default=None,
                        help="fix the manifest timestamp (for reproducible outputs)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="fit a tensor train to a sample CSV")
    p.add_argument("--config", required=True, help="INI config with a [recovery] section")
    p.add_argument("--samples", required=True, help="CSV with columns y_1..y_M,u[,w]")
    p.add_argument("--out", required=True, help="output tensor-train JSON")
    p.add_argument("--report", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("variation", help="local variation constant sweep (rank-1 matrices)")
    p.add_argument("--d", required=True, help="comma list of matrix dimensions")
    p.add_argument("--r", required=True, help="comma list of radii")
    p.add_argument("--grid", type=int, default=41, help="alpha/beta grid resolution")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None, help="optional SVG line plot")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest only: the estimator draws nothing")
    p.set_defaults(func=cmd_variation)

    p = sub.add_parser("phase-diagram", help="mean recovery error over (order, samples) grid")
    p.add_argument("--orders", required=True, help="comma list of tensor orders")
    p.add_argument("--counts", required=True, help="comma list of sample counts")
    p.add_argument("--realizations", type=int, default=20)
    p.add_argument("--target", choices=TARGETS, default="exp_sum")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="r2als")
    p.add_argument("--dimension", type=int, default=15)
    p.add_argument("--test-samples", type=int, default=1000)
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--max-sweeps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes that solve realizations in parallel "
                        "(at most one per CPU of the affinity mask)")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None, help="optional SVG heatmap")
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("darcy-gen", help="sample the diffusion quantity of interest")
    p.add_argument("--model", choices=DIFFUSION_MODELS, default="affine")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--grid", type=int, default=64, help="FD cells per side")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_darcy_gen)

    p = sub.add_parser("spectrum", help="weighted vs plain Gaussian singular spectra")
    p.add_argument("--d", type=int, default=50)
    p.add_argument("--weight", choices=WEIGHT_RULES, default="legendre")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, RecoveryError, BenchmarkError, VariationError, BasisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
