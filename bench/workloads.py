"""The benchmark's workloads.

A workload turns ``(seed, instance index)`` into a problem instance and
runs a fixed list of operations on it, one at a time.  An operation is a
timed call into ttrec and an untimed check of its result, which returns the
result's fingerprint and an error message when the result is wrong.
A run covers several instances drawn from its seed; the timing of one
input varies by tens of percent with the data (LASSO paths take
data-dependent sweep counts).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ttrec import cli, recovery
from ttrec.bases import legendre_basis

# Accuracy ceilings on the relative L2 error at held-out points, set from
# the seed commit at three or more times the largest error seen (m6-cv:
# about 150 instances, darcy-m20: 45).  The errors are
# heavy-tailed: on m6-cv the medians are 0.15 (als, als_l2), 1e-3 (rals)
# and 1e-4 (r2als), and the largest 1.5, 0.75, 0.017 and 0.016; ALS
# overfits at rank 3.
CEILINGS = {
    "m6-cv": {"als": 5.0, "als_l2": 5.0, "rals": 0.1, "r2als": 0.1},
    "darcy-m20": {"r2als": 0.01},
}
TIMESTAMP = "2000-01-01T00:00:00Z"   # pinned so CLI outputs are byte-identical

# every per-operation figure of any workload, with its unit
OP_FIGURES = {
    "recovery.recover_s.als": "s",
    "recovery.recover_s.als_l2": "s",
    "recovery.recover_s.rals": "s",
    "recovery.recover_s.r2als": "s",
    "cli.darcy_gen_samples_per_s": "1/s",
    "cli.recover_s": "s",
}


@dataclass
class Op:
    name: str                             # key of the per-operation figure
    run: Callable[[object], object]       # instance -> result (timed)
    check: Callable[[object, object], tuple]  # (instance, result) -> (fingerprint, error)
    work: int = 0                         # if set, the figure is work per second


def _exp_target(points):
    # the rank-1 target exp(sum(y) / 3) of acceptance criterion 6
    return np.exp(points.sum(axis=1) / 3.0)


def _report_fingerprint(report, test_error):
    return {
        "rank_history": [list(r) for r in report.rank_history],
        "lambdas": [[float(x) for x in sweep] for sweep in report.lambdas],
        "best_sweep": report.best_sweep,
        "val_error": min(report.val_errors) if report.val_errors else None,
        "test_error": test_error,
        "aborted": report.aborted,
    }


def _check_error(label, err, ceiling):
    if err is None or not math.isfinite(err):
        return f"{label}: no finite error"
    if err > ceiling:
        return f"{label}: error {err:.3e} above ceiling {ceiling:.1e}"
    return None


class LibraryRecovery:
    """``recover`` per algorithm through the library API on the target
    ``exp(sum(y) / 3)`` with uniform points.  ``patience`` equals
    ``max_sweeps`` so every call runs all sweeps."""

    def __init__(self, name, seed, order, dimension, n, n_test, max_rank,
                 sweeps, algorithms):
        self.name = name
        self.seed = seed
        self.order = order
        self.n = n
        self.n_test = n_test
        self.basis = legendre_basis(dimension)
        self.algorithms = algorithms
        self.max_rank = max_rank
        self.sweeps = sweeps
        self.ops = [Op(f"recovery.recover_s.{alg}", self._run(alg), self._check(alg))
                    for alg in algorithms]

    def instance(self, k):
        rng = np.random.default_rng([self.seed, k])
        pts = rng.uniform(-1.0, 1.0, (self.n + self.n_test, self.order))
        vals = _exp_target(pts)
        n = self.n
        return (recovery.SampleSet(pts[:n], vals[:n]), pts[n:], vals[n:])

    def _config(self, algorithm, sweeps):
        return recovery.RecoveryConfig(algorithm=algorithm, max_rank=self.max_rank,
                                       max_sweeps=sweeps, patience=sweeps, seed=0)

    def _run(self, algorithm):
        def run(inst):
            # looked up at call time so the traced run sees the call
            return recovery.recover(inst[0], self._config(algorithm, self.sweeps),
                                    self.basis)
        return run

    def _check(self, algorithm):
        def check(inst, report):
            _, tpts, tvals = inst
            test_error = recovery.relative_error(report.predict(tpts), tvals)
            fp = _report_fingerprint(report, test_error)
            if report.aborted:
                return fp, f"{algorithm}: aborted: {report.aborted}"
            return fp, _check_error(algorithm, test_error,
                                    CEILINGS[self.name][algorithm])
        return check

    def warm_up(self):
        samples = self.instance(0)[0]
        for alg in self.algorithms:
            recovery.recover(samples, self._config(alg, 1), self.basis)


DARCY_N = 500
DARCY_GRID = 64
DARCY_PARAMS = 20
DARCY_CONFIG = """[recovery]
algorithm = r2als
basis = legendre
dimension = 5
max_rank = 4
max_sweeps = {sweeps}
patience = {sweeps}
seed = 0
"""


def _cli(argv):
    """``ttrec`` in-process with its progress lines kept off our stdout;
    returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["--timestamp", TIMESTAMP] + argv)


class DarcyCli:
    """``ttrec darcy-gen`` (affine, M=20) then ``ttrec recover`` (r2als) on
    the generated CSV, both through ``cli.main``."""

    name = "darcy-m20"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.csv = workdir / "samples.csv"
        self.cfg = workdir / "run.cfg"
        self.warm_cfg = workdir / "warm.cfg"
        self.model = workdir / "model.tt"
        self.report = workdir / "report.json"
        self.cfg.write_text(DARCY_CONFIG.format(sweeps=10))
        self.warm_cfg.write_text(DARCY_CONFIG.format(sweeps=1))
        self.ops = [Op("cli.darcy_gen_samples_per_s", self._darcy_gen,
                       self._check_samples, work=DARCY_N),
                    Op("cli.recover_s", self._recover, self._check_report)]

    def instance(self, k):
        # darcy-gen draws the parameters itself from this seed
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def _darcy_gen(self, gen_seed, n=DARCY_N):
        return _cli(["darcy-gen", "--model", "affine", "--n", str(n),
                     "--grid", str(DARCY_GRID), "--seed", str(gen_seed),
                     "--out", str(self.csv)])

    def _check_samples(self, _gen_seed, code):
        if code != 0:
            return None, f"darcy-gen exited with {code}"
        data = np.loadtxt(self.csv, delimiter=",", comments="#", skiprows=2)
        fp = {"rows": int(data.shape[0]), "qoi_sum": float(data[:, -1].sum())}
        if data.shape != (DARCY_N, DARCY_PARAMS + 1):
            return fp, f"darcy-gen wrote shape {data.shape}"
        if np.abs(data[:, :-1]).max() > 1.0:
            return fp, "darcy-gen parameters outside [-1, 1]"
        # the integral of u solving -div(a grad u) = 1 is the compliance,
        # which decreases in a; it is 0.0351 at a = 1, and the affine
        # coefficient stays well inside [0.2, 1.8]
        q = data[:, -1]
        if not (np.all(np.isfinite(q)) and q.min() > 0.0351 / 1.8 and q.max() < 0.0351 / 0.2):
            return fp, "darcy-gen quantity of interest out of range"
        return fp, None

    def _recover(self, _gen_seed, cfg=None):
        return _cli(["recover", "--config", str(cfg or self.cfg),
                     "--samples", str(self.csv), "--out", str(self.model),
                     "--report", str(self.report)])

    def _check_report(self, _gen_seed, code):
        if code != 0:
            return None, f"recover exited with {code}"
        doc = json.loads(self.report.read_text())
        fp = {k: doc[k] for k in ("rank_history", "lambdas", "best_sweep", "test_error",
                                  "aborted")}
        fp["val_error"] = min(doc["val_errors"])
        return fp, _check_error("r2als", doc["test_error"], CEILINGS[self.name]["r2als"])

    def warm_up(self):
        if self._darcy_gen(self.instance(0), n=4) != 0:
            raise RuntimeError("darcy-gen warm-up failed")
        # the recover warm-up runs on synthetic data of the workload's
        # shape, so set-up does not pay for 500 PDE solves
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (DARCY_N, DARCY_PARAMS))
        vals = 0.035 / (1.0 + 0.1 * pts.mean(axis=1))
        header = ",".join([f"y_{i + 1}" for i in range(DARCY_PARAMS)] + ["u"])
        np.savetxt(self.csv, np.column_stack([pts, vals]), delimiter=",",
                   header=header, comments="")
        if self._recover(None, cfg=self.warm_cfg) != 0:
            raise RuntimeError("recover warm-up failed")


def make(name, seed, workdir):
    if name == "m6-cv":
        return LibraryRecovery(name, seed, order=6, dimension=8, n=300, n_test=1000,
                               max_rank=3, sweeps=10,
                               algorithms=("als", "als_l2", "rals", "r2als"))
    if name == "darcy-m20":
        return DarcyCli(seed, workdir)
    raise KeyError(name)
