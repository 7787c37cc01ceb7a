"""Reference fingerprints: small seeded recoveries against a committed JSON.

Each run's discrete outcome is checked exactly: the rank history, the best
sweep, the abort state and the grid index of every cross-validated λ.  Its
errors are checked to ``ERROR_RTOL``, because other numpy and BLAS builds
round differently.  A λ choice is checked only when the CV curve separates
it clearly: its margin, ``1 - minimum / runner_up`` with the runner-up the
smallest fold-mean error above the minimum, must exceed ``MARGIN_MIN``.
Grid points that tie the minimum exactly are one choice, so the rule that
breaks such ties (the largest λ wins) is checked too.

The runs are instance 0 of the benchmark's m6-cv workload (seed 1) at 3
sweeps for every algorithm, and acceptance criterion 6's underdetermined
case (``r2als``, n=100, seed 0).  A change that alters results on purpose
rewrites the JSON with ``PYTHONPATH=src python tests/regen_fingerprints.py``;
the tolerances do not move.
"""
from __future__ import annotations

import contextlib
import json
import pathlib

import numpy as np
import pytest

from ttrec import recovery, sparse_solver
from ttrec.bases import legendre_basis
from ttrec.recovery import RecoveryConfig, SampleSet, recover, relative_error
from ttrec.tensor_core import tt_evaluate_batch

from test_acceptance import exp_type_rank1

FINGERPRINTS_JSON = pathlib.Path(__file__).with_name("fingerprints.json")
ERROR_RTOL = 1e-6    # relative tolerance of every error
MARGIN_MIN = 1e-6    # smallest CV margin at which a λ index is checked


@contextlib.contextmanager
def recording_cv(calls: list):
    """Appends the ``CvReport`` of every ``cross_validate`` call (every
    penalized microstep makes one) to ``calls``."""
    original = sparse_solver.cross_validate

    def recording(*args, **kwargs):
        cv = original(*args, **kwargs)
        calls.append(cv)
        return cv

    sparse_solver.cross_validate = recovery.cross_validate = recording
    try:
        yield
    finally:
        sparse_solver.cross_validate = recovery.cross_validate = original


def _margin(cv) -> float:
    errs = cv.mean_errors
    above = errs[errs > errs.min()]
    return float(1.0 - errs.min() / above.min()) if above.size else 0.0


def _m6_cv(algorithm):
    # LibraryRecovery.instance(0) of bench/workloads.py at seed 1
    rng = np.random.default_rng([1, 0])
    pts = rng.uniform(-1.0, 1.0, (1300, 6))
    vals = np.exp(pts.sum(axis=1) / 3.0)
    cfg = RecoveryConfig(algorithm=algorithm, max_rank=3, max_sweeps=3, patience=3, seed=0)
    return SampleSet(pts[:300], vals[:300]), cfg, legendre_basis(8), pts[300:], vals[300:]


def _criterion_6_n100():
    # tests/test_acceptance.py::run_recovery(truth, basis, 100, "r2als", 0)
    basis = legendre_basis(8)
    truth = exp_type_rank1(basis, 6)

    def draw(rng, n):
        pts = rng.uniform(-1, 1, (n, 6))
        return pts, tt_evaluate_batch(truth, [basis.evaluate(pts[:, m]) for m in range(6)])

    pts, vals = draw(np.random.default_rng([0, 100]), 100)
    tpts, tvals = draw(np.random.default_rng([0, 100, 99]), 1000)
    cfg = RecoveryConfig(algorithm="r2als", max_rank=3, max_sweeps=25, seed=0)
    return SampleSet(pts, vals), cfg, basis, tpts, tvals


RUNS = {f"m6-cv/{alg}": (lambda alg=alg: _m6_cv(alg)) for alg in recovery.ALGORITHMS}
RUNS["criterion6-n100/r2als"] = _criterion_6_n100


def fingerprint(name: str) -> dict:
    samples, cfg, basis, tpts, tvals = RUNS[name]()
    calls = []
    with recording_cv(calls):
        report = recover(samples, cfg, basis)
    return {
        "rank_history": [list(r) for r in report.rank_history],
        "best_sweep": report.best_sweep,
        "aborted": report.aborted,
        "train_errors": report.train_errors,
        "val_errors": report.val_errors,
        "test_error": relative_error(report.predict(tpts), tvals),
        "lambda_index": [int(np.flatnonzero(cv.lambdas == cv.chosen)[0]) for cv in calls],
        "cv_margin": [_margin(cv) for cv in calls],
    }


@pytest.fixture(scope="module")
def reference():
    return json.loads(FINGERPRINTS_JSON.read_text())


@pytest.mark.parametrize("name", list(RUNS))
def test_fingerprint(reference, name):
    ref, got = reference[name], fingerprint(name)
    for key in ("rank_history", "best_sweep", "aborted"):
        assert got[key] == ref[key], key
    for key in ("train_errors", "val_errors", "test_error"):
        np.testing.assert_allclose(got[key], ref[key], rtol=ERROR_RTOL, atol=0, err_msg=key)
    assert len(got["lambda_index"]) == len(ref["lambda_index"])
    checked = [i for i, margin in enumerate(ref["cv_margin"]) if margin > MARGIN_MIN]
    assert ([(i, got["lambda_index"][i]) for i in checked]
            == [(i, ref["lambda_index"][i]) for i in checked])


def test_every_run_has_a_fingerprint(reference):
    assert sorted(reference) == sorted(RUNS)
