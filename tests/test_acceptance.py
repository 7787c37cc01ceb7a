"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Tolerances are fixed here and match the package contract.
"""
import time

import numpy as np
import pytest

from ttrec.bases import legendre_basis
from ttrec.recovery import (RecoveryConfig, SampleSet, recover,
                            relative_error)
from ttrec.sparse_solver import LassoProblem, kkt_residual, lasso_solve
from ttrec.tensor_core import (TensorTrain, left_orthogonalize,
                               tt_evaluate_batch, tt_svd, tt_to_dense)
from ttrec.variation import (local_variation_rank1, microstep_variation,
                             uniform_grid, variation_of_span,
                             variation_product, variation_sum)

from oracles import poisson_unit_square_qoi, prox_gradient_lasso, soft_threshold


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_tt_core_oracle_equivalence():
    """200 random dense tensors round-trip; Gram identities exact."""
    rng = np.random.default_rng(100)
    t0 = time.time()
    worst_rt = 0.0
    worst_gram = 0.0
    for i in range(200):
        order = 3 if i % 2 == 0 else 4
        dims = tuple(rng.integers(2, 7) for _ in range(order))
        t = rng.standard_normal(dims)
        tt = tt_svd(t)
        err = np.linalg.norm(tt_to_dense(tt) - t) / np.linalg.norm(t)
        worst_rt = max(worst_rt, err)
        lo = left_orthogonalize(tt)
        for c in lo.components[:-1]:
            mat = c.reshape(-1, c.shape[2])
            worst_gram = max(worst_gram, np.abs(mat.T @ mat - np.eye(mat.shape[1])).max())
    elapsed = time.time() - t0
    assert worst_rt <= 1e-10
    assert worst_gram <= 1e-12
    assert elapsed < 30.0
    report(f"criterion 1 PASS: round-trip {worst_rt:.2e} <= 1e-10, "
           f"orthogonality {worst_gram:.2e} <= 1e-12, runtime {elapsed:.1f}s < 30s")


def test_criterion_2_variation_calculus():
    """Degree-restricted Legendre spans on a 2001-point grid; calculus rules."""
    pts, q = uniform_grid(2001)
    for r in (4, 9, 16):
        k = int(np.floor(np.sqrt(r)))
        vg = variation_of_span(legendre_basis(k).evaluate(pts), pts, quad_weights=q)
        assert abs(vg.sup() - k**2) <= 1e-8
        assert vg.sup() <= r
    # product rule on a 2-mode grid and sum rule on a split span
    d = 3
    g1, g2 = np.meshgrid(pts[::10], pts[::10], indexing="ij")
    pts2 = np.column_stack([g1.ravel(), g2.ravel()])
    B = legendre_basis(d).evaluate(pts[::10])
    Ba = B[np.repeat(np.arange(len(B)), len(B))]
    Bb = B[np.tile(np.arange(len(B)), len(B))]
    prod = variation_product(variation_of_span(Ba, pts2), variation_of_span(Bb, pts2))
    direct = variation_of_span(np.einsum("ni,nj->nij", Ba, Bb).reshape(len(pts2), -1), pts2)
    prod_err = np.abs(prod.values - direct.values).max() / direct.values.max()
    B6 = legendre_basis(6).evaluate(pts)
    summed = variation_sum(variation_of_span(B6[:, :3], pts), variation_of_span(B6[:, 3:], pts))
    whole = variation_of_span(B6, pts)
    sum_err = np.abs(summed.values - whole.values).max() / whole.values.max()
    assert prod_err <= 1e-10 and sum_err <= 1e-10
    report(f"criterion 2 PASS: span sups exact to 1e-8 for r in (4,9,16); "
           f"product rule {prod_err:.2e}, sum rule {sum_err:.2e} <= 1e-10")


def test_criterion_3_local_variation_regimes():
    """Small/large-radius regimes and monotonicity of the rank-1 estimator."""
    t0 = time.time()
    details = []
    for d in (2, 4, 8, 16):
        small = local_variation_rank1(d, d, 1e-3, 41)
        big = local_variation_rank1(d, d, 1e3, 41)
        assert 1.0 <= small <= 2 * d * 1.05
        assert big >= 0.9 * d * d
        sweep = [local_variation_rank1(d, d, r, 41)
                 for r in np.geomspace(1e-3, 1e3, 20)]
        assert all(b >= a - 1e-9 * d * d for a, b in zip(sweep, sweep[1:]))
        details.append(f"d={d}: K(1e-3)={small:.2f}<=({2.1 * d:.1f}), K(1e3)={big:.1f}>={0.9 * d * d:.1f}")
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(f"criterion 3 PASS: {'; '.join(details)}; monotone sweeps; "
           f"runtime {elapsed:.1f}s < 120s")


def test_criterion_4_microstep_blowup():
    """The worst-case microstep multiplies the local variation sup-norm by
    exactly the univariate sup-norm (25 for Legendre d=5)."""
    d, M, m = 5, 4, 1
    basis = legendre_basis(d)
    grid = np.linspace(-1, 1, 2001)
    cloud = np.repeat(grid[:, None], M, axis=1)

    def direction_tt(direction):
        comps = []
        for k in range(M):
            c = np.zeros((1, d, 1))
            if k == m:
                c[0, :, 0] = direction / np.linalg.norm(direction)
            else:
                c[0, 0, 0] = 1.0
            comps.append(c)
        return TensorTrain(tuple(comps), lorth=M - 1, rorth=1)

    before = microstep_variation(direction_tt(np.eye(d)[0]), 0, basis, cloud).sup()
    # worst case: the component becomes the reproducing kernel of the
    # univariate span at its variation maximizer
    kernel = basis.evaluate(np.array([1.0]))[0]
    after = microstep_variation(direction_tt(kernel), 0, basis, cloud).sup()
    ratio = after / before
    assert abs(ratio - 25.0) <= 0.02 * 25.0
    assert abs(before - 25.0) <= 1e-8
    report(f"criterion 4 PASS: local variation sup ratio {ratio:.4f} = 25 within 2% "
           f"(before {before:.2f}, after {after:.1f})")


def test_criterion_5_lasso_correctness():
    """Soft-threshold identity, KKT residuals, proximal-gradient agreement."""
    rng = np.random.default_rng(200)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 12)))
    y = rng.standard_normal(40)
    omega = rng.uniform(0.5, 2.0, 12)
    lam = 0.7
    v = lasso_solve(LassoProblem(Q, y, omega, lam))
    st_err = np.abs(v - soft_threshold(Q.T @ y, lam * omega / 2.0)).max()
    assert st_err <= 1e-12
    worst_kkt = 0.0
    for _ in range(100):
        n, p = rng.integers(5, 40), rng.integers(2, 20)
        A = rng.standard_normal((n, p))
        yy = rng.standard_normal(n)
        om = rng.uniform(0.5, 3.0, p)
        l = 10.0 ** rng.uniform(-3, 1)
        prob = LassoProblem(A, yy, om, l)
        worst_kkt = max(worst_kkt, kkt_residual(prob, lasso_solve(prob)))
    assert worst_kkt <= 1e-8
    A = rng.standard_normal((5, 3))
    yy = rng.standard_normal(5)
    prob = LassoProblem(A, yy, np.ones(3), 0.1)
    prox_err = np.abs(lasso_solve(prob) - prox_gradient_lasso(A, yy, np.ones(3), 0.1)).max()
    assert prox_err <= 1e-6
    report(f"criterion 5 PASS: soft-threshold {st_err:.1e} <= 1e-12, "
           f"worst KKT {worst_kkt:.2e} <= 1e-8 on 100 problems, "
           f"prox-gradient agreement {prox_err:.1e} <= 1e-6")


def exp_type_rank1(basis, order, scale=1.0 / 3.0):
    x, w = basis.quadrature(200)
    c = basis.evaluate(x).T @ (w * np.exp(scale * x))
    return TensorTrain(tuple(c.reshape(1, basis.dimension, 1) for _ in range(order)))


def run_recovery(truth, basis, n, algorithm, seed):
    M = truth.order
    rng = np.random.default_rng([seed, n])
    pts = rng.uniform(-1, 1, (n, M))
    vals = tt_evaluate_batch(truth, [basis.evaluate(pts[:, m]) for m in range(M)])
    cfg = RecoveryConfig(algorithm=algorithm, max_rank=3, max_sweeps=25, seed=seed)
    rep = recover(SampleSet(pts, vals), cfg, basis)
    trng = np.random.default_rng([seed, n, 99])
    tpts = trng.uniform(-1, 1, (1000, M))
    tvals = tt_evaluate_batch(truth, [basis.evaluate(tpts[:, m]) for m in range(M)])
    return relative_error(rep.predict(tpts), tvals)


def test_criterion_6_in_class_recovery():
    """Rank-1 exp-type separable target, M=6, d=8: R2ALS high precision at
    n=300 and no worse than the ridge baseline at n=100 (medians)."""
    basis = legendre_basis(8)
    truth = exp_type_rank1(basis, 6)
    seeds = range(10)
    errs_300 = [run_recovery(truth, basis, 300, "r2als", s) for s in seeds]
    baseline_300 = [run_recovery(truth, basis, 300, "als_l2", s) for s in seeds]
    assert np.mean(errs_300) < 1e-3
    errs_100 = [run_recovery(truth, basis, 100, "r2als", s) for s in seeds]
    baseline_100 = [run_recovery(truth, basis, 100, "als_l2", s) for s in seeds]
    assert np.median(errs_100) <= np.median(baseline_100)
    report(f"criterion 6 PASS: n=300 R2ALS mean {np.mean(errs_300):.2e} < 1e-3 "
           f"(l2-ALS baseline mean {np.mean(baseline_300):.2e}); n=100 medians "
           f"R2ALS {np.median(errs_100):.2e} <= l2-ALS {np.median(baseline_100):.2e}")


def test_criterion_7_spectrum_experiment():
    """Weighted Gaussian spectra decay faster beyond index 25 at d=50."""
    from ttrec.uq_bench import spectrum_experiment
    res = spectrum_experiment(d=50, weight="legendre", realizations=100, seed=300)
    assert res["fraction_faster"] >= 0.9
    report(f"criterion 7 PASS: weighted tail mass smaller in "
           f"{res['fraction_faster']:.0%} of 100 realizations (>= 90%), "
           f"median ratio {np.median(res['tail_ratio']):.3f}")


def test_criterion_8_darcy_solver():
    """Manufactured convergence rate, Poisson QoI match, ellipticity."""
    from ttrec.uq_bench import DiffusionModel, qoi, solve_diffusion

    def f(X1, X2):
        return 2 * np.pi**2 * np.sin(np.pi * X1) * np.sin(np.pi * X2)

    errs = []
    for n in (16, 32, 64):
        field = solve_diffusion(np.ones((n + 1, n + 1)), None, n, f)
        nodes = np.linspace(0, 1, n + 1)
        X1, X2 = np.meshgrid(nodes, nodes, indexing="ij")
        errs.append(np.sqrt(((field - np.sin(np.pi * X1) * np.sin(np.pi * X2)) ** 2).mean()))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= r <= 2.2 for r in rates)
    q = qoi(solve_diffusion(DiffusionModel("affine"), np.zeros(20), 128), 128)
    q_err = abs(q - poisson_unit_square_qoi())
    assert q_err <= 1e-4
    model = DiffusionModel("affine")
    rng = np.random.default_rng(400)
    lowest = np.inf
    x = rng.uniform(0, 1, (1000, 2))
    for _ in range(100):  # 100 x 1000 = 1e5 random (x, y) draws
        y = rng.uniform(-1, 1, 20)
        lowest = min(lowest, float(model.coefficient(x[:, 0], x[:, 1], y).min()))
    assert lowest > 0
    report(f"criterion 8 PASS: FD rates {rates[0]:.2f}/{rates[1]:.2f} in [1.8,2.2], "
           f"Poisson QoI error {q_err:.1e} <= 1e-4 at n=128, "
           f"ellipticity min {lowest:.3f} > 0 over 1e5 draws")


def test_criterion_9_cli_determinism(tmp_path):
    """Identical manifests reproduce byte-identical outputs."""
    from ttrec.cli import main
    out = tmp_path / "out.csv"
    runs = [
        ["--timestamp", "2026-03-03T00:00:00Z", "variation",
         "--d", "2,4", "--r", "1e-2,1,1e2", "--grid", "21", "--out", str(out)],
        ["--timestamp", "2026-03-03T00:00:00Z", "spectrum",
         "--d", "8", "--realizations", "3", "--out", str(out)],
        ["--timestamp", "2026-03-03T00:00:00Z", "darcy-gen",
         "--model", "affine", "--n", "2", "--grid", "16", "--out", str(out)],
    ]
    for args in runs:
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
    report("criterion 9 PASS: repeated CLI runs with fixed manifests are "
           "byte-identical (variation, spectrum, darcy-gen)")
