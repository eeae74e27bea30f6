"""Acceptance gate: one test per headline claim, each printing a PASS/FAIL
line with the measured numbers.

Criterion 02 asserts both the 1/beta slope and the delta band derived from
the fitted amplitude.  The analytic channel pins the amplitude near 1 (see
the scaling notes in the README), so the delta band is expected to fail;
the test states the measured value rather than masking it.
"""
import time

import numpy as np
import pytest

from oracles import concurrence_sq_skew, cost_tensor, det_m, tensor_energy
from sepmech import (DensityMatrix, LagrangeMultipliers, OmegaPrime,
                     PureState, concurrence_sq, constraint_residual,
                     cost_operator, eigen_ensemble, energy,
                     energy_closed_form, ensemble_from_stiefel,
                     equipartition_scan, fit_energy_scaling, grad_log_z1,
                     h_matrix, haar_stiefel, haar_unitary, log_z1_quadrature,
                     mc_energy_curve, ppt_is_entangled, saddle_search,
                     avg_energy_werner, werner_eigenensemble, werner_state,
                     z1_mc)
from sepmech.concurrence import skew_basis

THRESHOLD = 1e-6


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _random_density(rng, m, n):
    d = m * n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return DensityMatrix(m, n, g @ g.conj().T / np.trace(g @ g.conj().T).real)


def test_criterion_01_region_onset_at_beta_10(capsys):
    t0 = time.perf_counter()
    grid = np.round(np.arange(0.50, 1.0001, 0.01), 12)
    scan = equipartition_scan(grid, 10.0, THRESHOLD)
    elapsed = time.perf_counter() - t0
    onset = scan.region_start
    low = [r for p, r in zip(scan.p_grid, scan.residuals) if p <= 0.80 + 1e-12]
    ok = (onset is not None and abs(onset - 0.89) <= 0.02 + 1e-12
          and all(r > 10 * THRESHOLD for r in low) and elapsed < 300)
    report(capsys, "criterion 01 equipartition onset", ok,
           f"onset={onset} min_residual(p<=0.80)={min(low):.3e} "
           f"elapsed={elapsed:.1f}s")
    assert onset is not None and abs(onset - 0.89) <= 0.02 + 1e-12
    assert all(r > 10 * THRESHOLD for r in low)
    assert elapsed < 300


def test_criterion_02_energy_scaling_slope_and_delta(capsys):
    t0 = time.perf_counter()
    betas = np.logspace(1, 4, 12)
    pts = [(b, avg_energy_werner(b, 0.90))
           for k, b in enumerate(betas)]
    fit = fit_energy_scaling(pts)
    elapsed = time.perf_counter() - t0
    ok_slope = abs(fit.slope + 1.0) <= 0.05
    ok_delta = abs(fit.delta - 1.75) <= 0.25
    ok = ok_slope and ok_delta and elapsed < 120
    report(capsys, "criterion 02 scaling fit at p=0.90", ok,
           f"slope={fit.slope:.6f} (want -1.00+-0.05) "
           f"delta={fit.delta:.6f} (want 1.75+-0.25) "
           f"r2={fit.r_squared:.7f} elapsed={elapsed:.1f}s")
    assert elapsed < 120
    assert ok_slope, f"slope {fit.slope} outside -1.00 +- 0.05"
    assert ok_delta, (
        f"delta {fit.delta:.4f} outside 1.75 +- 0.25: the analytic channel "
        f"pins beta*energy near 1, so amplitude-1 sits near 0 by construction")


def test_criterion_03_onset_stable_in_beta(capsys):
    grid = np.round(np.arange(0.80, 1.0001, 0.01), 12)
    onsets = {}
    for beta in (10.0, 100.0, 1e6):
        onsets[beta] = equipartition_scan(grid, beta, THRESHOLD).region_start
    ok = all(o is not None and abs(o - onsets[10.0]) <= 0.01 + 1e-12
             for o in onsets.values())
    report(capsys, "criterion 03 onset beta-robustness", ok,
           f"onsets={{beta: {onsets}}}")
    assert ok


def test_criterion_04_ppt_oracle_on_werner_grid(capsys):
    bad = []
    for p in np.round(np.arange(0.0, 1.0001, 0.05), 12):
        if abs(p - 2.0 / 3.0) < 1e-9:
            continue
        if ppt_is_entangled(werner_state(p)) != (p < 2.0 / 3.0):
            bad.append(p)
    report(capsys, "criterion 04 PPT exactness", not bad, f"mismatches={bad}")
    assert not bad


def test_criterion_05_cross_form_energy_equivalence(capsys):
    rng = np.random.default_rng(501)
    worst = 0.0
    checks = 0
    for k in range(10):
        p = rng.uniform(0.05, 1.0)
        ens = werner_eigenensemble(p)
        cop, tensor = cost_operator(ens), cost_tensor(ens)
        for _ in range(5):
            z = haar_stiefel(6, 4, rng)
            e1 = tensor_energy(z, tensor)
            e2 = energy(z, cop)
            e3 = sum(concurrence_sq(v)
                     for v in ensemble_from_stiefel(z, ens).vectors)
            e4 = sum(energy_closed_form(row, p) for row in z.z)
            scale = max(abs(e1), 1e-30)
            worst = max(worst, abs(e2 - e1) / scale, abs(e3 - e1) / scale,
                        abs(e4 - e1) / scale)
            checks += 1
    for k in range(10):
        ens = eigen_ensemble(_random_density(rng, 2, 3))
        cop, tensor = cost_operator(ens), cost_tensor(ens)
        for _ in range(5):
            z = haar_stiefel(ens.rank + 3, ens.rank, rng)
            e1 = tensor_energy(z, tensor)
            e2 = energy(z, cop)
            e3 = sum(concurrence_sq(v)
                     for v in ensemble_from_stiefel(z, ens).vectors)
            scale = max(abs(e1), 1e-30)
            worst = max(worst, abs(e2 - e1) / scale, abs(e3 - e1) / scale)
            checks += 1
    ok = worst < 1e-10 and checks == 100
    report(capsys, "criterion 05 cross-form energy equivalence", ok,
           f"stiefel_points={checks} worst_rel_dev={worst:.3e}")
    assert checks == 100 and worst < 1e-10


def test_criterion_06_determinant_reduction(capsys):
    rng = np.random.default_rng(601)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(0.05, 1.0)
        s = rng.standard_normal() + 1j * rng.standard_normal()
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        omega = g @ g.conj().T + 0.3 * np.eye(4)
        h = h_matrix(p)
        hs_inv = np.diag(1.0 / np.sqrt(np.diag(h).real))
        wp = hs_inv @ omega @ hs_inv
        factored = np.linalg.det(h).real ** 2 * np.linalg.det(
            4 * abs(s) ** 2 * np.eye(4) + wp @ wp.conj())
        direct = det_m(s, omega, p)
        worst = max(worst, abs(direct - factored) / abs(factored))
    ok = worst < 1e-10
    report(capsys, "criterion 06 determinant reduction", ok,
           f"100 random (s, omega, p), worst_rel_dev={worst:.3e}")
    assert ok


def test_criterion_07_gradient_and_energy_derivatives(capsys):
    rng = np.random.default_rng(701)
    worst_grad = 0.0
    for _ in range(50):
        beta = 10 ** rng.uniform(-1, 2)
        g = 10 ** rng.uniform(-0.7, 1.2)
        lam = 10 ** rng.uniform(-0.7, 1.2)
        p = rng.uniform(0.3, 1.0)
        rg, rl = grad_log_z1(beta, OmegaPrime(g, lam), p)
        hg = max(1e-6, 1e-6 * g)
        hl = max(1e-6, 1e-6 * lam)
        fdg = (log_z1_quadrature(beta, OmegaPrime(g + hg, lam), p)
               - log_z1_quadrature(beta, OmegaPrime(g - hg, lam), p)) / (2 * hg)
        fdl = (log_z1_quadrature(beta, OmegaPrime(g, lam + hl), p)
               - log_z1_quadrature(beta, OmegaPrime(g, lam - hl), p)) / (2 * hl)
        worst_grad = max(worst_grad,
                         abs(rg - fdg) / max(abs(fdg), 1e-8),
                         abs(3 * rl - fdl) / max(abs(fdl), 1e-8))
    worst_energy = 0.0
    for _ in range(20):
        beta = 10 ** rng.uniform(0.7, 3)
        p = rng.uniform(0.90, 1.0)
        got = avg_energy_werner(beta, p)
        sad = saddle_search(beta, p)
        op = OmegaPrime(sad.gamma_star, sad.lambda_star)
        hb = beta * 1e-5
        fd = -(log_z1_quadrature(beta + hb, op, p)
               - log_z1_quadrature(beta - hb, op, p)) / (2 * hb)
        worst_energy = max(worst_energy, abs(got - fd) / abs(fd))
    ok = worst_grad < 1e-6 and worst_energy < 1e-6
    report(capsys, "criterion 07 derivative checks", ok,
           f"grad_worst_rel={worst_grad:.3e} (50 pts) "
           f"energy_worst_rel={worst_energy:.3e} (20 pts)")
    assert worst_grad < 1e-6
    assert worst_energy < 1e-6


def test_criterion_08_gaussian_limits(capsys):
    dev_quad = 0.0
    for p in (0.5, 0.9):
        h = np.diag(h_matrix(p)).real
        for g, lam in ((3.0, 4.0), (4.0, 3.0), (5.0, 5.0)):
            got = log_z1_quadrature(1e-6, OmegaPrime(g, lam), p)
            tr_omega = g * h[0] + 3 * lam * h[1]
            det_omega = np.prod(h) * g * lam ** 3
            want = 4 * np.log(np.pi) + tr_omega - np.log(det_omega)
            dev_quad = max(dev_quad, abs(got - want))

    omega = np.diag([0.8, 1.6, 2.4, 3.2])
    lm = LagrangeMultipliers(omega)
    cop = cost_operator(werner_eigenensemble(0.9))
    samples = 200000
    z1, cav, _ = z1_mc(cop, 0.0, lm, samples, seed=801)
    exact = np.pi ** 4 * np.exp(np.trace(omega)) / np.linalg.det(omega)
    dev_z1 = abs(z1 - exact) / exact  # beta=0 weights are exactly 1
    inv = np.linalg.inv(omega)
    pulls = []
    for a in range(4):
        for b in range(4):
            se = 3 * np.sqrt(inv[a, a] * inv[b, b] / samples)
            pulls.append(abs(cav[a, b] - inv[a, b]) / se)
    ok = dev_quad < 1e-4 and dev_z1 < 1e-10 and max(pulls) < 1.0
    report(capsys, "criterion 08 gaussian limits", ok,
           f"quad_logdev={dev_quad:.2e} z1_reldev={dev_z1:.2e} "
           f"constraint_max_pull={max(pulls):.2f} (of 3SE)")
    assert dev_quad < 1e-4
    assert dev_z1 < 1e-10
    assert max(pulls) < 1.0


def test_criterion_09_conjecture_property_suite(capsys):
    t0 = time.perf_counter()
    betas = np.logspace(0, 3, 13)
    ent = mc_energy_curve(cost_operator(werner_eigenensemble(0.2)), 16,
                          betas, 100000, seed=0)
    min_ent = ent[0].min_energy_seen
    ratio = ent[-1].mean_energy / ent[0].mean_energy
    sep = mc_energy_curve(cost_operator(werner_eigenensemble(1.0)), 4,
                          betas, 100000, seed=0)
    means = [est.mean_energy for est in sep]
    decreasing = all(a >= b for a, b in zip(means, means[1:]))
    fit = fit_energy_scaling([(est.beta, est.mean_energy) for est in sep[-5:]])
    elapsed = time.perf_counter() - t0
    ok = (min_ent > 0 and ratio > 0.5 and decreasing
          and -1.3 <= fit.slope <= -0.7 and elapsed < 600)
    report(capsys, "criterion 09 conjecture suite", ok,
           f"W(0.2): min_energy={min_ent:.4f} E(1e3)/E(1)={ratio:.3f}; "
           f"W(1.0): top-decade slope={fit.slope:.3f} (want [-1.3,-0.7]) "
           f"elapsed={elapsed:.1f}s")
    assert min_ent > 0
    assert ratio > 0.5, "entangled-state energy should not trend to zero"
    assert decreasing
    assert -1.3 <= fit.slope <= -0.7
    assert elapsed < 600


def test_criterion_10_invariant_suites(capsys):
    rng = np.random.default_rng(1001)
    dev_stiefel = 0.0
    for _ in range(50):
        r = int(rng.integers(1, 5))
        N = int(rng.integers(r, 20))
        res = constraint_residual(haar_stiefel(N, r, rng))
        dev_stiefel = max(dev_stiefel, np.max(np.abs(res)))
    dev_recon = 0.0
    for _ in range(20):
        rho = _random_density(rng, 2, 2)
        ens = eigen_ensemble(rho)
        z = haar_stiefel(9, ens.rank, rng)
        rec = ensemble_from_stiefel(z, ens).reconstruct()
        dev_recon = max(dev_recon, np.max(np.abs(rec - rho.mat)))
    dev_lu, dev_hom, dev_skew = 0.0, 0.0, 0.0
    for m, n in ((2, 2), (2, 3), (3, 3)):
        basis_a, basis_b = skew_basis(m), skew_basis(n)
        for _ in range(20):
            v = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
            psi = PureState(m, n, v)
            c = concurrence_sq(psi)
            ua, ub = haar_unitary(m, rng), haar_unitary(n, rng)
            rot = PureState(m, n, np.kron(ua, ub) @ v)
            dev_lu = max(dev_lu, abs(concurrence_sq(rot) - c))
            t = rng.uniform(0.3, 2.0)
            dev_hom = max(dev_hom,
                          abs(concurrence_sq(PureState(m, n, t * v))
                              - t ** 4 * c) / max(t ** 4 * c, 1e-30))
            dev_skew = max(dev_skew,
                           abs(concurrence_sq_skew(psi, basis_a, basis_b) - c))
    dev_lu_energy = 0.0
    for _ in range(10):
        rho = _random_density(rng, 2, 2)
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rot = DensityMatrix(2, 2, u @ rho.mat @ u.conj().T)
        ens, ens_rot = eigen_ensemble(rho), eigen_ensemble(rot)
        W = np.linalg.solve(ens_rot.matrix().T, u @ ens.matrix().T)
        z = haar_stiefel(7, ens.rank, rng).z
        e1 = energy(z, cost_operator(ens))
        e2 = energy(z @ W.T, cost_operator(ens_rot))
        dev_lu_energy = max(dev_lu_energy, abs(e2 - e1) / max(e1, 1e-30))
    ok = (dev_stiefel < 1e-12 and dev_recon < 1e-10 and dev_lu < 1e-10
          and dev_hom < 1e-10 and dev_skew < 1e-10 and dev_lu_energy < 1e-10)
    report(capsys, "criterion 10 invariant suites", ok,
           f"stiefel={dev_stiefel:.1e} recon={dev_recon:.1e} "
           f"lu_c2={dev_lu:.1e} homog={dev_hom:.1e} skew={dev_skew:.1e} "
           f"lu_energy={dev_lu_energy:.1e}")
    assert ok
