"""Monte Carlo machinery: reweighted energy averages, state-density
histograms, power-law fits, and the Gaussian one-particle estimator."""
import numpy as np
import pytest

from sepmech import (LagrangeMultipliers, McEstimate, StateDensityEstimate,
                     cost_operator, estimate_state_density,
                     fit_energy_scaling, fit_power_law, h_matrix,
                     log_z1_quadrature, mc_energy_curve,
                     OmegaPrime, weighted_stats, werner_eigenensemble, z1_mc)

COP02 = cost_operator(werner_eigenensemble(0.2))
COP10 = cost_operator(werner_eigenensemble(1.0))


def test_weighted_stats_beta_zero_is_plain_mean(rng):
    e = rng.random(1000)
    mean, ess = weighted_stats(e, 0.0)
    assert abs(mean - e.mean()) < 1e-14
    assert abs(ess - 1000) < 1e-9


def test_weighted_stats_large_beta_approaches_minimum(rng):
    e = rng.random(500) + 0.2
    mean, _ = weighted_stats(e, 1e5)
    assert abs(mean - e.min()) < 1e-3


def test_weighted_mean_invariant_under_sample_duplication(rng):
    e = rng.random(400)
    m1, _ = weighted_stats(e, 3.0)
    m2, ess2 = weighted_stats(np.concatenate([e, e]), 3.0)
    assert abs(m1 - m2) < 1e-14
    _, ess1 = weighted_stats(e, 3.0)
    assert abs(ess2 - 2 * ess1) < 1e-8


def test_curve_is_deterministic_and_monotone():
    betas = np.logspace(0, 2, 7)
    a = mc_energy_curve(COP02, 16, betas, 4000, seed=5)
    b = mc_energy_curve(COP02, 16, betas, 4000, seed=5)
    for x, y in zip(a, b):
        assert x == y
    means = [est.mean_energy for est in a]
    assert all(m1 >= m2 - 1e-15 for m1, m2 in zip(means, means[1:]))
    assert len({est.min_energy_seen for est in a}) == 1


def test_curve_estimates_are_labelled(rng):
    est = mc_energy_curve(COP02, 16, [2.0], 3000, seed=1)[0]
    assert isinstance(est, McEstimate)
    assert est.beta == 2.0 and est.samples == 3000
    assert est.std_error > 0
    assert 1.0 <= est.effective_sample_size <= 3000
    assert est.min_energy_seen <= est.mean_energy


def test_curve_input_validation():
    with pytest.raises(ValueError):
        mc_energy_curve(COP02, 2, [1.0], 100, seed=0)
    with pytest.raises(ValueError):
        mc_energy_curve(COP02, 16, [-1.0], 100, seed=0)
    with pytest.raises(ValueError):
        mc_energy_curve(COP02, 16, [1.0], 0, seed=0)


def test_jackknife_error_shrinks_with_samples():
    e1 = mc_energy_curve(COP02, 16, [5.0], 2000, seed=3)[0]
    e2 = mc_energy_curve(COP02, 16, [5.0], 32000, seed=3)[0]
    assert e2.std_error < e1.std_error


def test_jackknife_error_is_inf_when_one_block_holds_all_weight():
    # at beta = 1e7 only the lowest-energy draw keeps any weight; removing
    # its block leaves none, so the error is undefined, not NaN
    est = mc_energy_curve(cost_operator(werner_eigenensemble(0.2)), 16, [1e7],
                          20000, seed=0)[0]
    assert est.std_error == np.inf
    assert est.effective_sample_size == 1.0
    assert est.mean_energy == est.min_energy_seen


def test_density_histogram_conserves_mass_and_positivity():
    hist = estimate_state_density(COP02, 16, 20000, 32, seed=2)
    assert hist.total_samples == 20000
    assert abs(hist.counts.sum() - 1.0) < 1e-12
    assert np.all(np.diff(hist.bin_edges) > 0)
    assert hist.bin_edges[0] > 0  # entangled state: sampled gap


def test_density_histogram_separable_state_piles_up_low():
    hist = estimate_state_density(COP10, 16, 20000, 32, seed=2)
    centers = 0.5 * (hist.bin_edges[1:] + hist.bin_edges[:-1])
    med = np.median(np.repeat(centers, (hist.counts * 20000).astype(int)))
    # mass sits at energies well below the entangled state's gap
    assert med < 0.02
    assert hist.bin_edges[0] < 0.01


def test_fit_power_law_recovers_synthetic_exponents(rng):
    for delta in (2.0, 0.5):
        # inverse-CDF sampling of rho(e) = (delta+1) e^delta on [0, 1]
        e = rng.random(400000) ** (1.0 / (delta + 1.0))
        edges = np.linspace(0, 1, 41)
        counts, edges = np.histogram(e, bins=edges)
        hist = StateDensityEstimate(bin_edges=edges, counts=counts / e.size,
                                    total_samples=e.size)
        fit = fit_power_law(hist, (0.05, 0.9))
        assert abs(fit.delta - delta) < 0.05
        assert fit.r_squared > 0.99


def test_fit_power_law_needs_enough_bins():
    hist = estimate_state_density(COP02, 16, 5000, 24, seed=9)
    with pytest.raises(ValueError):
        fit_power_law(hist, (1e9, 2e9))


def test_fit_energy_scaling_exact_inverse_law():
    betas = np.logspace(1, 4, 12)
    fit = fit_energy_scaling([(b, 2.75 / b) for b in betas])
    assert abs(fit.slope + 1.0) < 1e-9
    assert abs(fit.delta - 1.75) < 1e-9
    assert abs(fit.amplitude - 2.75) < 1e-9
    assert fit.r_squared > 1 - 1e-12


def test_fit_energy_scaling_flat_curve_has_zero_slope():
    fit = fit_energy_scaling([(b, 0.37) for b in (1.0, 10.0, 100.0)])
    assert abs(fit.slope) < 1e-12


def test_fit_energy_scaling_validation():
    with pytest.raises(ValueError):
        fit_energy_scaling([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ValueError):
        fit_energy_scaling([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])


def test_z1_gaussian_limit_matches_closed_form():
    omega = np.diag([1.0, 2.0, 3.0, 4.0])
    lm = LagrangeMultipliers(omega)
    z1, cav, me = z1_mc(COP02, 0.0, lm, 20000, seed=7)
    exact = np.pi**4 * np.exp(np.trace(omega)) / np.linalg.det(omega)
    assert abs(z1 - exact) / exact < 1e-12  # beta=0 weight is exactly 1
    assert me >= 0


def test_z1_constraint_average_at_beta_zero(rng):
    # second moments of the sampling Gaussian: <zbar_a z_b> = (omega^-1)_ab
    # for the real symmetric multipliers used here
    omega = np.diag([0.7, 1.3, 2.1, 3.4])
    lm = LagrangeMultipliers(omega)
    samples = 200000
    _, cav, _ = z1_mc(COP02, 0.0, lm, samples, seed=11)
    inv = np.linalg.inv(omega)
    # diagonal entries of the sample covariance have SE = value/sqrt(S)
    for a in range(4):
        se = inv[a, a] / np.sqrt(samples)
        assert abs(cav[a, a].real - inv[a, a]) < 3 * se
    off = np.max(np.abs(cav - np.diag(np.diag(cav))))
    assert off < 5.0 / np.sqrt(samples)


def test_z1_identity_multiplier_constraints():
    lm = LagrangeMultipliers(np.eye(4))
    _, cav, _ = z1_mc(COP02, 0.0, lm, 150000, seed=13)
    assert np.max(np.abs(cav - np.eye(4))) < 5.0 / np.sqrt(150000)


def test_z1_validation():
    with pytest.raises(ValueError):
        z1_mc(COP02, 1.0, LagrangeMultipliers(np.diag([1.0, -1.0, 1.0, 1.0])),
              100, seed=0)
    with pytest.raises(ValueError):
        z1_mc(COP02, 1.0, LagrangeMultipliers(np.eye(3)), 100, seed=0)


def test_z1_matches_quadrature_at_werner_point():
    # Gaussian-importance estimate against the deterministic reduced integral
    # at beta=1, gamma=lambda=2, p=0.9; the canonical inverse temperature of
    # the sampler is 32x the reduced-formula beta
    p, beta, g = 0.9, 1.0, 2.0
    cop = cost_operator(werner_eigenensemble(p))
    hs = np.sqrt(h_matrix(p).real)
    lm = LagrangeMultipliers(hs @ np.diag([g, g, g, g]) @ hs)
    ref = np.exp(log_z1_quadrature(beta, OmegaPrime(g, g), p))
    vals = [z1_mc(cop, 32.0 * beta, lm, 100000, seed=s)[0] for s in range(8)]
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - ref) < 3 * se
