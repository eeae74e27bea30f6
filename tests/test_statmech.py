"""Monte Carlo machinery: reweighted energy averages, state-density
histograms, the 1/beta fit, and the Gaussian one-particle estimator."""
import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from oracles import (ENERGY_ROUNDING, batch_energies_serial, h_matrix, haar_mean_energy,
                     jackknife_error, weighted_stats)

from sepmech import ensembles, statmech
from sepmech import (LagrangeMultipliers, McEstimate, cost_operator, energy,
                     estimate_state_density,
                     fit_energy_scaling, log_z1_quadrature, mc_energy_curve,
                     OmegaPrime, eigen_ensemble, sample_energies,
                     werner_eigenensemble, werner_state, z1_mc)

COP02 = cost_operator(werner_eigenensemble(0.2))
COP10 = cost_operator(werner_eigenensemble(1.0))


def test_weighted_stats_beta_zero_is_plain_mean(rng):
    e = rng.random(1000)
    est = mc_energy_curve(e, [0.0])[0]
    assert abs(est.mean_energy - e.mean()) < 1e-14
    assert abs(est.effective_sample_size - 1000) < 1e-9


def test_weighted_stats_large_beta_approaches_minimum(rng):
    e = rng.random(500) + 0.2
    assert abs(mc_energy_curve(e, [1e5])[0].mean_energy - e.min()) < 1e-3


def test_weighted_mean_invariant_under_sample_duplication(rng):
    e = rng.random(400)
    one = mc_energy_curve(e, [3.0])[0]
    two = mc_energy_curve(np.concatenate([e, e]), [3.0])[0]
    assert abs(one.mean_energy - two.mean_energy) < 1e-14
    assert abs(two.effective_sample_size - 2 * one.effective_sample_size) < 1e-8


@pytest.mark.parametrize("samples", [1, 20, 1000, 10007])
def test_curve_matches_the_separate_weight_formulas(samples):
    # one weight vector per beta, shared by the mean, the ESS and the
    # jackknife, gives the same bits as forming it for each of them;
    # beta = 1e7 leaves one block with all the weight (error inf)
    e = sample_energies(COP02, 16, samples, seed=samples)
    betas = [0.0, 1.0, 10.0, 100.0, 1e7]
    for est in mc_energy_curve(e, betas):
        mean, ess = weighted_stats(e, est.beta)
        err = jackknife_error(e, est.beta, min(statmech.JACKKNIFE_BLOCKS, samples))
        assert (est.mean_energy, est.effective_sample_size, est.std_error) == (mean, ess, err)
        assert est.min_energy_seen == e.min()


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def workers(request, monkeypatch):
    """Force the sampler's pool size through the CPU count it reads."""
    monkeypatch.setattr(statmech, "_cpu_count", lambda: request.param)
    return request.param


def serial(cop, N, samples, seed):
    """The sampler's slices and child seeds run one after another on this
    thread, each drawn by the library's own _stiefel_batch."""
    return batch_energies_serial(cop, N, samples, seed, statmech._sub_blocks(N, cop.r, samples),
                                 draw=ensembles._stiefel_batch)


def assert_near_householder(got, cop, N, samples, seed):
    """got agrees with the serial run on the Householder draw to rounding."""
    want = batch_energies_serial(cop, N, samples, seed, statmech._sub_blocks(N, cop.r, samples))
    assert np.max(np.abs(got - want) / want) <= ENERGY_ROUNDING


@pytest.mark.parametrize("state, N, samples", [
    ("2x2", 16, 8209),                  # 15 sub-blocks of 576, the last of 145 matrices
    ("3x3", 81, 3017),                  # 61 sub-blocks of 50, the last of 17 matrices
    ("2x2", 5, 3000),                   # N r does not divide _QR_ENTRIES: 2 sub-blocks, the last of 1157
    ("2x2", 4, 3000),                   # N = r: 2 sub-blocks, the last of 696
    ("2x2", 16, 1),
])
def test_sampler_is_bit_identical_to_the_serial_oracle(workers, random_density,
                                                       state, N, samples):
    if state == "3x3":
        cop = cost_operator(eigen_ensemble(random_density(np.random.default_rng(81), 3, 3)))
    else:
        cop = COP02
    baseline = threading.active_count()
    got = sample_energies(cop, N, samples, seed=samples)
    assert threading.active_count() == baseline
    assert np.array_equal(got, serial(cop, N, samples, samples))
    assert_near_householder(got, cop, N, samples, samples)


def test_sampler_is_bit_identical_with_more_workers_than_cores(monkeypatch):
    # eight workers and a tiny switch interval: a lost, doubled or misplaced
    # write of any task would change the bits
    monkeypatch.setattr(statmech, "_cpu_count", lambda: 8)
    samples = 16389  # 29 sub-blocks, the last of 261 matrices
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sample_energies(COP02, 16, samples, seed=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, serial(COP02, 16, samples, 8))
    assert_near_householder(got, COP02, 16, samples, 8)


def test_the_pool_runs_the_energies_off_the_calling_thread(workers, monkeypatch):
    seen = set()

    def spy(z, cop):
        seen.add(threading.get_ident())
        return energy(z, cop)

    monkeypatch.setattr(statmech, "energy", spy)
    sample_energies(COP02, 16, 3000, seed=1)
    assert seen and threading.get_ident() not in seen and len(seen) <= workers


def test_the_pool_draws_off_the_calling_thread(workers, monkeypatch):
    seen = []
    draw = statmech._stiefel_batch

    def spy(N, r, count, rng):
        seen.append((threading.get_ident(), count))
        return draw(N, r, count, rng)

    monkeypatch.setattr(statmech, "_stiefel_batch", spy)
    sample_energies(COP02, 16, 3000, seed=1)
    assert threading.get_ident() not in {t for t, _ in seen}
    assert sorted(c for _, c in seen) == sorted(b.stop - b.start
                                               for b in statmech._sub_blocks(16, 4, 3000))


def test_the_same_seed_sequence_twice_gives_the_same_samples():
    # spawning the child streams must not advance a SeedSequence passed in
    ss = np.random.SeedSequence(7)
    first = sample_energies(COP02, 16, 3000, ss)
    assert ss.n_children_spawned == 0
    assert np.array_equal(sample_energies(COP02, 16, 3000, ss), first)


def test_an_int_seed_and_its_seed_sequence_give_the_same_samples():
    assert np.array_equal(sample_energies(COP02, 16, 3000, 7),
                          sample_energies(COP02, 16, 3000, np.random.SeedSequence(7)))


@pytest.mark.parametrize("module, names", [
    pytest.param(statmech, ("energy",), id="sepmech.statmech-energy"),
    # both QR kernels, so the one the shape picks raises; an id that differs
    # from the energy case's early, so the two cases' names stay distinct
    # when a report shortens them
    pytest.param(ensembles, ("_phase_fixed_q", "_batch_last_q"), id="ensembles._phase_fixed_q"),
])
def test_worker_exception_surfaces_and_the_pool_is_gone(workers, monkeypatch, module, names):
    class Boom(RuntimeError):
        pass

    def boom(*args):
        raise Boom(names[0])

    before = sample_energies(COP02, 16, 3000, seed=4)
    baseline = threading.active_count()
    with monkeypatch.context() as patch:
        for name in names:
            patch.setattr(module, name, boom)
        with pytest.raises(Boom, match=names[0]):
            sample_energies(COP02, 16, 8209, seed=4)
    assert threading.active_count() == baseline
    got = sample_energies(COP02, 16, 3000, seed=4)
    assert threading.active_count() == baseline
    assert np.array_equal(got, before)


def test_only_the_3x3_draw_reaches_lapack(random_density, monkeypatch):
    # the 2x2 sampler's sub-blocks of 16 x 4 matrices are factored batch-last,
    # without per-matrix LAPACK calls, and 3x3's 81 x 9 ones by LAPACK
    class LinalgCalled(RuntimeError):
        pass

    def refuse(*args, **kwargs):
        raise LinalgCalled

    cop3 = cost_operator(eigen_ensemble(random_density(np.random.default_rng(81), 3, 3)))
    want = sample_energies(COP02, 16, 3000, seed=6)
    with monkeypatch.context() as patch:
        for name in np.linalg.__all__:
            if name != "LinAlgError":
                patch.setattr(np.linalg, name, refuse)
        assert np.array_equal(sample_energies(COP02, 16, 3000, seed=6), want)
        with pytest.raises(LinalgCalled):
            sample_energies(cop3, 81, 100, seed=6)


@pytest.mark.parametrize("state, N, samples", [
    ("W(0.2)", 16, 40000),
    ("W(0.9)", 16, 40000),
    ("2x3-rank-3", 36, 20000),
    ("3x3", 81, 5000),
])
def test_sample_mean_is_the_exact_haar_mean(random_density, state, N, samples):
    # the beta = 0 mean over Haar draws has a closed form in the purities of
    # rho and its reductions; a draw that is not Haar-uniform on V_{N,r}
    # would move the sample mean away from it
    rho = {"W(0.2)": lambda: werner_state(0.2),
           "W(0.9)": lambda: werner_state(0.9),
           "2x3-rank-3": lambda: random_density(np.random.default_rng(23), 2, 3, rank=3),
           "3x3": lambda: random_density(np.random.default_rng(33), 3, 3)}[state]()
    e = sample_energies(cost_operator(eigen_ensemble(rho)), N, samples, seed=12)
    se = e.std(ddof=1) / np.sqrt(samples)
    assert abs(e.mean() - haar_mean_energy(rho, N)) <= 4 * se


def test_curve_is_deterministic_and_monotone():
    betas = np.logspace(0, 2, 7)
    a = mc_energy_curve(sample_energies(COP02, 16, 4000, seed=5), betas)
    b = mc_energy_curve(sample_energies(COP02, 16, 4000, seed=5), betas)
    for x, y in zip(a, b):
        assert x == y
    means = [est.mean_energy for est in a]
    assert all(m1 >= m2 - 1e-15 for m1, m2 in zip(means, means[1:]))
    assert len({est.min_energy_seen for est in a}) == 1


def test_curve_estimates_are_labelled(rng):
    est = mc_energy_curve(sample_energies(COP02, 16, 3000, seed=1), [2.0])[0]
    assert isinstance(est, McEstimate)
    assert est.beta == 2.0
    assert est.std_error > 0
    assert 1.0 <= est.effective_sample_size <= 3000
    assert est.min_energy_seen <= est.mean_energy


def test_curve_input_validation():
    with pytest.raises(ValueError):
        sample_energies(COP02, 2, 100, seed=0)
    with pytest.raises(ValueError):
        mc_energy_curve(sample_energies(COP02, 16, 100, seed=0), [-1.0])
    with pytest.raises(ValueError):
        sample_energies(COP02, 16, 0, seed=0)


def test_jackknife_error_shrinks_with_samples():
    e1 = mc_energy_curve(sample_energies(COP02, 16, 2000, seed=3), [5.0])[0]
    e2 = mc_energy_curve(sample_energies(COP02, 16, 32000, seed=3), [5.0])[0]
    assert e2.std_error < e1.std_error


@pytest.mark.parametrize("samples", [2, 5, 31])
def test_jackknife_error_below_the_block_count_is_the_standard_error(samples):
    # fewer samples than JACKKNIFE_BLOCKS: one sample per block, none empty,
    # and the delete-one jackknife of the plain mean is s / sqrt(n) exactly
    e = sample_energies(COP02, 16, samples, seed=samples)
    est = mc_energy_curve(e, [0.0])[0]
    want = e.std(ddof=1) / np.sqrt(samples)
    assert abs(est.std_error - want) <= 1e-12 * want


def test_jackknife_error_is_inf_when_one_block_holds_all_weight():
    # at beta = 1e7 only the lowest-energy draw keeps any weight; removing
    # its block leaves none, so the error is undefined, not NaN
    e = sample_energies(cost_operator(werner_eigenensemble(0.2)), 16, 20000, seed=0)
    est = mc_energy_curve(e, [1e7])[0]
    assert est.std_error == np.inf
    assert est.effective_sample_size == 1.0
    assert est.mean_energy == est.min_energy_seen


def test_density_histogram_conserves_mass_and_positivity():
    hist = estimate_state_density(sample_energies(COP02, 16, 20000, seed=2), 32)
    assert abs(hist.counts.sum() - 1.0) < 1e-12
    assert np.all(np.diff(hist.bin_edges) > 0)
    assert hist.bin_edges[0] > 0  # entangled state: sampled gap


def test_density_histogram_separable_state_piles_up_low():
    hist = estimate_state_density(sample_energies(COP10, 16, 20000, seed=2), 32)
    centers = 0.5 * (hist.bin_edges[1:] + hist.bin_edges[:-1])
    med = np.median(np.repeat(centers, (hist.counts * 20000).astype(int)))
    # mass sits at energies well below the entangled state's gap
    assert med < 0.02
    assert hist.bin_edges[0] < 0.01


@pytest.mark.parametrize("value", [0.5, 1e300, -0.3, 5e-324])
def test_density_histogram_of_a_constant_sample_has_increasing_edges(value):
    # lo + 1e-300 rounds back to lo away from 0, which left zero-width bins
    hist = estimate_state_density([value] * 5, 4)
    assert hist.bin_edges[0] == value
    assert np.all(np.diff(hist.bin_edges) > 0)
    assert hist.counts.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_density_histogram_of_zero_energies_keeps_its_edges():
    hist = estimate_state_density([0.0] * 5, 4)
    assert np.array_equal(hist.bin_edges, np.linspace(0.0, 1e-300, 5))
    assert hist.counts.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_fit_energy_scaling_exact_inverse_law():
    betas = np.logspace(1, 4, 12)
    fit = fit_energy_scaling([(b, 2.75 / b) for b in betas])
    assert abs(fit.slope + 1.0) < 1e-9
    assert abs(fit.delta - 1.75) < 1e-9
    assert abs(fit.amplitude - 2.75) < 1e-9
    assert fit.r_squared > 1 - 1e-12
    # the record holds the line; amplitude and delta are derived from it
    assert [f.name for f in dataclasses.fields(fit)] == ["slope", "intercept", "r_squared"]
    assert fit.amplitude == float(np.exp(fit.intercept))
    assert fit.delta == fit.amplitude - 1.0


def test_fit_energy_scaling_flat_curve_has_zero_slope():
    fit = fit_energy_scaling([(b, 0.37) for b in (1.0, 10.0, 100.0)])
    assert abs(fit.slope) < 1e-12


def test_fit_energy_scaling_validation():
    # a repeated beta adds no abscissa: fewer than 3 distinct leave the slope undetermined
    for betas in ((1.0, 2.0), (10.0, 10.0, 10.0), (10.0, 20.0, 20.0, 10.0)):
        with pytest.raises(ValueError, match="3 distinct betas"):
            fit_energy_scaling([(b, 1.0 / b) for b in betas])
    with pytest.raises(ValueError):
        fit_energy_scaling([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])


def test_z1_gaussian_limit_matches_closed_form():
    omega = np.diag([1.0, 2.0, 3.0, 4.0])
    lm = LagrangeMultipliers(omega)
    log_z1, cav, me = z1_mc(COP02, 0.0, lm, 20000, seed=7)
    exact = 4 * np.log(np.pi) + np.trace(omega) - np.log(np.linalg.det(omega))
    assert abs(log_z1 - exact) < 1e-12  # beta=0 weight is exactly 1
    assert me >= 0


def test_z1_is_finite_where_its_gaussian_factor_overflows():
    # tr omega = 800 > 709: e^{tr omega} is inf in double precision
    omega = np.diag([200.0, 200.0, 200.0, 200.0])
    lm = LagrangeMultipliers(omega)
    assert np.trace(omega) > np.log(np.finfo(float).max)
    exact = 4 * np.log(np.pi) + 800.0 - 4 * np.log(200.0)
    log_z1, _, me = z1_mc(COP02, 0.0, lm, 1000, seed=3)
    assert np.isfinite(log_z1) and abs(log_z1 - exact) < 1e-12
    log_z1, cav, me = z1_mc(COP02, 1e6, lm, 1000, seed=3)
    assert np.isfinite(log_z1) and log_z1 < exact
    assert np.all(np.isfinite(cav)) and np.isfinite(me)


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
    ref = log_z1_quadrature(beta, OmegaPrime(g, g), p)
    vals = np.array([z1_mc(cop, 32.0 * beta, lm, 100000, seed=s)[0] for s in range(8)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - ref) < 3 * se


def test_batch_energies_peak_memory_is_below_one_drawn_chunk(random_density):
    # 3000 draws of a full-rank 3x3 state are 3000 x 81 x 9 complex values
    # (35.0 MB); each task holds only its own sub-block, so the sampler
    # never holds all of them at once
    cop = cost_operator(eigen_ensemble(random_density(np.random.default_rng(12345), 3, 3)))
    samples, N = 3000, 81
    chunk_bytes = samples * N * cop.r * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        statmech._batch_energies(cop, N, samples, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < chunk_bytes
