"""Closed-form 2x2 Werner channel: state constructors, reduced one-particle
integral, its gradient, saddle search, and the region scan."""
import signal
from contextlib import contextmanager

import numpy as np
import pytest

import mpmath

from oracles import det_m, grad_log_z1_full
from sepmech import (OmegaPrime, PureState, avg_energy_werner,
                     bell_diagonal_h, ConstraintsUnsatisfiable,
                     concurrence_sq, cost_operator, energy,
                     energy_closed_form, equipartition_scan, grad_log_z1,
                     h_matrix, h_matrices,
                     log_z1_quadrature, saddle_search, werner_eigenensemble,
                     werner_state)
from sepmech.werner import (BETA_INTERNAL_SCALE, LOG_GAMMA_FLOOR,
                            QuadratureError, _moments)


@contextmanager
def time_limit(seconds):
    """Fail the calling test instead of hanging when the body never returns."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_werner_state_endpoints():
    w0 = werner_state(0.0).mat
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(w0, np.outer(singlet, singlet), atol=1e-15)
    assert np.allclose(werner_state(1.0).mat, np.eye(4) / 4, atol=1e-15)
    ev = np.sort(np.linalg.eigvalsh(werner_state(0.5).mat))
    assert np.allclose(ev, [0.125, 0.125, 0.125, 0.625], atol=1e-12)
    with pytest.raises(ValueError):
        werner_state(1.2)


def test_eigenensemble_reconstructs_werner():
    for p in (0.1, 0.5, 0.9):
        ens = werner_eigenensemble(p)
        assert np.max(np.abs(ens.reconstruct() - werner_state(p).mat)) < 1e-12
        norms = [v.norm() ** 2 for v in ens.vectors]
        assert np.allclose(norms, [1 - 3 * p / 4, p / 4, p / 4, p / 4],
                           atol=1e-12)
    with pytest.raises(ValueError):
        werner_eigenensemble(0.0)


def test_eigenensemble_phases_give_real_diagonal_h():
    hset = h_matrices(werner_eigenensemble(0.37))
    h = hset.matrices[0, 0]
    assert np.max(np.abs(h.imag)) < 1e-14
    assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-14


def test_h_matrix_pinned_values():
    assert np.allclose(h_matrix(1.0), np.eye(4) / 8, atol=1e-15)
    assert np.allclose(h_matrix(0.0), np.diag([0.5, 0, 0, 0]), atol=1e-15)
    assert np.allclose(h_matrix(2 / 3),
                       np.diag([2, 2 / 3, 2 / 3, 2 / 3]) / 8, atol=1e-15)


def test_h_matrix_equals_generic_contraction():
    for p in np.linspace(0.05, 1.0, 20):
        got = h_matrices(werner_eigenensemble(p)).matrices[0, 0]
        assert np.max(np.abs(got - h_matrix(p))) < 1e-12


def test_bell_diagonal_h_reduces_to_werner():
    for p in (0.2, 0.6, 1.0):
        q = (1 - 3 * p / 4, p / 4, p / 4, p / 4)
        assert np.max(np.abs(bell_diagonal_h(*q) - h_matrix(p))) < 1e-12
    assert np.allclose(bell_diagonal_h(0.25, 0.25, 0.25, 0.25),
                       np.eye(4) / 8, atol=1e-12)


def test_bell_diagonal_h_zero_weight_and_validation():
    h = bell_diagonal_h(0.5, 0.5, 0.0, 0.0)
    assert abs(h[2, 2]) < 1e-14 and abs(h[3, 3]) < 1e-14
    with pytest.raises(ValueError):
        bell_diagonal_h(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        bell_diagonal_h(0.5, 0.5, 0.5, 0.5)


def test_closed_form_energy_basis_rows():
    for p in (0.3, 0.8, 1.0):
        assert abs(energy_closed_form(np.eye(4)[0], p)
                   - (1 - 3 * p / 4) ** 2 / 2) < 1e-14
        assert abs(energy_closed_form(np.eye(4)[1], p)
                   - (p / 4) ** 2 / 2) < 1e-14


def test_closed_form_energy_matches_tensor_route(rng):
    for p in (0.25, 0.9):
        cop = cost_operator(werner_eigenensemble(p))
        ens = werner_eigenensemble(p)
        for _ in range(30):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            want = energy(z, cop)
            assert abs(energy_closed_form(z, p) - want) < 1e-12 * max(1.0, want)
            psi = (z[None, :] @ ens.matrix()).ravel()
            assert abs(want - concurrence_sq(PureState(2, 2, psi))) < 1e-12


def test_det_m_block_diagonal_case(rng):
    omega = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    got = det_m(0.0, omega, 0.7)
    assert abs(got - abs(np.linalg.det(omega)) ** 2) < 1e-10


def test_det_m_unit_omega_prime():
    for p, s in ((0.9, 0.3 + 0.1j), (0.5, 1.0j)):
        dh = np.linalg.det(h_matrix(p)).real
        got = det_m(s, h_matrix(p), p)
        want = dh ** 2 * (4 * abs(s) ** 2 + 1) ** 4
        assert abs(got - want) < 1e-10 * abs(want)


def test_det_m_factorization(rng):
    # direct 8x8 determinant against the reduced form
    # det h(p)^2 det(4|s|^2 + w' conj(w')), w' = h^{-1/2} omega h^{-1/2}
    for _ in range(50):
        p = rng.uniform(0.05, 1.0)
        s = rng.standard_normal() + 1j * rng.standard_normal()
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        omega = g @ g.conj().T + 0.2 * np.eye(4)
        h = h_matrix(p)
        hs_inv = np.diag(1.0 / np.sqrt(np.diag(h).real))
        wp = hs_inv @ omega @ hs_inv
        want = np.linalg.det(h).real ** 2 * np.linalg.det(
            4 * abs(s) ** 2 * np.eye(4) + wp @ wp.conj())
        got = det_m(s, omega, p)
        assert abs(got - want) < 1e-10 * abs(want)


def test_log_z1_decreasing_in_beta():
    op = OmegaPrime(1.5, 3.0)
    vals = [log_z1_quadrature(b, op, 0.9) for b in (0.5, 1.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_log_z1_quadrature_against_mpmath():
    # independent high-precision evaluation of the reduced integral
    for beta, g, lam, p in ((1.0, 2.0, 2.0, 0.9), (10.0, 0.5, 5.8, 0.9),
                            (0.2, 1.0, 7.0, 0.5)):
        bt = 64.0 * beta
        f = lambda x: mpmath.e**(-x / (4 * bt)) \
            * (x + g * g) ** mpmath.mpf(-0.5) * (x + lam * lam) ** mpmath.mpf(-1.5)
        pts = sorted({0.0, g * g, lam * lam, 4 * bt, 40 * bt}) + [mpmath.inf]
        i0 = mpmath.quad(f, pts)
        h11, h22 = (4 - 3 * p) / 8.0, p / 8.0
        deth = (4 - 3 * p) * p**3 / 4096.0
        want = 4 * mpmath.log(mpmath.pi) - mpmath.log(4 * bt * deth) \
            + g * h11 + 3 * lam * h22 + mpmath.log(i0)
        got = log_z1_quadrature(beta, OmegaPrime(g, lam), p)
        assert abs(got - float(want)) < 1e-9 * max(1.0, abs(float(want)))


def test_gradient_matches_finite_differences():
    for beta, g, lam, p in ((10.0, 0.5, 5.8, 0.9), (1.0, 2.0, 2.0, 0.8),
                            (100.0, 1.0, 1.0, 1.0)):
        rg, rl = grad_log_z1(beta, OmegaPrime(g, lam), p)
        hstep = 1e-5
        fdg = (log_z1_quadrature(beta, OmegaPrime(g + hstep, lam), p)
               - log_z1_quadrature(beta, OmegaPrime(g - hstep, lam), p)) / (2 * hstep)
        fdl = (log_z1_quadrature(beta, OmegaPrime(g, lam + hstep), p)
               - log_z1_quadrature(beta, OmegaPrime(g, lam - hstep), p)) / (2 * hstep)
        assert abs(rg - fdg) < 1e-7 * max(1.0, abs(fdg))
        assert abs(3 * rl - fdl) < 1e-7 * max(1.0, abs(fdl))


def test_gradient_beta_zero_limit_root():
    # as beta -> 0 the residual vanishes exactly at omega' = h(p)^{-1}
    p = 0.7
    g0, l0 = 8.0 / (4 - 3 * p), 8.0 / p
    rg, rl = grad_log_z1(1e-7, OmegaPrime(g0, l0), p)
    assert abs(rg) < 1e-6 and abs(rl) < 1e-6


def test_gradient_symmetric_point_at_p_one():
    rg, rl = grad_log_z1(7.0, OmegaPrime(2.2, 2.2), 1.0)
    assert abs(rg - rl) < 1e-12


def test_full_gradient_matches_restricted_on_diagonal():
    for beta, g, lam, p in ((10.0, 0.5, 5.8, 0.9), (2.0, 1.5, 3.0, 0.95)):
        rg, rl = grad_log_z1(beta, OmegaPrime(g, lam), p)
        G = grad_log_z1_full(beta, np.diag([g, lam, lam, lam]).astype(complex), p)
        assert np.max(np.abs(G.imag)) < 1e-10
        assert abs(G[0, 0].real - rg) < 1e-9
        for k in (1, 2, 3):
            assert abs(G[k, k].real - rl) < 1e-9
        assert np.max(np.abs(G - np.diag(np.diag(G)))) < 1e-9


def test_full_gradient_is_hermitian(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    wp = g @ g.conj().T + 4 * np.eye(4)
    G = grad_log_z1_full(3.0, wp, 0.9)
    assert np.max(np.abs(G - G.conj().T)) < 1e-10


def test_saddle_inside_region():
    sad = saddle_search(10.0, 0.9)
    assert sad.residual_norm < 1e-9
    assert sad.interior
    assert abs(sad.gamma_star - 0.520432) < 1e-4
    assert abs(sad.lambda_star - 5.816898) < 1e-4
    sad1 = saddle_search(10.0, 1.0)
    assert sad1.residual_norm < 1e-9 and sad1.interior


def test_saddle_outside_region():
    sad = saddle_search(10.0, 0.5)
    assert sad.residual_norm > 1e-2


def _residual_jacobian(beta, g, lam):
    """Analytic d(res_gamma, res_lambda)/d(log gamma, log lam) from _moments."""
    return -_moments(BETA_INTERNAL_SCALE * beta, g, lam)[4]


def _central_jacobian(beta, g, lam, p, step):
    """Richardson-extrapolated central differences of grad_log_z1 in logs."""
    def res(u):
        return np.array(grad_log_z1(beta, OmegaPrime(*np.exp(u)), p))

    def central(u, hs):
        cols = [(res(u + hs * e) - res(u - hs * e)) / (2 * hs) for e in np.eye(2)]
        return np.column_stack(cols)

    u = np.log([g, lam])
    return (4 * central(u, step / 2) - central(u, step)) / 3


def test_moments_jacobian_matches_central_differences():
    # the interior saddles at (10, 0.9) and (1e6, 0.95), and the boundary
    # saddle's lam at (10, 0.8) with gamma at 1e-5, where the gamma column
    # is already linear in gamma; below that, differences of O(0.1)
    # residuals cannot resolve an O(gamma) column to 1e-6
    for beta, p in ((10.0, 0.9), (1e6, 0.95), (10.0, 0.8)):
        sad = saddle_search(beta, p)
        g = sad.gamma_star if sad.interior else 1e-5
        want = _central_jacobian(beta, g, sad.lambda_star, p, 1e-2)
        got = _residual_jacobian(beta, g, sad.lambda_star)
        assert np.max(np.abs(got / want - 1)) < 1e-6, (beta, p, g)


def test_moments_jacobian_gamma_column_at_the_floor():
    # On the floor the gamma column is O(gamma) and comes from cancelling
    # O(1/gamma) moments; its sign decides the boundary certificate, so it
    # must keep the sign and, to 10 %, the size of the linear law at 1e-5.
    floor = np.exp(LOG_GAMMA_FLOOR)
    for beta, lam in ((10.0, 5.98682723), (1e6, 5.98)):
        at_floor = _residual_jacobian(beta, floor, lam)[:, 0] / floor
        linear = _residual_jacobian(beta, 1e-5, lam)[:, 0] / 1e-5
        assert np.all(np.sign(at_floor) == np.sign(linear))
        assert np.max(np.abs(at_floor / linear - 1)) < 0.1


def test_moments_rejects_zero_scale_promptly():
    # gamma = 0 leaves no positive panel scale; this used to loop forever
    with time_limit(5.0), pytest.raises(QuadratureError):
        _moments(640.0, 0.0, 6.0)


def test_saddle_at_former_hang_point():
    with time_limit(10.0):
        sad = saddle_search(10.0, 0.63)
    assert sad.residual_norm > 1e-2
    assert not sad.interior


@pytest.mark.parametrize("p, residual", [(0.80, 0.036924362384436),
                                         (0.85, 0.015649874760012),
                                         (0.88, 0.0028849679554828)])
def test_saddle_boundary_residuals_pinned(p, residual):
    # the gamma -> 0 limit of the minimized residual at beta = 10
    sad = saddle_search(10.0, p)
    assert sad.residual_norm == pytest.approx(residual, rel=1e-8)


def test_saddle_interior_flag_switches_at_onset():
    grid = np.round(np.arange(0.50, 1.0001, 0.01), 12)
    for p in grid:
        sad = saddle_search(10.0, p)
        assert sad.interior == (p >= 0.89), p
        if sad.interior:
            assert sad.residual_norm <= 1e-12, p
        else:
            assert sad.gamma_star == np.exp(LOG_GAMMA_FLOOR), p


def test_saddle_validation():
    with pytest.raises(ValueError):
        saddle_search(-1.0, 0.9)
    with pytest.raises(ValueError):
        saddle_search(10.0, 0.0)


def test_scan_detects_region_boundary():
    grid = np.round(np.arange(0.84, 1.0001, 0.01), 12)
    scan = equipartition_scan(grid, 10.0)
    assert scan.region_start == pytest.approx(0.89, abs=1e-12)
    below = {p: r for p, r in zip(scan.p_grid, scan.residuals) if p < 0.89}
    assert all(r > scan.threshold for r in below.values())
    above = [r for p, r in zip(scan.p_grid, scan.residuals) if p >= 0.89]
    assert all(r < scan.threshold for r in above)


def test_scan_is_seed_reproducible():
    grid = (0.5, 0.9, 1.0)
    a = equipartition_scan(grid, 10.0)
    b = equipartition_scan(grid, 10.0)
    assert a.residuals == b.residuals
    assert a.region_start == b.region_start == 0.9


def test_scan_without_region():
    scan = equipartition_scan((0.3, 0.5, 0.7), 10.0)
    assert scan.region_start is None


def test_avg_energy_matches_beta_finite_difference():
    for beta, p in ((10.0, 0.9), (50.0, 0.95), (200.0, 1.0)):
        sad = saddle_search(beta, p)
        op = OmegaPrime(sad.gamma_star, sad.lambda_star)
        got = avg_energy_werner(beta, p)
        hstep = beta * 1e-5
        fd = -(log_z1_quadrature(beta + hstep, op, p)
               - log_z1_quadrature(beta - hstep, op, p)) / (2 * hstep)
        assert abs(got - fd) < 1e-6 * abs(fd)


def test_avg_energy_raises_outside_region():
    with pytest.raises(ConstraintsUnsatisfiable):
        avg_energy_werner(10.0, 0.5)


def test_avg_energy_equipartition_plateau():
    # beta * <<E>> stays within a few percent of 1 across two decades
    vals = [b * avg_energy_werner(b, 0.9) for b in (10.0, 100.0, 1000.0)]
    assert all(0.9 < v < 1.05 for v in vals)
    cv = np.std(vals) / np.mean(vals)
    assert cv < 0.10
