"""Closed-form 2x2 Werner channel: state constructors, reduced one-particle
integral, its gradient, saddle search, and the region scan."""
import math
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import mpmath

from oracles import (bell_diagonal_h, det_m, energy_closed_form, face_minimum,
                     grad_log_z1_full, h_matrix, lockstep_calls, moments_einsum,
                     moments_one_point, node_count_loop, saddle_alone)
from sepmech import (OmegaPrime, PureState, avg_energy_werner, ConstraintsUnsatisfiable,
                     concurrence_sq, cost_operator, energy,
                     equipartition_scan, grad_log_z1,
                     log_z1_quadrature, saddle_search, werner_eigenensemble,
                     werner_state)
from sepmech import werner
from sepmech.werner import (BETA_INTERNAL_SCALE, BETA_STAR, RESIDUAL_THRESHOLD,
                            _WERNER_MULT, QuadratureError, _STEP, _grid, _moments)


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
    hset = cost_operator(werner_eigenensemble(0.37)).hset
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
        got = cost_operator(werner_eigenensemble(p)).hset.matrices[0, 0]
        assert np.max(np.abs(got - h_matrix(p))) < 1e-12


def test_werner_h_is_the_diagonal_of_the_generic_contraction():
    # the one closed form of h(p) the library uses, against cost_operator's hset
    for p in np.round(np.arange(0.05, 1.0001, 0.05), 12):
        got = np.diag(cost_operator(werner_eigenensemble(p)).hset.matrices[0, 0])
        h0, h1 = werner._werner_h(p)
        assert np.max(np.abs(got - [h0, h1, h1, h1])) < 1e-15


def test_bell_diagonal_h_reduces_to_werner():
    for p in (0.2, 0.6, 1.0):
        h0, h1 = werner._werner_h(p)
        got = bell_diagonal_h((1 - 3 * p / 4, p / 4, p / 4, p / 4))
        assert np.max(np.abs(got - np.diag([h0, h1, h1, h1]))) < 1e-15


def test_bell_diagonal_h_is_the_h_matrix_of_the_bell_ensemble():
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = rng.dirichlet(np.ones(4))
        want = cost_operator(werner._bell_ensemble(q)).hset.matrices[0, 0]
        assert np.max(np.abs(bell_diagonal_h(q) - want)) < 1e-15


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
            psi = (z[None, :] @ ens.amps).ravel()
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


def _one_pass(bt, g, lam):
    """The _moments row of one point, as (log I0, <A>, <B>, <x>, jac, error)."""
    (log_i0, mA, mB, mx, *jac, err), = _moments([bt], ([g], [lam]), _WERNER_MULT,
                                                [_grid(bt, g * g, lam * lam)])
    return log_i0, mA, mB, mx, np.array(jac).reshape(2, 2), err


def _residual_jacobian(beta, g, lam):
    """Analytic d(res_gamma, res_lambda)/d(log gamma, log lam) from _moments."""
    return -_one_pass(BETA_INTERNAL_SCALE * beta, g, lam)[4]


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
    # At gamma = e^-30 the gamma column is O(gamma) and comes from cancelling
    # O(1/gamma) moments; it must keep the sign and, to 10 %, the size of
    # the linear law at 1e-5.
    floor = np.exp(-30.0)
    for beta, lam in ((10.0, 5.98682723), (1e6, 5.98)):
        at_floor = _residual_jacobian(beta, floor, lam)[:, 0] / floor
        linear = _residual_jacobian(beta, 1e-5, lam)[:, 0] / 1e-5
        assert np.all(np.sign(at_floor) == np.sign(linear))
        assert np.max(np.abs(at_floor / linear - 1)) < 0.1


def test_moments_rejects_zero_scale_promptly():
    # a zero scale passed to _grid (here gamma^2 = 0; a pass on the face
    # gamma = 0 takes its grid from lam^2) must raise promptly, not loop
    with time_limit(5.0), pytest.raises(QuadratureError):
        _one_pass(640.0, 0.0, 6.0)


def test_node_count_matches_the_loop():
    # the closed form with its two-node correction against stepping u node
    # by node, over the saddles' scales and at bt down to the smallest
    # normal float, where log(xmax / s) exceeds 700 and s is subnormal
    rng = np.random.default_rng(20)
    bts = np.concatenate([10.0 ** rng.uniform(-1, 10, 5000), 2.0 ** -np.arange(1000, 1023)])
    scales = 10.0 ** rng.uniform(-27, 8, (bts.size, 2))
    for bt, (a, b) in zip(bts.tolist(), scales.tolist()):
        assert _grid(bt, a, b)[1] == node_count_loop(bt, a, b), (bt, a, b)


@pytest.mark.parametrize("bt, a, b", [(640.0, 0.0, 33.8), (640.0, 0.27, -0.0), (0.0, 0.27, 33.8),
                                      (640.0, 5e-324, 33.8), (2e-311, 0.27, 33.8),
                                      (640.0, np.inf, 33.8), (np.inf, 0.27, 33.8),
                                      (640.0, 1e308, 33.8), (640.0, 0.27, np.nan),
                                      (np.nan, 0.27, 33.8), (-640.0, 0.27, 33.8)])
def test_grid_refuses_scales_that_leave_no_finite_node_set(bt, a, b):
    # zero, subnormal (4 bt = 8e-311), infinite, overflowing (xmax), nan and
    # negative scales each raise the one message, with the scales as given
    with pytest.raises(QuadratureError) as failed:
        _grid(bt, a, b)
    assert str(failed.value) == ("quadrature scales must be normal positive floats with a finite "
                                 f"end 180 bt + 8 max(a, b), got {(a, b, 4.0 * bt)}")


@pytest.mark.parametrize("beta, g, lam", [(10.0, 0.520432, 5.816898),
                                          (1e6, 2.0, 5.98),
                                          (10.0, np.exp(-30.0), 5.98682723),
                                          (1e5, np.exp(-30.0), 4.7),
                                          (0.1, 3.0, 0.2)])
def test_moments_match_the_einsum_oracle(beta, g, lam):
    got = _one_pass(BETA_INTERNAL_SCALE * beta, g, lam)
    want = moments_einsum(BETA_INTERNAL_SCALE * beta, g, lam)
    for name, x, y in zip(("I0", "<A>", "<B>", "<x>"), (math.exp(got[0]), *got[1:4]), want):
        assert abs(x / y - 1) < 1e-12, name
    assert all(type(x) is float for x in got[:4])
    # at gamma = e^-30 the gamma-gamma entry cancels O(1/gamma) moments down
    # to O(gamma) and keeps only a few digits in either form (see the floor
    # test above), so the Jacobian is compared relative to its largest entry
    assert np.max(np.abs(got[4] - want[4])) < 1e-12 * np.max(np.abs(want[4]))
    assert type(got[5]) is float


@pytest.mark.parametrize("beta, lam", [(10.0, 5.98682723), (1e5, 4.7), (0.1, 0.2),
                                       (1e-3, 30.0), (1e8, 800.0)])
def test_moments_on_the_face_are_the_gamma_to_zero_limits(beta, lam):
    # at g = 0 the grid comes from lam alone and <A> is its limit
    # 2 / (lam^3 I0), not the 0 that A = g / (x + g^2) gives at g = 0; the
    # pass raises no RuntimeWarning (an error in this suite)
    bt = BETA_INTERNAL_SCALE * beta
    (log_i0, mA, mB, mx, *_), = _moments([bt], ([0.0], [lam]), _WERNER_MULT,
                                         [_grid(bt, lam * lam, lam * lam)])
    i0 = math.exp(log_i0)
    assert abs(mA * lam ** 3 * i0 / 2.0 - 1) < 1e-15
    assert abs(mA / moments_einsum(bt, 1e-9, lam)[1] - 1) < 1e-8
    limit = moments_einsum(bt, np.exp(-30.0), lam)
    for name, x, y in zip(("I0", "<B>", "<x>"), (i0, mB, mx), (limit[0], limit[2], limit[3])):
        assert abs(x / y - 1) < 1e-12, name


def test_moments_match_the_gk15_oracle_over_a_sweep():
    # 5000 seeded points over the saddles' range: beta 1e-3..1e8, log gamma
    # from -30 up, log lam in +-8.  The Jacobian is compared relative
    # to its largest entry, as above.  Largest gaps seen: 7.3e-15 on the
    # moments, 2.7e-11 on the Jacobian; largest error estimate 5.2e-9
    rng = np.random.default_rng(26)
    bts = BETA_INTERNAL_SCALE * 10.0 ** rng.uniform(-3, 8, 5000)
    gs = np.exp(rng.uniform(-30.0, 8.0, 5000))
    lams = np.exp(rng.uniform(-8.0, 8.0, 5000))
    points = list(zip(bts.tolist(), gs.tolist(), lams.tolist()))
    rows = []
    for k in range(0, len(points), 100):
        chunk = points[k:k + 100]
        bts, gs, lams = zip(*chunk)
        rows += _moments(bts, (gs, lams), _WERNER_MULT,
                         [_grid(bt, g * g, lam * lam) for bt, g, lam in chunk])
    for pt, (log_i0, *got, err) in zip(points, rows):
        i0, mA, mB, mx, jac, _ = moments_einsum(*pt)
        got = [math.exp(log_i0), *got]  # the row with I0 in place of log I0
        assert np.max(np.abs(np.array(got[:4]) / [i0, mA, mB, mx] - 1)) < 1e-13, pt
        assert np.max(np.abs(np.array(got[4:]) - jac.ravel())) < 1e-10 * np.max(np.abs(jac)), pt
        assert err <= 1e-8, pt


def _quadrature_sweep():
    """(bt, g, lam, grid) of single passes whose node counts mix: beta
    from 1e-3 to 1e8 with log gamma from -30 (~480 nodes) up, the
    1e300 * 4bt cap (beta 1e-305, ~3600 nodes), and grids cut to 1 to 27
    nodes at beta 1e-3 and up."""
    points = []
    for beta in np.logspace(-3, 8, 12).tolist() + [1e-305]:
        for log_g in (-30.0, -12.0, -1.0, 0.5, 3.0):
            for lam in (0.2, 5.98, 40.0):
                bt, g = BETA_INTERNAL_SCALE * beta, float(np.exp(log_g))
                points.append((bt, g, lam, _grid(bt, g * g, lam * lam)))
    cut = [(bt, g, lam, (log_s, n)) for bt, g, lam, (log_s, _) in points[:180:17]
           for n in (1, 3, 11, 27)]
    return points + cut


def test_batched_moments_match_the_one_point_oracle_bit_for_bit():
    points = _quadrature_sweep()
    nodes = {n for *_, (_, n) in points}
    assert min(nodes) == 1 and max(nodes) >= 3000 and 27 in nodes
    # the last node's x, to within e^{-u} < 1e-3 relative, against the cap
    capped = [log_s + _STEP * (n - 1) - 4.0 > np.log(1e300 * 4.0 * bt)
              for bt, *_, (log_s, n) in points]
    assert 0 < sum(capped) < len(points)
    want = {i: np.array(moments_one_point(bt, (g, lam), _WERNER_MULT, grid)).tobytes()
            for i, (bt, g, lam, grid) in enumerate(points)}
    # each point in a call of its own, the whole sweep in one call, and in
    # calls of three in reverse order
    order = list(range(len(points)))
    for chunk in [[i] for i in order] + [order] + [order[::-1][k:k + 3] for k in range(0, len(order), 3)]:
        bts, gs, lams, grids = zip(*(points[i] for i in chunk))
        rows = _moments(bts, (gs, lams), _WERNER_MULT, grids)
        for i, row in zip(chunk, rows):
            assert all(type(v) is float for v in row)
            assert np.array(row).tobytes() == want[i], points[i][:3]


def test_moments_of_four_distinct_multipliers_match_the_one_point_oracle_bit_for_bit():
    # k = 4 with multiplicities (1, 2, 1, 3) at distinct multipliers, so a
    # mixed-up pair of rows or columns shows; each point alone and all in one call
    rng = np.random.default_rng(41)
    bts = (BETA_INTERNAL_SCALE * 10.0 ** rng.uniform(-3, 8, 12)).tolist()
    w = np.exp(rng.uniform(-8.0, 5.0, (4, 12)))
    grids = [_grid(bt, min(ws) ** 2, max(ws) ** 2) for bt, ws in zip(bts, w.T.tolist())]
    mult = (1, 2, 1, 3)
    want = [np.array(moments_one_point(bt, ws, mult, grid)).tobytes()
            for bt, ws, grid in zip(bts, w.T.tolist(), grids)]
    rows = _moments(bts, w.tolist(), mult, grids)
    assert [np.array(row).tobytes() for row in rows] == want
    for i in range(len(bts)):
        (row,) = _moments(bts[i:i + 1], w[:, i:i + 1].tolist(), mult, grids[i:i + 1])
        assert np.array(row).tobytes() == want[i]


@pytest.mark.parametrize("beta, g, lam", [(10.0, 0.520432, 5.816898), (1e6, 2.0, 5.98),
                                          (0.1, 3.0, 0.2), (10.0, np.exp(-30.0), 5.98682723),
                                          (10.0, 0.0, 5.98682723), (1e5, 0.0, 4.7)])
def test_a_multiplier_of_multiplicity_three_is_three_of_multiplicity_one(beta, g, lam):
    # (gamma, lam) with multiplicities (1, 3) against (gamma, lam, lam, lam)
    # with (1, 1, 1, 1), inside and on the face gamma = 0: the same moments,
    # and the k = 4 Jacobian, its three lam columns summed, is the k = 2 one
    bt = BETA_INTERNAL_SCALE * beta
    grid = _grid(bt, g * g or lam * lam, lam * lam)
    (two,) = _moments([bt], ([g], [lam]), _WERNER_MULT, [grid])
    (four,) = _moments([bt], ([g], [lam], [lam], [lam]), (1, 1, 1, 1), [grid])
    log_i0, mA, mB, mx, *jac2, _ = two
    got = np.array(four[:6])
    assert np.max(np.abs(got / [log_i0, mA, mB, mB, mB, mx] - 1)) < 1e-13
    jac4 = np.array(four[6:-1]).reshape(4, 4)
    jac4 = np.column_stack([jac4[:, 0], jac4[:, 1:].sum(axis=1)])
    jac2 = np.array(jac2).reshape(2, 2)
    assert np.max(np.abs(jac4 - jac2[[0, 1, 1, 1]])) < 1e-13 * np.max(np.abs(jac2))


def test_a_saddle_is_the_same_alone_in_its_grid_and_in_the_reversed_grid():
    points = [(beta, p) for beta in (1e-3, 10.0, 1e4, 1e8) for p in (0.3, 0.85, 0.89, 0.95, 1.0)]
    solves = [saddle_search(beta, p) for beta, p in points]
    alone = [repr(s) for s in solves]
    assert {s.interior for s in solves} == {True, False}
    assert [repr(s) for s in werner._saddles(points)] == alone
    assert [repr(s) for s in werner._saddles(points[::-1])] == alone[::-1]
    grid = [p for _, p in points[5:10]]
    assert [repr(s) for s in equipartition_scan(grid[::-1], 10.0).saddles] == alone[5:10][::-1]


@pytest.mark.parametrize("budget", [werner._NODE_BUDGET, 1024])
def test_lockstep_solves_match_the_one_point_generator_oracle(monkeypatch, budget):
    # beta 1e-3..1e8 x p 0.01..1.00: interior ends and boundary ends on the
    # face gamma = 0; each _moments call holds the passes the oracle's rounds
    # predict, and some rounds are cut into several calls
    points = [(beta, p) for beta in np.logspace(-3, 8, 12).tolist()
              for p in np.round(np.linspace(0.01, 1.0, 34), 12).tolist()]
    alone = {pt: saddle_alone(*pt) for pt in points}
    ends = {(s.interior, s.gamma_star == 0.0) for s, _ in alone.values()}
    assert {(True, False), (False, True)} <= ends
    calls = []

    def recorded(bts, w, mult, grids):
        calls.append(list(zip(bts, *w, grids)))
        return _moments(bts, w, mult, grids)

    monkeypatch.setattr(werner, "_NODE_BUDGET", budget)
    monkeypatch.setattr(werner, "_moments", recorded)
    for order in (points, points[::-1]):
        calls.clear()
        got = [repr(s) for s in werner._saddles(order)]
        assert got == [repr(alone[pt][0]) for pt in order]
        assert calls == lockstep_calls([alone[pt][1] for pt in order], budget)
    assert 1 < min(map(len, calls[:2])) and any(len(call) == 1 for call in calls)


def test_the_first_grid_failure_in_grid_order_is_reported():
    # at beta 1e-318 and 1e-320 the first pass's 4 bt is subnormal; the
    # message ends with it, so it names the point
    points = [(10.0, 0.9), (1e-318, 0.9), (10.0, 0.5), (1e-320, 0.95)]
    for order in (points, points[::-1]):
        beta = next(beta for beta, _ in order if beta < 1.0)
        with pytest.raises(QuadratureError, match="normal positive floats") as failed:
            list(werner._saddles(order))
        assert str(failed.value).endswith(f", {4.0 * BETA_INTERNAL_SCALE * beta!r})")


def test_a_lockstep_pass_stays_within_the_node_budget(monkeypatch):
    # padded nodes per _moments call, whatever the grid length, counting
    # the zero-weight node that pairs each point's last; a call holds one
    # point at least
    nodes = []

    def counted(*args):
        grids = args[3]
        nodes.append((len(grids), len(grids) * (max(n for _, n in grids) + 1)))
        return _moments(*args)

    monkeypatch.setattr(werner, "_moments", counted)
    equipartition_scan(np.round(np.arange(0.01, 1.0001, 0.01), 12), 10.0)
    assert max(points for points, _ in nodes) > 1
    assert all(n <= werner._NODE_BUDGET or points == 1 for points, n in nodes)
    assert max(n for _, n in nodes) > werner._NODE_BUDGET // 2


def test_the_first_failure_in_grid_order_is_reported(monkeypatch):
    # at beta = 10, p = 0.5 takes 6 passes and p = 0.95 takes 4; with no
    # pass converged each fails on its last pass, so in lockstep p = 0.95
    # fails first, and at beta = 1e-318 the first pass already fails
    assert saddle_search(10.0, 0.5).iterations > saddle_search(10.0, 0.95).iterations
    monkeypatch.setattr(werner, "_moments",
                        lambda *args: [(*row[:-1], 1.0) for row in _moments(*args)])
    alone = {}
    for p in (0.5, 0.95):
        with pytest.raises(QuadratureError, match="did not converge") as failed:
            saddle_search(10.0, p)
        alone[p] = str(failed.value)
    assert alone[0.5] != alone[0.95]
    for grid in ((0.5, 0.95), (0.95, 0.5)):
        with pytest.raises(QuadratureError) as failed:
            equipartition_scan(grid, 10.0)
        assert str(failed.value) == alone[grid[0]]
    with pytest.raises(QuadratureError) as failed:
        list(werner._saddles([(10.0, 0.5), (1e-318, 0.9)]))
    assert str(failed.value) == alone[0.5]
    with pytest.raises(QuadratureError, match="normal positive floats"):
        list(werner._saddles([(1e-318, 0.9), (10.0, 0.5)]))


def test_saddle_solves_stop_at_the_rounding_floor():
    # 48 interior solves, each stopped once its free gradient is down to
    # the rounding floor, in at most 200 quadrature passes in all (176)
    solves = [saddle_search(beta, p) for p in (0.90, 0.95, 1.00)
              for beta in np.logspace(1, 5, 16)]
    assert all(s.interior for s in solves)
    assert sum(s.iterations for s in solves) <= 200


def test_saddle_at_former_hang_point():
    with time_limit(10.0):
        sad = saddle_search(10.0, 0.63)
    assert sad.residual_norm > 1e-2
    assert not sad.interior


@pytest.mark.parametrize("p, residual", [(0.80, 0.048683299489995724),
                                         (0.85, 0.020636819541267643),
                                         (0.88, 0.003804590556103049)])
def test_saddle_boundary_residuals_pinned(p, residual):
    # the residual at the minimum of F on the face gamma = 0 at beta = 10,
    # from the oracle's bisection (face_minimum)
    sad = saddle_search(10.0, p)
    assert sad.residual_norm == pytest.approx(residual, rel=1e-8)


@pytest.mark.parametrize("beta, p", [(10.0, 0.5), (10.0, 0.88), (1000.0, 0.3), (0.2, 0.7),
                                     (316.2, 0.005), (1e10, 1e-6)])
def test_a_boundary_lambda_is_the_face_minimum(beta, p):
    # lam* solves h1 = <B>_0(lam), here against a bisection on the GK15
    # oracle, and the residual is its value there
    sad = saddle_search(beta, p)
    lam, residual = face_minimum(BETA_INTERNAL_SCALE * beta, *werner._werner_h(p))
    assert not sad.interior and sad.gamma_star == 0.0
    assert abs(sad.lambda_star / lam - 1) <= 1e-10
    assert abs(sad.residual_norm / residual - 1) <= 1e-10


def test_saddle_interior_flag_switches_at_onset():
    grid = np.round(np.arange(0.50, 1.0001, 0.01), 12)
    for p in grid:
        sad = saddle_search(10.0, p)
        assert sad.interior == (p >= 0.89), p
        if sad.interior:
            assert sad.residual_norm <= 1e-12, p
        else:
            assert sad.gamma_star == 0.0, p


def test_every_end_of_a_sweep_is_certified():
    # 25 beta from 1e-3 to 1e10, 316.2 among them, x p 0.001:0.001:0.013
    # and 0.02:0.01:1.00, and beta 1e10 at p 1e-6: an interior end solves the
    # constraints, and a boundary end lies on the face gamma = 0 with a
    # positive KKT sign h0 - <A>_0, from a face pass at its lam
    grid = np.round(np.concatenate([np.arange(1, 14) * 0.001, np.arange(2, 101) * 0.01]), 12)
    points = [(beta, p) for beta in np.logspace(-3, 8, 23).tolist() + [316.2, 1e10]
              for p in grid.tolist()] + [(1e10, 1e-6)]
    saddles = list(werner._saddles(points))
    face = [(pt, sad) for pt, sad in zip(points, saddles) if not sad.interior]
    assert 0 < len(face) < len(points)
    assert all(sad.residual_norm <= 1e-6 for sad in saddles if sad.interior)
    assert all(sad.gamma_star == 0.0 for _, sad in face)
    bts = [BETA_INTERNAL_SCALE * beta for (beta, _), _ in face]
    lams = [sad.lambda_star for _, sad in face]
    rows = _moments(bts, ([0.0] * len(face), lams), _WERNER_MULT,
                    [_grid(bt, lam * lam, lam * lam) for bt, lam in zip(bts, lams)])
    assert all(werner._werner_h(p)[0] - row[1] > 0 for ((_, p), _), row in zip(face, rows))
    assert ((1e10, 1e-6), saddles[-1]) == face[-1]


def test_saddle_mean_x_is_the_moment_at_the_returned_point():
    # an interior point and a point on the face, whose grid comes from lam alone
    for beta, p in ((10.0, 0.9), (10.0, 0.5)):
        sad = saddle_search(beta, p)
        bt, g, lam = BETA_INTERNAL_SCALE * beta, sad.gamma_star, sad.lambda_star
        (want,) = _moments([bt], ([g], [lam]), _WERNER_MULT,
                           [_grid(bt, g * g or lam * lam, lam * lam)])
        assert sad.mean_x == want[3]


def test_saddle_raises_when_its_final_pass_does_not_converge(monkeypatch):
    def unconverged(*args):
        return [(*row[:-1], 1.0) for row in _moments(*args)]  # error estimate far above _QUAD_TOL

    monkeypatch.setattr(werner, "_moments", unconverged)
    for p in (0.9, 0.5):  # interior and boundary ends
        with pytest.raises(QuadratureError, match="did not converge"):
            saddle_search(10.0, p)


def test_saddle_raises_when_it_runs_out_of_passes(monkeypatch):
    # at beta = 10, p = 0.5 ends on the face after 6 passes; allowed one,
    # the solve ends without a certificate
    monkeypatch.setattr(werner, "_MAX_EVALS", 1)
    with pytest.raises(QuadratureError, match="ended without a certificate after 1 passes"):
        saddle_search(10.0, 0.5)


def test_the_corners_of_beta_and_p_end_certified_or_refused_without_a_warning():
    # beta and p from 1e-300 up, where I0 spans far more than the float
    # range: the moments, from shifted log weights, raise no RuntimeWarning,
    # and a point ends certified (inside with its constraints solved, or on
    # the face) or with QuadratureError.  159 of the 208 end certified; the
    # rest lose a grid scale or, at p <= 1e-20, a Hessian entry to rounding
    betas = (1e-300, 1e-280, 1e-250, 1e-200, 1e-100, 1e-30, 1e-3, 0.1, 10.0, 1e3, 1e6, 1e10,
             1e30, 1e100, 1e200, 1e300)
    ps = (1e-300, 1e-200, 1e-150, 1e-100, 1e-50, 1e-20, 1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0)
    answered = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in betas:
            for p in ps:
                try:
                    sad = saddle_search(beta, p)
                except QuadratureError:
                    continue
                assert sad.gamma_star == 0.0 or sad.region_member, (beta, p)
                answered += 1
    assert answered >= 118


def test_saddles_whose_integral_lies_outside_the_float_range():
    # in linear scale I0 underflows at beta 1.7e-299, p 8.9e-11, and so does
    # <B> at beta 10, p 1e-100, where lam starts at 8e100; the second ends
    # on the face with the residual it has at p = 1e-60
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = saddle_search(1.7143750545673087e-299, 8.860291552906891e-11)
        far = saddle_search(10.0, 1e-100)
    assert tiny.interior and tiny.region_member
    assert far.gamma_star == 0.0 and far.iterations <= 16
    assert far.residual_norm == pytest.approx(saddle_search(10.0, 1e-60).residual_norm, rel=1e-12)


def test_saddle_validation():
    with pytest.raises(ValueError):
        saddle_search(-1.0, 0.9)
    with pytest.raises(ValueError):
        saddle_search(10.0, 0.0)


@pytest.mark.parametrize("call, beta", [
    (lambda b: saddle_search(b, 0.9), 1e308),
    (lambda b: equipartition_scan([0.9], b), 1e308),
    (lambda b: log_z1_quadrature(b, OmegaPrime(1.0, 1.0), 0.9), 1e307),
], ids=["saddle_search", "equipartition_scan", "log_z1_quadrature"])
def test_a_numpy_beta_fails_as_its_python_float(call, beta):
    # bt is formed from float(beta): a numpy beta overflowed with a
    # RuntimeWarning (an error in this suite) before its QuadratureError
    errors = []
    for b in (beta, np.float64(beta)):
        with pytest.raises(QuadratureError) as exc:
            call(b)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_avg_energy_names_a_numpy_beta_as_a_float():
    with pytest.raises(QuadratureError, match=r"at beta=1e-310 is lost"):
        avg_energy_werner(np.float64(1e-310), 0.9)


def test_scan_detects_region_boundary():
    grid = np.round(np.arange(0.84, 1.0001, 0.01), 12)
    scan = equipartition_scan(grid, 10.0)
    assert scan.region_start == pytest.approx(0.89, abs=1e-12)
    # one membership rule: the scan's onset, the saddle's flag and the
    # energy's refusal all agree at every grid point
    for p, sad in zip(scan.p_grid, scan.saddles):
        assert sad.region_member is (p >= scan.region_start)
        assert sad.region_member is (sad.residual_norm < RESIDUAL_THRESHOLD)
        if sad.region_member:
            assert avg_energy_werner(10.0, p) > 0
        else:
            with pytest.raises(ConstraintsUnsatisfiable):
                avg_energy_werner(10.0, p)


def test_beta_star_is_where_the_region_stops_admitting_entangled_states():
    # W(p) is entangled for p < 2/3; just below beta* the region reaches
    # below 2/3 (residual ~6e-17), just above it does not (~9e-5)
    p = 2 / 3 - 1e-9
    assert saddle_search(BETA_STAR * 0.999, p).region_member
    assert not saddle_search(BETA_STAR * 1.001, p).region_member


def test_no_entangled_werner_state_is_a_region_member_above_beta_star():
    grid = (*np.round(np.arange(0.05, 0.66, 0.05), 12), 2 / 3 - 1e-9)
    for beta in np.logspace(np.log10(1.001 * BETA_STAR), 8, 23):
        scan = equipartition_scan(grid, beta)
        assert not any(sad.region_member for sad in scan.saddles), beta


def test_scan_is_seed_reproducible():
    grid = (0.5, 0.9, 1.0)
    a = equipartition_scan(grid, 10.0)
    b = equipartition_scan(grid, 10.0)
    assert a.saddles == b.saddles
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


def test_avg_energy_at_tiny_beta_is_accurate_or_refused():
    # as beta -> 0 <<E_1>> tends to a constant (~8.24 at p = 0.9); below
    # beta ~1e-9 the closed form cancels, and below ~1e-155 256 beta^2 and
    # <x> underflow (at 1e-160 <x> has lost 4 digits, at 1e-165 it is 0)
    ref = avg_energy_werner(1e-8, 0.9)
    refused = 0
    for beta in 10.0 ** np.arange(-300.0, -7.9):
        try:
            assert abs(avg_energy_werner(beta, 0.9) / ref - 1) < 1e-6, beta
        except QuadratureError:
            refused += 1
    assert refused == 292  # every beta up to 1e-9


def test_avg_energy_equipartition_plateau():
    # beta * <<E>> stays within a few percent of 1 across two decades
    vals = [b * avg_energy_werner(b, 0.9) for b in (10.0, 100.0, 1000.0)]
    assert all(0.9 < v < 1.05 for v in vals)
    cv = np.std(vals) / np.mean(vals)
    assert cv < 0.10


def test_avg_energy_runs_no_quadrature_beyond_its_saddle(monkeypatch):
    points = []  # the points of each _moments call

    def counted(*args):
        points.extend(args[0])
        return _moments(*args)

    monkeypatch.setattr(werner, "_moments", counted)
    for beta, p in ((10.0, 0.9), (1e4, 1.0)):
        iterations = saddle_search(beta, p).iterations
        points.clear()
        avg_energy_werner(beta, p)
        assert len(points) == iterations
