"""Cost function over ensemble space: the h-matrix energy, checked against
the rank-4 tensor oracle and the concurrence sum, and the
multiplier-extended Hamiltonian."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cost_tensor, tensor_energy
from sepmech import (DensityMatrix, LagrangeMultipliers, concurrence_sq,
                     cost_operator, eigen_ensemble, energy,
                     ensemble_from_stiefel, full_hamiltonian,
                     haar_stiefel, haar_unitary, werner_eigenensemble,
                     werner_state)


def _random_density(rng, m, n):
    d = m * n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return DensityMatrix(m, n, g @ g.conj().T / np.trace(g @ g.conj().T).real)


def test_cost_operator_of_product_state_is_zero():
    rho = DensityMatrix(2, 2, np.diag([1.0, 0, 0, 0]))
    ens = eigen_ensemble(rho)
    cop = cost_operator(ens)
    assert cop.r == 1
    assert np.max(np.abs(cost_tensor(ens))) < 1e-14


def test_product_eigenbasis_of_mixed_identity_has_zero_energy():
    # the computational eigenbasis of I/4 is a separable decomposition
    ens = eigen_ensemble(werner_state(1.0))
    # rotate the Bell-like eigenvectors onto the computational product basis
    E = ens.matrix()
    target = np.eye(4, dtype=complex) / 2.0
    z = np.linalg.solve(E.T, target.T).T
    cop = cost_operator(ens)
    assert np.max(np.abs(z.conj().T @ z - np.eye(4))) < 1e-10
    assert abs(energy(z, cop)) < 1e-13


def test_single_row_energy_is_eigenvector_concurrence():
    for p in (0.2, 0.7, 1.0):
        ens = werner_eigenensemble(p)
        cop = cost_operator(ens)
        row = np.array([1.0, 0, 0, 0], dtype=complex)
        assert abs(energy(row, cop) - (1 - 3 * p / 4) ** 2 / 2) < 1e-13
        row2 = np.array([0, 1.0, 0, 0], dtype=complex)
        assert abs(energy(row2, cop) - (p / 4) ** 2 / 2) < 1e-13


@given(seed=st.integers(0, 10**6), m=st.integers(2, 3), n=st.integers(2, 3),
       N=st.integers(4, 12))
@settings(max_examples=30, deadline=None)
def test_energy_equals_concurrence_sum(seed, m, n, N):
    rng = np.random.default_rng(seed)
    rho = _random_density(rng, m, n)
    ens = eigen_ensemble(rho)
    if N < ens.rank:
        N = ens.rank
    z = haar_stiefel(N, ens.rank, rng)
    direct = sum(concurrence_sq(psi)
                 for psi in ensemble_from_stiefel(z, ens).vectors)
    got = energy(z, cost_operator(ens))
    assert abs(got - direct) < 1e-10 * max(1.0, direct)
    assert abs(tensor_energy(z, cost_tensor(ens)) - direct) < 1e-10 * max(1.0, direct)
    assert got >= 0.0


def test_energy_additive_over_rows(rng):
    ens = werner_eigenensemble(0.6)
    cop = cost_operator(ens)
    z = haar_stiefel(6, 4, rng).z
    total = energy(z, cop)
    assert abs(total - sum(energy(z[i], cop) for i in range(6))) < 1e-12


def test_energy_of_a_stack_is_per_matrix(rng):
    cop = cost_operator(werner_eigenensemble(0.6))
    zs = np.stack([haar_stiefel(6, 4, rng).z for _ in range(5)])
    got = energy(zs, cop)
    assert got.shape == (5,)
    want = np.array([energy(z, cop) for z in zs])
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(want)
    assert energy(zs[:, :1, :], cop).shape == (5,)


def test_energy_column_mismatch_raises(rng):
    cop = cost_operator(werner_eigenensemble(0.5))
    with pytest.raises(ValueError):
        energy(haar_stiefel(5, 3, rng).z, cop)


def test_energy_local_unitary_class_invariance(rng):
    # eigenensembles of rho and (UA x UB) rho (UA x UB)^dag give the same
    # energy landscape at corresponding Stiefel points
    for _ in range(5):
        rho = _random_density(rng, 2, 2)
        ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
        u = np.kron(ua, ub)
        rot = DensityMatrix(2, 2, u @ rho.mat @ u.conj().T)
        ens, ens_rot = eigen_ensemble(rho), eigen_ensemble(rot)
        # map z through the frame change between the two eigenbases
        W = np.linalg.solve(ens_rot.matrix().T, (u @ ens.matrix().T))
        z = haar_stiefel(7, ens.rank, rng).z
        zr = z @ W.T
        assert np.max(np.abs(zr.conj().T @ zr - np.eye(ens.rank))) < 1e-9
        e1 = energy(z, cost_operator(ens))
        e2 = energy(zr, cost_operator(ens_rot))
        assert abs(e1 - e2) < 1e-10 * max(1.0, e1)


def test_energy_via_h_single_row_reduction():
    p = 0.8
    cop = cost_operator(werner_eigenensemble(p))
    row = np.array([0, 1.0, 0, 0], dtype=complex)
    assert abs(energy(row, cop) - 2 * (p / 8) ** 2) < 1e-14


def test_lagrange_multiplier_validation():
    LagrangeMultipliers(np.diag([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        LagrangeMultipliers(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        LagrangeMultipliers(np.ones((2, 3)))
    assert LagrangeMultipliers(np.diag([1.0, -1.0])).is_positive_definite() is False
    assert LagrangeMultipliers(np.eye(3)).is_positive_definite() is True


def test_full_hamiltonian_on_and_off_manifold(rng):
    ens = werner_eigenensemble(0.7)
    cop = cost_operator(ens)
    omega = np.diag([1.0, 2.0, 3.0, 4.0])
    lm = LagrangeMultipliers(omega)
    z = haar_stiefel(9, 4, rng)
    assert abs(full_hamiltonian(z, cop, lm) - energy(z, cop)) < 1e-10
    z0 = np.zeros((9, 4), dtype=complex)
    assert abs(full_hamiltonian(z0, cop, lm) + np.trace(omega)) < 1e-12


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_full_hamiltonian_matches_naive_loop(seed):
    rng = np.random.default_rng(seed)
    ens = werner_eigenensemble(0.5)
    cop = cost_operator(ens)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    omega = g @ g.conj().T + 0.1 * np.eye(4)
    lm = LagrangeMultipliers(omega)
    z = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    con = z.conj().T @ z - np.eye(4)
    naive = energy(z, cop) + sum(omega[a, b] * con[a, b]
                                 for a in range(4) for b in range(4)).real
    assert abs(full_hamiltonian(z, cop, lm) - naive) < 1e-10
