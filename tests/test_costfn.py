"""Cost function over ensemble space: the minors energy kernel, checked
against the h-form and rank-4 tensor oracles and the concurrence sum, and
the multiplier-extended Hamiltonian."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cost_tensor, full_hamiltonian, h_form_energy, tensor_energy
from sepmech.ensembles import _stiefel_batch
from sepmech import (DensityMatrix, LagrangeMultipliers, StiefelPoint,
                     concurrence_sq, cost_operator, eigen_ensemble, energy,
                     ensemble_from_stiefel, haar_stiefel, haar_unitary,
                     werner_eigenensemble, werner_state)


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
    E = ens.amps
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


def test_energy_of_an_empty_stack_is_empty():
    cop = cost_operator(werner_eigenensemble(0.6))
    got = energy(np.ones((0, 16, 4)), cop)
    assert isinstance(got, np.ndarray) and got.shape == (0,)


def _batch_last(z):
    """z with the same values, laid out as the sampler's batch-last Q: a
    Fortran-ordered stack, row n of matrix c at n * count + c."""
    return np.ascontiguousarray(z.T).T


@pytest.mark.parametrize("m, n, rank, stack", [(2, 2, 4, (576, 16)), (3, 3, 9, (50, 81)),
                                               (2, 3, 6, (3, 5, 36)), (2, 2, 4, (1, 4))])
def test_energy_of_a_batch_last_stack_matches_its_c_copy(random_density, m, n, rank, stack):
    # the Fortran-ordered stack is summed in its own memory order, so it
    # agrees with the C-ordered copy to rounding, stack axes included
    rng = np.random.default_rng(m * n + rank + len(stack))
    cop = cost_operator(eigen_ensemble(random_density(rng, m, n, rank)))
    z = _batch_last(rng.standard_normal(stack + (rank,)) + 1j * rng.standard_normal(stack + (rank,)))
    assert np.isfortran(z)
    want = energy(np.ascontiguousarray(z), cop)
    got = energy(z, cop)
    assert got.shape == stack[:-1]
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_energy_reads_the_samplers_batch_last_q_without_a_copy():
    # a re-layout copy of the 2x2 sampler's (576, 16, 4) Q would be alive
    # beside the amplitudes, past the peak of the minors that follow
    cop = cost_operator(werner_eigenensemble(0.2))
    z = _stiefel_batch(16, 4, 576, np.random.default_rng(5))
    zc = np.ascontiguousarray(z)
    assert np.isfortran(z)

    def peak(stack):
        tracemalloc.start()
        try:
            energy(stack, cop)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(z) <= peak(zc)


# (m, n, rank, N): the two sampler shapes keep their ids; each shape also
# runs at N = 1, the (samples, 1, r) stack of one-row ensembles that z1_mc
# passes, and at N = r
_KERNEL_CASES = [pytest.param(2, 2, 4, 16, id="2-16"), pytest.param(3, 3, 9, 81, id="3-81")] + [
    pytest.param(m, n, rank, N, id=f"{m}x{n}-rank{rank}-N{N}")
    for m, n, rank in ((2, 2, 4), (2, 3, 6), (3, 2, 6), (3, 3, 9), (3, 3, 4), (3, 4, 12))
    for N in (1, rank)]


@pytest.mark.parametrize("m, n, rank, N", _KERNEL_CASES)
def test_energy_matches_tensor_oracle_across_row_blocks(m, n, rank, N, random_density):
    # the minors kernel against the h form built from cop.hset and the
    # rank-4 tensor, on stacks of one, two and many matrices, each evaluated
    # in one pass
    rng = np.random.default_rng(12345 + 10 * m + n + rank + N)
    ens = eigen_ensemble(random_density(rng, m, n, rank))
    assert ens.rank == rank
    cop, tensor = cost_operator(ens), cost_tensor(ens)

    def check(z, shape):
        got = energy(z, cop)
        assert np.shape(got) == shape
        assert np.max(np.abs(got - h_form_energy(z, cop.hset)) / got) < 1e-13
        # the tensor form rounds at the scale of sum_i ||psi_i||^4, which bounds
        # E(z) and exceeds it by orders of magnitude on a row near a product vector
        zm = z.z if isinstance(z, StiefelPoint) else np.asarray(z)
        psi = np.atleast_2d(zm) @ ens.amps
        norm4 = np.sum(np.sum(np.abs(psi) ** 2, axis=-1) ** 2, axis=-1)
        assert np.max(np.abs(got - tensor_energy(z, tensor)) / norm4) < 1e-13

    for count in (1, 2, 65):
        zs = (_stiefel_batch(N, rank, count, rng) if N >= rank
              else rng.standard_normal((count, N, rank)) + 1j * rng.standard_normal((count, N, rank)))
        check(zs, (count,))
    if N >= rank:
        pt = haar_stiefel(N, rank, rng)
        for z in (pt, pt.z, pt.z[0]):
            check(z, ())
            assert isinstance(energy(z, cop), float)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
def test_product_decomposition_of_a_separable_state_has_zero_energy(m, n):
    # rho = sum_k psi_k psi_k^dag over product vectors psi_k = a_k (x) b_k; the
    # Stiefel point z with z @ E = Psi is a separable decomposition, so every
    # 2x2 minor of every psi_k vanishes and E(z) is zero up to rounding
    rng = np.random.default_rng(2024 + m * n)
    K = m * n + 3
    a = rng.standard_normal((K, m)) + 1j * rng.standard_normal((K, m))
    b = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
    psi = np.einsum("ki,kj->kij", a, b).reshape(K, m * n)
    mat = psi.T @ psi.conj()
    psi /= np.sqrt(np.trace(mat).real)
    ens = eigen_ensemble(DensityMatrix(m, n, mat / np.trace(mat).real))
    assert ens.rank == m * n
    z = psi @ np.linalg.pinv(ens.amps)
    assert np.max(np.abs(z.conj().T @ z - np.eye(ens.rank))) < 1e-10
    assert np.max(np.abs(z @ ens.amps - psi)) < 1e-12
    assert energy(z, cost_operator(ens)) <= 1e-28


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
        W = np.linalg.solve(ens_rot.amps.T, (u @ ens.amps.T))
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
