"""Density-matrix plumbing: tensor-product order, partial traces,
eigenensembles, Haar unitaries, and the partial-transpose test."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import partial_trace
from sepmech import (DensityMatrix, PureState, eigen_ensemble, haar_unitary,
                     ppt_is_entangled, werner_state)
from sepmech.quantum_core import InvalidInput

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_tensor_product_identities():
    # np.kron is the tensor product in the package's row-major (a, b) order:
    # the partial traces of rho_A (x) rho_B give back its factors
    ra, rb = np.diag([1.0, 0.0]), np.diag([0.25, 0.75])
    rho = DensityMatrix(2, 2, np.kron(ra, rb))
    assert np.array_equal(rho.mat, np.diag([0.25, 0.75, 0.0, 0.0]))
    assert np.allclose(partial_trace(rho, "A"), ra, atol=1e-15)
    assert np.allclose(partial_trace(rho, "B"), rb, atol=1e-15)


def test_tensor_product_flips_basis_state():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.kron(SIGMA_X, SIGMA_X) @ ket00
    assert np.allclose(ket11, [0, 0, 0, 1])
    assert np.allclose(PureState(2, 2, ket11).coeff_matrix(), [[0, 0], [0, 1]])


def test_partial_trace_singlet_is_maximally_mixed():
    psi = PureState(2, 2, np.array([0, 1, -1, 0]) / np.sqrt(2))
    assert np.allclose(partial_trace(psi, "A"), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(psi, "B"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    psi = PureState(2, 2, [1, 0, 0, 0])
    assert np.allclose(partial_trace(psi, "A"), np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_werner_reduction():
    for p in (0.0, 0.3, 1.0):
        red = partial_trace(werner_state(p), "A")
        assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_rejects_bad_tag():
    psi = PureState(2, 2, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        partial_trace(psi, "C")


@given(seed=st.integers(0, 10**6), m=st.integers(2, 3), n=st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_partial_trace_schmidt_symmetry(seed, m, n):
    # nonzero spectra of the two reductions of a pure state coincide
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    psi = PureState(m, n, v / np.linalg.norm(v))
    ea = np.sort(np.linalg.eigvalsh(partial_trace(psi, "A")))[::-1]
    eb = np.sort(np.linalg.eigvalsh(partial_trace(psi, "B")))[::-1]
    k = min(m, n)
    assert np.allclose(ea[:k], eb[:k], atol=1e-10)


def test_density_matrix_validation():
    skew = np.eye(4, dtype=complex) / 4
    skew[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(2, 2, skew)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(2, 2, np.eye(4) / 2)
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(2, 2, np.diag([1.1, -0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="shape|expected"):
        DensityMatrix(2, 2, np.eye(3) / 3)


def test_density_matrix_json_roundtrip(rng, random_density):
    rho = random_density(rng, 2, 3)
    back = DensityMatrix.from_json(rho.to_json())
    assert (back.dimA, back.dimB) == (2, 3)
    assert np.allclose(back.mat, rho.mat, atol=1e-15)


def test_from_json_raises_invalid_input_for_every_malformed_document(
        malformed_state_document):
    with pytest.raises(InvalidInput):
        DensityMatrix.from_json(malformed_state_document)


def test_eigen_ensemble_maximally_mixed():
    ens = eigen_ensemble(werner_state(1.0))
    assert ens.rank == 4
    assert np.allclose([v.norm() ** 2 for v in ens.vectors], 0.25, atol=1e-12)


def test_eigen_ensemble_rank_one():
    rho = DensityMatrix(2, 2, np.diag([1.0, 0, 0, 0]))
    ens = eigen_ensemble(rho)
    assert ens.rank == 1
    assert np.allclose(np.abs(ens.vectors[0].amps), [1, 0, 0, 0], atol=1e-12)


def test_eigen_ensemble_werner_half_norms():
    norms = sorted(v.norm() ** 2 for v in eigen_ensemble(werner_state(0.5)).vectors)
    assert np.allclose(norms, [0.125, 0.125, 0.125, 0.625], atol=1e-12)


def test_eigen_ensemble_takes_no_cutoff():
    # the eigenvalue cutoff is the module constant EIGENVALUE_CUTOFF
    with pytest.raises(TypeError):
        eigen_ensemble(werner_state(0.5), 1e-3)


@given(seed=st.integers(0, 10**6), m=st.integers(2, 3), n=st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_eigen_ensemble_reconstruction(seed, m, n):
    rng = np.random.default_rng(seed)
    d = m * n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = DensityMatrix(m, n, g @ g.conj().T / np.trace(g @ g.conj().T).real)
    rec = eigen_ensemble(rho).reconstruct()
    assert np.max(np.abs(rec - rho.mat)) < 1e-10


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(7, seed=3)
    assert np.max(np.abs(u.conj().T @ u - np.eye(7))) < 1e-12
    assert np.array_equal(u, haar_unitary(7, seed=3))
    assert not np.allclose(u, haar_unitary(7, seed=4))


def test_haar_unitary_d1_is_phase():
    u = haar_unitary(1, seed=0)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_first_entry_marginal():
    # mean |U_11|^2 over many draws approaches 1/d
    d, reps = 4, 4000
    rng = np.random.default_rng(11)
    vals = np.array([np.abs(haar_unitary(d, rng)[0, 0]) ** 2 for _ in range(reps)])
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 1.0 / d) < 3 * se


def test_ppt_werner_boundary():
    assert ppt_is_entangled(werner_state(0.5))
    assert not ppt_is_entangled(werner_state(0.7))
    rho00 = DensityMatrix(2, 2, np.diag([1.0, 0, 0, 0]))
    assert not ppt_is_entangled(rho00)


def test_ppt_grid_matches_separability_threshold():
    for p in np.arange(0.0, 1.0001, 0.05):
        if abs(p - 2.0 / 3.0) < 1e-9:
            continue
        assert ppt_is_entangled(werner_state(p)) == (p < 2.0 / 3.0)


def _isotropic(d: int, f: float) -> DensityMatrix:
    """f |Phi_d><Phi_d| + (1 - f) 1/d^2 on C^d (x) C^d."""
    phi = np.eye(d).ravel() / np.sqrt(d)
    return DensityMatrix(d, d, f * np.outer(phi, phi) + (1 - f) * np.eye(d * d) / d ** 2)


def test_ppt_three_way_verdict(rng, random_density):
    # NPT proves entanglement in any dimension
    assert ppt_is_entangled(werner_state(0.5)) is True
    assert ppt_is_entangled(_isotropic(3, 0.5)) is True
    psi = np.zeros(6)
    psi[[0, 4]] = 1 / np.sqrt(2)
    assert ppt_is_entangled(DensityMatrix(2, 3, 0.8 * np.outer(psi, psi)
                                          + 0.2 * np.eye(6) / 6)) is True
    # PPT proves separability only for mn <= 6 ...
    assert ppt_is_entangled(werner_state(0.7)) is False
    assert ppt_is_entangled(DensityMatrix(2, 3, np.eye(6) / 6)) is False
    # ... and leaves larger systems unresolved
    assert ppt_is_entangled(DensityMatrix(3, 3, np.eye(9) / 9)) is None
    assert ppt_is_entangled(DensityMatrix(2, 4, np.eye(8) / 8)) is None
    assert ppt_is_entangled(random_density(rng, 3, 3)) in (True, None)
