"""Generalized concurrence: the direct form, checked against the
antisymmetric-component and determinant oracles, the product test it
gives, and the h-matrix contractions."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (concurrence_sq_skew, det_product_test, h_matrices_skew, h_matrix,
                     skew_basis)
from sepmech import (DensityMatrix, PureState, concurrence_sq, cost_operator,
                     eigen_ensemble, haar_unitary, werner_eigenensemble)

SINGLET = PureState(2, 2, np.array([0, 1, -1, 0]) / np.sqrt(2))


def _is_product(psi, tol=1e-9):
    """The product test of a nonzero vector: c2(psi) / ||psi||^4 < tol."""
    return concurrence_sq(psi) / psi.norm() ** 4 < tol


def _random_pure(rng, m, n, normalize=True):
    v = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    if normalize:
        v = v / np.linalg.norm(v)
    return PureState(m, n, v)


def test_concurrence_product_vector_vanishes():
    assert concurrence_sq(PureState(2, 2, [1, 0, 0, 0])) == 0.0


def test_concurrence_singlet_is_half():
    assert abs(concurrence_sq(SINGLET) - 0.5) < 1e-14


def test_concurrence_subnormalized_singlet():
    for p in (0.1, 0.5, 0.9):
        psi = PureState(2, 2, np.sqrt(p) * SINGLET.amps)
        assert abs(concurrence_sq(psi) - p * p * 0.5) < 1e-13


@given(seed=st.integers(0, 10**6), t=st.floats(0.1, 3.0),
       m=st.integers(2, 3), n=st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_concurrence_quartic_homogeneity(seed, t, m, n):
    rng = np.random.default_rng(seed)
    psi = _random_pure(rng, m, n, normalize=False)
    scaled = PureState(m, n, t * psi.amps)
    c = concurrence_sq(psi)
    assert abs(concurrence_sq(scaled) - t**4 * c) < 1e-10 * max(1.0, t**4 * c)


@given(seed=st.integers(0, 10**6), m=st.integers(2, 3), n=st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_concurrence_local_unitary_invariance(seed, m, n):
    rng = np.random.default_rng(seed)
    psi = _random_pure(rng, m, n)
    ua, ub = haar_unitary(m, rng), haar_unitary(n, rng)
    rot = PureState(m, n, np.kron(ua, ub) @ psi.amps)
    assert abs(concurrence_sq(rot) - concurrence_sq(psi)) < 1e-10


@given(seed=st.integers(0, 10**6), m=st.integers(2, 3), n=st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_skew_form_equals_direct_form(seed, m, n):
    rng = np.random.default_rng(seed)
    psi = _random_pure(rng, m, n, normalize=False)
    got = concurrence_sq_skew(psi, skew_basis(m), skew_basis(n))
    assert abs(got - concurrence_sq(psi)) < 1e-10


def test_skew_form_singlet_single_term():
    got = concurrence_sq_skew(SINGLET, skew_basis(2), skew_basis(2))
    assert abs(got - 0.5) < 1e-14


def test_skew_basis_dimensions_and_orthonormality():
    for m in (2, 3, 4):
        basis = skew_basis(m)
        assert basis.shape[0] == m * (m - 1) // 2
        gram = basis.conj() @ basis.T
        assert np.max(np.abs(gram - np.eye(basis.shape[0]))) < 1e-12
        # antisymmetry under factor swap
        for v in basis:
            assert np.max(np.abs(v.reshape(m, m) + v.reshape(m, m).T)) < 1e-12
    with pytest.raises(ValueError):
        skew_basis(1)


def test_skew_basis_m2_is_singlet_direction():
    basis = skew_basis(2)
    assert np.allclose(basis[0], np.array([0, 1, -1, 0]) / np.sqrt(2),
                       atol=1e-15)


def test_is_product_examples():
    plus1 = PureState(2, 2, np.array([0, 1, 0, 1]) / np.sqrt(2))
    assert _is_product(plus1)
    assert not _is_product(SINGLET)


def test_is_product_weakly_entangled_state():
    th = 0.01
    psi = PureState(2, 2, [np.cos(th), 0, 0, np.sin(th)])
    assert not _is_product(psi, tol=1e-12)
    assert abs(concurrence_sq(psi) - np.sin(2 * th) ** 2 / 2) < 1e-12


@given(seed=st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_is_product_matches_schmidt_rank(seed):
    rng = np.random.default_rng(seed)
    if seed % 2:
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        psi = PureState(2, 3, v)
    else:
        psi = _random_pure(rng, 2, 3)
    sv = np.linalg.svd(psi.coeff_matrix(), compute_uv=False)
    schmidt_rank_one = sv[1] < 1e-8
    assert _is_product(psi) == schmidt_rank_one


def test_det_product_test_values():
    assert abs(det_product_test(PureState(2, 2, [1, 0, 0, 0]))) < 1e-14
    assert abs(det_product_test(SINGLET) - 0.25) < 1e-14
    with pytest.raises(ValueError):
        det_product_test(PureState(2, 2, [2, 0, 0, 0]))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_det_product_test_agrees_with_is_product(seed):
    rng = np.random.default_rng(seed)
    if seed % 2:
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        psi = PureState(2, 2, v)
    else:
        psi = _random_pure(rng, 2, 2)
    assert (abs(det_product_test(psi)) < 1e-9) == _is_product(psi)


def test_h_matrices_werner_is_pinned_diagonal():
    for p in (0.1, 0.4, 2 / 3, 0.9, 1.0):
        hset = cost_operator(werner_eigenensemble(p)).hset
        assert hset.matrices.shape == (1, 1, 4, 4)
        assert np.max(np.abs(hset.matrices[0, 0] - h_matrix(p))) < 1e-12


def test_h_matrices_product_eigenvector_vanishes():
    rho = DensityMatrix(2, 2, np.diag([1.0, 0, 0, 0]))
    hset = cost_operator(eigen_ensemble(rho)).hset
    assert hset.matrices.shape == (1, 1, 1, 1)
    assert abs(hset.matrices[0, 0, 0, 0]) < 1e-14


def test_h_matrices_count_for_larger_dims(rng, random_density):
    rho = random_density(rng, 3, 3)
    ens = eigen_ensemble(rho)
    hset = cost_operator(ens).hset
    assert hset.matrices.shape == (3, 3, 9, 9)
    # c^2 of each subnormalized eigenvector from the h contraction
    for k, v in enumerate(ens.vectors):
        z = np.zeros(9, dtype=complex)
        z[k] = 1.0
        quad = sum(abs(z @ hset.matrices[a, b] @ z) ** 2
                   for a in range(3) for b in range(3))
        assert abs(2.0 * quad - concurrence_sq(v)) < 1e-12


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_h_matrices_from_minor_rows_match_the_skew_basis_einsum(m, n, rng, random_density):
    # the library symmetrizes outer products of each minor's amplitude rows;
    # the oracle contracts the skew bases with e_alpha (x) e_beta
    for rank in (1, m * n):
        ens = eigen_ensemble(random_density(rng, m, n, rank))
        got = cost_operator(ens).hset.matrices
        want = h_matrices_skew(ens)
        assert got.shape == want.shape == (m * (m - 1) // 2, n * (n - 1) // 2, rank, rank)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
