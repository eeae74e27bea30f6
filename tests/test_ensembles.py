"""Stiefel-manifold parametrization of the decompositions of a fixed state."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import Q_ROUNDING, ginibre_unblocked, stiefel_batch_unblocked, stiefel_from_gs
from sepmech import ensembles, statmech
from sepmech import (Ensemble, StiefelPoint, caratheodory_length,
                     constraint_residual, eigen_ensemble, ensemble_from_stiefel,
                     haar_stiefel, haar_unitary, werner_state)


def test_stiefel_point_validates_columns():
    z = np.zeros((4, 2), dtype=complex)
    z[0, 0] = z[1, 1] = 1.0
    pt = StiefelPoint(4, 2, z)
    assert pt.N == 4 and pt.r == 2
    with pytest.raises(ValueError):
        StiefelPoint(4, 2, 1.1 * z)
    with pytest.raises(ValueError):
        StiefelPoint(4, 3, z)


def test_constraint_residual_zero_on_manifold():
    pt = haar_stiefel(9, 4, seed=1)
    assert np.max(np.abs(constraint_residual(pt))) < 1e-12


def test_constraint_residual_of_scaled_point():
    pt = haar_stiefel(5, 2, seed=2)
    for c in (0.5, 2.0, 1.0 + 1.0j):
        res = constraint_residual(c * pt.z)
        assert np.max(np.abs(res - (abs(c) ** 2 - 1) * np.eye(2))) < 1e-12


@given(seed=st.integers(0, 10**6), N=st.integers(2, 6), r=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_constraint_residual_matches_naive_loop(seed, N, r):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((N, r)) + 1j * rng.standard_normal((N, r))
    res = constraint_residual(z)
    naive = np.empty((r, r), dtype=complex)
    for a in range(r):
        for b in range(r):
            naive[a, b] = sum(z[i, a].conjugate() * z[i, b] for i in range(N)) \
                - (1.0 if a == b else 0.0)
    assert np.max(np.abs(res - naive)) < 1e-12


def test_identity_block_recovers_eigenensemble():
    ens = eigen_ensemble(werner_state(0.5))
    z = np.zeros((7, 4), dtype=complex)
    z[:4, :4] = np.eye(4)
    re = ensemble_from_stiefel(StiefelPoint(7, 4, z), ens)
    assert len(re.vectors) == 7
    for got, ref in zip(re.vectors[:4], ens.vectors):
        assert np.allclose(got.amps, ref.amps, atol=1e-14)
    for got in re.vectors[4:]:
        assert np.max(np.abs(got.amps)) < 1e-14


@pytest.mark.parametrize("m, n, rank", [(2, 2, 4), (2, 3, 2), (3, 3, 9)])
def test_both_ensemble_maps_return_one_record(rng, random_density, m, n, rank):
    # the eigenensemble and its Stiefel images are one record, whose amps is
    # the C-contiguous stack of its vectors' amplitudes
    ens = eigen_ensemble(random_density(rng, m, n, rank))
    re = ensemble_from_stiefel(haar_stiefel(rank + 3, rank, rng), ens)
    for e, k in ((ens, rank), (re, rank + 3)):
        assert type(e) is Ensemble and (e.dimA, e.dimB, e.rank) == (m, n, k)
        assert e.amps.flags.c_contiguous and e.amps.shape == (k, m * n)
        assert np.array_equal(e.amps, np.stack([v.amps for v in e.vectors]))


@given(seed=st.integers(0, 10**6), N=st.integers(4, 16))
@settings(max_examples=40, deadline=None)
def test_stiefel_ensemble_reconstructs_state(seed, N):
    ens = eigen_ensemble(werner_state(0.5))
    re = ensemble_from_stiefel(haar_stiefel(N, 4, seed), ens)
    assert np.max(np.abs(re.reconstruct() - werner_state(0.5).mat)) < 1e-10


def test_ensemble_rank_mismatch_raises():
    ens = eigen_ensemble(werner_state(0.5))
    with pytest.raises(ValueError):
        ensemble_from_stiefel(haar_stiefel(8, 3, seed=0), ens)


def test_row_permutation_permutes_ensemble():
    ens = eigen_ensemble(werner_state(0.3))
    pt = haar_stiefel(6, 4, seed=9)
    perm = np.random.default_rng(0).permutation(6)
    re = ensemble_from_stiefel(pt, ens)
    rp = ensemble_from_stiefel(StiefelPoint(6, 4, pt.z[perm]), ens)
    for i, j in enumerate(perm):
        assert np.allclose(rp.vectors[i].amps, re.vectors[j].amps, atol=1e-14)
    assert np.max(np.abs(rp.reconstruct() - re.reconstruct())) < 1e-12


def test_gs_chart_identity_case():
    z = stiefel_from_gs(np.zeros((3, 2)), np.eye(2))
    expect = np.zeros((5, 2))
    expect[0, 0] = expect[1, 1] = 1.0
    assert np.allclose(z.z, expect, atol=1e-14)


@given(seed=st.integers(0, 10**6), N=st.integers(3, 8), r=st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_gs_chart_lands_on_manifold(seed, N, r):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((N - r, r)) + 1j * rng.standard_normal((N - r, r))
    z = stiefel_from_gs(v, haar_unitary(r, rng))
    assert np.max(np.abs(constraint_residual(z))) < 1e-12
    assert z.N == N and z.r == r


@given(seed=st.integers(0, 10**6), N=st.integers(1, 12), r=st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_gs_chart_top_block_is_triangular_with_positive_diagonal(seed, N, r):
    # z U^dag = Q with Q R = (1_r on v) and R's diagonal positive real, so
    # the top block of z U^dag is R^{-1}; this pins the chart uniquely
    r = min(r, N)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((N - r, r)) + 1j * rng.standard_normal((N - r, r))
    u = haar_unitary(r, rng)
    top = (stiefel_from_gs(v, u).z @ u.conj().T)[:r]
    assert np.max(np.abs(np.tril(top, -1))) < 1e-12
    diag = np.diagonal(top)
    assert np.max(np.abs(diag.imag)) < 1e-12 and diag.real.min() > 0


def both_kernels(b, passes):
    """The Q of each Cholesky-QR kernel for one N x r block b, which is
    not overwritten: the batched LAPACK one, then the batch-last one."""
    return (ensembles._phase_fixed_q(b[None].copy(), passes)[0],
            ensembles._batch_last_q(b.T[..., None].copy(), passes)[..., 0].T)


def test_gs_chart_lands_on_manifold_for_large_free_blocks():
    # the two-pass Cholesky-QR of the chart's block (1_r; v) with |v| ~ 1e6,
    # cond ~ 1e6, is orthonormal to rounding and is the chart's Q to
    # cond eps, the conditioning of Q itself: over 1200 such blocks the
    # largest difference was 1.9 cond eps.  Both kernels factor every block,
    # whichever of them the block's shape would pick
    rng = np.random.default_rng(6)
    for N, r in [(3, 2), (5, 2), (8, 3), (12, 5), (40, 4)]:
        v = 1e6 * (rng.standard_normal((N - r, r)) + 1j * rng.standard_normal((N - r, r)))
        b = np.vstack([np.eye(r), v])
        bound = 20 * np.linalg.cond(b) * np.finfo(float).eps
        for q in both_kernels(b, 2):
            assert np.max(np.abs(constraint_residual(q))) < 1e-12
            assert np.max(np.abs(q - stiefel_from_gs(v, np.eye(r)).z)) < bound


def test_gs_chart_is_deterministic():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    u = haar_unitary(2, seed=8)
    a, b = stiefel_from_gs(v, u), stiefel_from_gs(v.copy(), u.copy())
    assert np.array_equal(a.z, b.z)


def test_gs_chart_rejects_non_unitary_frame():
    with pytest.raises(ValueError):
        stiefel_from_gs(np.zeros((2, 2)), np.eye(2) * 1.01)


def test_haar_stiefel_shape_and_determinism():
    pt = haar_stiefel(10, 3, seed=6)
    assert pt.z.shape == (10, 3)
    assert np.max(np.abs(constraint_residual(pt))) < 1e-12
    assert np.array_equal(pt.z, haar_stiefel(10, 3, seed=6).z)
    with pytest.raises(ValueError):
        haar_stiefel(2, 3, seed=0)


def test_haar_stiefel_square_case_is_unitary():
    pt = haar_stiefel(4, 4, seed=13)
    assert np.max(np.abs(pt.z @ pt.z.conj().T - np.eye(4))) < 1e-12


def test_haar_stiefel_entry_marginal():
    # |z_11|^2 averages to 1/N over draws
    N, reps = 5, 4000
    rng = np.random.default_rng(21)
    vals = np.array([np.abs(haar_stiefel(N, 2, rng).z[0, 0]) ** 2
                     for _ in range(reps)])
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 1.0 / N) < 3 * se


def test_caratheodory_length_values():
    assert caratheodory_length(2, 2) == 16
    assert caratheodory_length(2, 4) == 64
    assert caratheodory_length(1, 1) == 1
    with pytest.raises(ValueError):
        caratheodory_length(0, 2)


# the sampler's one-pass Q of a Ginibre stack (count, N, r) by the kernel its
# shape picks: 16 x 4 is factored batch-last, 81 x 9 by the batched LAPACK calls
SELECTED_KERNEL = {
    (16, 4): lambda g: ensembles._batch_last_q(np.ascontiguousarray(g.T), 1).T,
    (81, 9): lambda g: ensembles._phase_fixed_q(g, 1),
}


@pytest.mark.parametrize("N, r", [(16, 4), (81, 9)])
def test_blocked_sampler_is_bit_identical_to_unblocked(N, r):
    # filling one buffer gives the bits of the selected kernel's one-pass
    # Cholesky-QR (N >= r^2 here) of the summed blocks, and the same Q as the
    # Householder QR of those blocks to rounding (oracles.Q_ROUNDING)
    for count in (1, 2, 48, 257):
        a, b, c = (np.random.default_rng(count) for _ in range(3))
        got = ensembles._stiefel_batch(N, r, count, a)
        assert np.array_equal(got, SELECTED_KERNEL[N, r](ginibre_unblocked(N, r, count, c)))
        assert np.max(np.abs(got - stiefel_batch_unblocked(N, r, count, b))) <= Q_ROUNDING
        # both leave the generator in the same state
        assert np.array_equal(a.standard_normal(8), b.standard_normal(8))


def assert_thin_qr(q, g):
    """q is the Q of the thin QR g = Q R whose R has a positive real
    diagonal: R = Q^dag g is upper-triangular with that diagonal, Q is
    orthonormal and Q R gives back g.

    Orthonormality is held to 4e-15, twice the worst ||Q^dag Q - 1||_max
    measured over 8000 draws at N = 81, r = 9: 2.2e-15 for one Cholesky-QR
    pass (the Householder QR reached 1.9e-15 on the same blocks).
    """
    eye = np.eye(q.shape[-1])
    r = q.conj().swapaxes(-1, -2) @ g
    scale = np.abs(r).max(axis=(-2, -1), keepdims=True)
    assert np.max(np.abs(np.tril(r, -1)) / scale) <= 1e-12
    d = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.max(np.abs(d.imag) / scale[..., 0]) <= 1e-12 and d.real.min() > 0
    assert np.max(np.abs(q.conj().swapaxes(-1, -2) @ q - eye)) <= 4e-15
    assert np.max(np.abs(q @ r - g) / np.abs(g).max(axis=(-2, -1), keepdims=True)) <= 1e-13


@pytest.mark.parametrize("N, r", [(4, 4), (9, 9), (5, 4), (10, 9), (16, 4), (81, 9),
                                  (36, 3), (36, 6), (81, 2)])
def test_haar_draw_is_the_phase_fixed_thin_qr(N, r):
    # whole sampler sub-blocks on both sides of the kernel rule: N r^2 <= 512,
    # (4, 4), (5, 4), (16, 4), (36, 3) and (81, 2), is factored batch-last and
    # the rest by LAPACK; N < r^2 takes the second Cholesky-QR pass and
    # N >= r^2 only one
    count = statmech._sub_blocks(N, r, statmech._QR_ENTRIES)[0].stop
    for seed in range(4):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_thin_qr(ensembles._stiefel_batch(N, r, count, a), ginibre_unblocked(N, r, count, b))


@pytest.mark.parametrize("d", [2, 4, 16])
def test_haar_unitary_is_the_phase_fixed_qr(d):
    for seed in range(50):
        assert_thin_qr(haar_unitary(d, seed), ginibre_unblocked(d, d, 1, np.random.default_rng(seed))[0])


@pytest.mark.parametrize("d", [1, 2, 9, 16, 81])
def test_haar_unitary_is_the_samplers_square_draw(d):
    # d <= 8 takes the batch-last kernel and the rest LAPACK; 16 and 81 are
    # the sizes the benchmark's Haar oracle draws
    a, b = np.random.default_rng(d), np.random.default_rng(d)
    assert np.array_equal(haar_unitary(d, a), ensembles._stiefel_batch(d, d, 1, b)[0])
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("N, r", [(4, 2), (81, 9)])
def test_a_rank_deficient_block_raises_in_either_kernel(N, r, passes):
    # the first two columns are both all ones, so the second Cholesky pivot
    # is exactly zero in either kernel (two equal Ginibre columns leave a
    # pivot of rounding size and either sign); both kernels factor each
    # block, and each raises rather than warn and return NaN
    b = ginibre_unblocked(N, r, 1, np.random.default_rng(N))[0]
    b[:, :2] = 1.0
    for kernel in (lambda: ensembles._phase_fixed_q(b[None].copy(), passes),
                   lambda: ensembles._batch_last_q(b.T[..., None].copy(), passes)):
        with pytest.raises(np.linalg.LinAlgError):
            kernel()
