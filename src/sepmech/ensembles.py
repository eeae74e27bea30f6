"""Ensemble space of a mixed state.

Every decomposition rho = sum_i |psi_i><psi_i| of length N is reachable from
a fixed eigenvector ensemble {e_alpha} through an N x r matrix z with
orthonormal columns (z^dag z = 1), via psi_i = sum_alpha z_{i alpha} e_alpha.
The z matrices form the complex Stiefel manifold V_{N,r}; this module
provides points on it (Haar sampling and Haar unitaries, all drawn by
`_ginibre` and factored in place by `_stiefel_batch`), the constraint
residual, and reconstruction of ensembles.  The paper's explicit chart,
Gram-Schmidt of the identity stacked on a free block, is kept in the test
suite as an independent oracle for the module's Cholesky-QR.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum_core import Ensemble, InvalidInput, _require_count


@dataclass(frozen=True)
class StiefelPoint:
    """N x r complex matrix z with z^dag z = 1 (orthonormal columns)."""

    N: int
    r: int
    z: np.ndarray

    def __post_init__(self):
        _require_count(self.N, "N", _require_count(self.r, "r"))
        z = np.asarray(self.z, dtype=complex)
        object.__setattr__(self, "z", z)
        if z.shape != (self.N, self.r):
            raise InvalidInput(f"z has shape {z.shape}, expected ({self.N}, {self.r})")
        if not np.isfinite(z).all():  # before the residual, which would warn on inf
            raise InvalidInput("z must be finite")
        res = constraint_residual(z)
        if not np.max(np.abs(res)) <= 1e-10:
            raise InvalidInput("columns are not orthonormal")


def constraint_residual(z) -> np.ndarray:
    """z^dag z - 1, the r x r Hermitian constraint matrix; zero on V_{N,r}."""
    if isinstance(z, StiefelPoint):
        z = z.z
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2:
        raise InvalidInput(f"z has {z.ndim} axes, expected an N x r matrix")
    return z.conj().T @ z - np.eye(z.shape[1])


def ensemble_from_stiefel(z: StiefelPoint, ens: Ensemble) -> Ensemble:
    """The length-N ensemble psi_i = sum_alpha z_{i alpha} e_alpha."""
    if z.r != ens.rank:
        raise InvalidInput(f"z has {z.r} columns but the ensemble has rank {ens.rank}")
    return Ensemble(ens.dimA, ens.dimB, z.z @ ens.amps)


def _phase_fixed_q(b: np.ndarray, passes: int) -> np.ndarray:
    """Q of the thin QR factorization b = Q R of b (..., N, r) whose R has a
    positive real diagonal: the unique such factorization of a full-rank
    block, and the one whose Q is Haar-distributed when b is a Ginibre block
    (Mezzadri, math-ph/0609050).  Computed as `passes` Cholesky-QR passes:
    R is the conjugate transpose of the Cholesky factor of the Gram matrix
    b^dag b, and Q = b R^{-1}.  One pass loses orthogonality like
    cond(b)^2 eps; a second pass over its Q (CholQR2: Fukaya et al., ScalA
    2014; Yamamoto et al., ETNA 44, 306 (2015)) leaves it orthonormal to
    rounding.  b is overwritten with Q and returned.  Raises numpy's
    LinAlgError when a Gram matrix is not numerically positive definite.
    Each batched call loops over the stacked matrices in LAPACK."""
    for _ in range(passes):
        gram = np.matmul(b.conj().swapaxes(-1, -2), b)
        r_inv = np.linalg.inv(np.linalg.cholesky(gram).conj().swapaxes(-1, -2))
        np.matmul(b, r_inv, out=b)
    return b


def _batch_last_q(g: np.ndarray, passes: int) -> np.ndarray:
    """The Q of `_phase_fixed_q` for a stack laid out batch-last: g is
    (r, N, count), column a of matrix c being g[a, :, c], and every numpy
    call spans the whole stack instead of looping over its matrices in
    LAPACK.  Each pass forms the Gram matrices A[a, b] = sum_n conj(g[a, n])
    g[b, n] for b >= a, turns their upper triangles in place into R with
    A = R^dag R by a right-looking Cholesky, and solves Q R = g by the
    forward substitution Q_k = (g_k - sum_{j<k} Q_j R_jk) / R_kk.  g is
    overwritten with Q and returned.  Like LAPACK, it raises numpy's
    LinAlgError, and warns of nothing, when a pivot is not positive in some
    matrix of a finite stack; a Ginibre block has one with probability 0."""
    r = g.shape[0]
    a = np.zeros((r, r, g.shape[2]), dtype=complex)  # the lower triangle is scratch
    t = np.empty_like(g)
    try:
        # a pivot that is not positive trips the divide or invalid flag of
        # 1 / sqrt(pivot): no test of the pivots slows the stacks that pass
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            for _ in range(passes):
                for i in range(r):
                    np.multiply(g[i].conj(), g[i:], out=t[i:])
                    t[i:].sum(axis=1, out=a[i, i:])
                for k in range(r):
                    a[k, k:] *= 1.0 / np.sqrt(a[k, k].real)
                    a[k + 1:, k + 1:] -= a[k, k + 1:, None].conj() * a[k, None, k + 1:]
                for k in range(r):
                    g[k] *= 1.0 / a[k, k].real
                    np.multiply(g[k], a[k, k + 1:, None], out=t[k + 1:])
                    g[k + 1:] -= t[k + 1:]
    except FloatingPointError:
        raise np.linalg.LinAlgError("Matrix is not positive definite") from None
    return g


def _batch_last(N: int, r: int) -> bool:
    """The layout rule of `_ginibre` and the kernel rule of `_stiefel_batch`.
    Where N r^2 <= 512, which holds for every 2x2 sampler draw (16 x r,
    r <= 4), the blocks are laid out (r, N, count) and `_batch_last_q`
    factors them: per-matrix LAPACK calls cost more than their arithmetic
    there.  Larger matrices (3x3's 81 x 9) are laid out (count, N, r) and go
    to `_phase_fixed_q`, whose batched LAPACK calls win once a matrix holds
    more work; the two cost the same near N r^2 ~ 600."""
    return N * r * r <= 512


def _ginibre(N: int, r: int, count: int, rng) -> np.ndarray:
    """count N x r Ginibre blocks, laid out as `_stiefel_batch` factors
    them: the draw step of a Haar draw.  One standard_normal call fills the
    buffer in memory order, the real and imaginary part of each entry side
    by side, so the entries run (a, n, c) over column a, row n and matrix c
    where the buffer is batch-last, and (c, n, a) otherwise."""
    g = np.empty((r, N, count) if _batch_last(N, r) else (count, N, r), dtype=complex)
    rng.standard_normal(out=g.view(float))
    return g


def _stiefel_batch(N: int, r: int, g: np.ndarray) -> np.ndarray:
    """The Haar points of V_{N,r} that the blocks g of `_ginibre` give,
    stacked (count, N, r): the Q of the N x r Ginibre blocks, the same
    distribution as r columns of a Haar N x N unitary without paying for
    the rest.  Every Q of the package comes from here.  One pass leaves a
    block with N >= r^2 (every ensemble length m^2 n^2 the sampler draws)
    orthonormal to ~2e-15, since such a block is well conditioned; narrower
    blocks, N = r among them, take a second.  g is overwritten, and Q comes
    back as the (count, N, r) view of it, Fortran-ordered where it is
    batch-last.
    """
    passes = 1 if N >= r * r else 2
    if _batch_last(N, r):
        return _batch_last_q(g, passes).T
    return _phase_fixed_q(g, passes)


def haar_stiefel(N: int, r: int, seed) -> StiefelPoint:
    """Uniform point of V_{N,r}; seed is an int, SeedSequence or Generator."""
    _require_count(N, "N", _require_count(r, "r"))
    g = _ginibre(N, r, 1, np.random.default_rng(seed))
    return StiefelPoint(N, r, _stiefel_batch(N, r, g)[0])


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary: haar_stiefel(d, d, seed) as an array."""
    return haar_stiefel(_require_count(d, "d"), d, seed).z


def caratheodory_length(m: int, n: int) -> int:
    """Ensemble length m^2 n^2 that always suffices for a separable state."""
    _require_count(m, "m")
    _require_count(n, "n")
    return m * m * n * n
