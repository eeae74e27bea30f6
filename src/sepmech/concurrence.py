"""Generalized concurrence of a pure state and the h matrices.

The generalized concurrence squared

    c2(psi) = ||psi||^4 - tr[(tr_B |psi><psi|)^2]

is nonnegative and vanishes exactly on product vectors.  It equals a sum of
squared antisymmetric quadratic forms,

    c2(psi) = 2 * sum_{a,b} |<zeta_a (x) zeta~_b | psi (x) psi>|^2,

where {zeta_a} and {zeta~_b} run over orthonormal bases of the antisymmetric
subspaces of C^m (x) C^m and C^n (x) C^n, and the two copies of psi are
reindexed from (A B A' B') to (A A' B B') order before the inner product.
The prefactor 2 is forced by the projector identity P_antisym = (1 - SWAP)/2,
which gives ||psi||^4 - tr sigma_A^2 = 2 <psi x psi| P_m (x) P_n |psi x psi>.
The package evaluates c2 only in the direct form; the component form is kept
in the test suite as an independent oracle.

Worked 2x2 example: for the singlet (|01> - |10>)/sqrt(2) the single
antisymmetric component is <zeta (x) zeta~ | psi (x) psi> = det C(psi) = 1/2,
hence c2 = 2 * (1/4) = 1/2.

The h matrices h^{ab}_{alpha beta} = <zeta_a (x) zeta~_b | e_alpha (x) e_beta>
collect those same components over all pairs from an eigenvector ensemble;
they are symmetric r x r matrices and are the factored building block of the
ensemble cost function.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum_core import Ensemble, InvalidInput, PureState, partial_trace


@dataclass(frozen=True)
class HMatrixSet:
    """The d1*d2 symmetric r x r matrices h^{ab} of an eigenvector ensemble.

    matrices has shape (d1, d2, r, r) with
    h[a, b, alpha, beta] = <zeta_a (x) zeta~_b | e_alpha (x) e_beta>
    after (A B A' B') -> (A A' B B') reordering of the two copies.
    """

    matrices: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.matrices, dtype=complex)
        object.__setattr__(self, "matrices", h)
        if h.ndim != 4 or h.shape[2] != h.shape[3]:
            raise InvalidInput(f"h matrix array must have shape (d1, d2, r, r), got {h.shape}")

    @property
    def r(self) -> int:
        return self.matrices.shape[2]


def skew_basis(m: int) -> np.ndarray:
    """Canonical antisymmetric basis {(|ij> - |ji>)/sqrt(2) : i < j}, lexicographic.

    Rows of the (m(m-1)/2, m*m) result span the antisymmetric subspace of
    C^m (x) C^m; each is antisymmetric under swapping the two factors.
    """
    if m < 2:
        raise InvalidInput(f"m must be >= 2, got {m}: a one-dimensional factor has no "
                           "antisymmetric space, and a state with one is a product state "
                           "with no h matrices")
    d = m * (m - 1) // 2
    vecs = np.zeros((d, m * m), dtype=complex)
    k = 0
    for i in range(m):
        for j in range(i + 1, m):
            vecs[k, i * m + j] = 1.0 / np.sqrt(2.0)
            vecs[k, j * m + i] = -1.0 / np.sqrt(2.0)
            k += 1
    return vecs


def concurrence_sq(psi: PureState) -> float:
    """||psi||^4 - tr[(tr_B |psi><psi|)^2], clamped to >= 0.

    Degree-4 homogeneous in the amplitudes; zero iff psi is a product vector.
    """
    n4 = psi.norm() ** 4
    sigma = partial_trace(psi, "A")
    val = n4 - float(np.trace(sigma @ sigma).real)
    return max(val, 0.0)


def h_matrices(ens: Ensemble) -> HMatrixSet:
    """All h^{ab} matrices of an eigenvector ensemble.

    h[a, b, alpha, beta] = <zeta_a (x) zeta~_b | e_alpha (x) e_beta> with the
    (A B A' B') -> (A A' B B') reordering applied; each h^{ab} is symmetric
    because zeta_a and zeta~_b are antisymmetric in their factor pairs and the
    alpha <-> beta exchange swaps both.
    """
    m, n, r = ens.dimA, ens.dimB, ens.rank
    bA, bB = skew_basis(m), skew_basis(n)
    C = ens.amps.reshape(r, m, n)
    za = bA.conj().reshape(-1, m, m)
    zb = bB.conj().reshape(-1, n, n)
    # Phi_{alpha beta}[i, j, k, l] = C_alpha[i, k] C_beta[j, l]
    h = np.einsum("aij,bkl,xik,yjl->abxy", za, zb, C, C, optimize=True)
    return HMatrixSet(h)
