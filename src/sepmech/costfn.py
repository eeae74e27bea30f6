"""Cost function ("energy") on ensemble space.

For an ensemble psi_i = sum_alpha z_{i alpha} e_alpha with C_i the m x n
coefficient matrix of psi_i, the energy is the sum of concurrences squared,

    E(z) = sum_i c2(psi_i) = 2 sum_i sum_{i<j, k<l} |C_ik C_jl - C_il C_jk|^2,

the squared 2x2 minors of every C_i.  This is the minors identity: the
concurrence c2(psi) = ||psi||^4 - tr sigma_A^2 of `quantum_core.concurrence_sq`
equals 2 sum_{a,b} |<zeta_a (x) zeta~_b | psi (x) psi>|^2 over orthonormal
bases {zeta_a}, {zeta~_b} of the antisymmetric subspaces of C^m (x) C^m and
C^n (x) C^n, with the two copies of psi reindexed from (A B A' B') to
(A A' B B') order.  The prefactor 2 is forced by P_antisym = (1 - SWAP)/2,
which gives ||psi||^4 - tr sigma_A^2 = 2 <psi x psi| P_m (x) P_n |psi x psi>,
and in the canonical bases {(|ij> - |ji>)/sqrt(2) : i < j} the component of
a = (i < j), b = (k < l) is the minor C_ik C_jl - C_il C_jk.  For the
singlet (|01> - |10>)/sqrt(2) the one minor is det C = 1/2, so c2 = 1/2.

With u_ik the r-vector of the eigenvectors' (i, k) amplitudes, each minor
is the quadratic form z_i^T h^{ab} z_i of the symmetric r x r matrix
h^{ab} = sym(u_ik (x) u_jl - u_il (x) u_jk), for the pairs a = (i < j) and
b = (k < l).  E(z) = 0 at a point of the constraint surface z^dag z = 1
exactly when that point is a separable decomposition, so the global
constrained minimum decides separability.

`energy` is the one evaluation of this form in the package; the Monte
Carlo estimators call it on stacks of Stiefel points.  It does not form the
h matrices.  In one pass over the whole stack, it forms the amplitudes of
every row by one complex matrix product with the eigenvectors, gathers
the four factors of every minor with index arrays fixed by (m, n), and
sums the squared moduli per stacked matrix.  That is 2 d1 d2 + mn r complex
products per row (99 at 3x3 and full rank), against r(r+1)/2 (d1 d2 + 1)
for the pair products and matrix product of the h form (450).  Its
temporaries grow with the stack, to at most mn + 3 d1 d2 complex values per
row; the sampler in `statmech` passes one sub-block at a time (4,050 rows
at 3x3, 9,216 at 2x2), which keeps them small.  The rows are read in the
stack's memory order, C or Fortran, so neither layout is copied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import StiefelPoint
from .quantum_core import Ensemble, InvalidInput

MINOR_PREFACTOR = 2.0


@dataclass(frozen=True)
class HMatrixSet:
    """The d1*d2 symmetric r x r matrices h^{ab} of an eigenvector ensemble.

    matrices has shape (d1, d2, r, r), with z^T h^{ab} z the 2x2 minor of
    pair a = (i < j), b = (k < l) of the coefficients of z's ensemble vector.
    """

    matrices: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.matrices, dtype=complex)
        object.__setattr__(self, "matrices", h)
        if h.ndim != 4 or h.shape[2] != h.shape[3]:
            raise InvalidInput(f"h matrix array must have shape (d1, d2, r, r), got {h.shape}")


@dataclass(frozen=True)
class CostOperator:
    """E(z) for a fixed m x n eigenensemble of rank r, in the layout of
    `energy`.

    amps is (mn, r), the transpose of the eigenensemble's `Ensemble.amps`:
    column alpha holds the amplitudes of e_alpha, row i*n + k its (i, k)
    coefficient.  minors is (4, d1*d2): the rows (ik, jl, il, jk) of amps
    that enter the minor C_ik C_jl - C_il C_jk, one column per pair
    a = (i < j), b = (k < l) in the (a, b) order of hset.
    hset holds the h matrices of the same form, built from those rows, for
    callers that inspect them; `energy` does not read it.
    """

    hset: HMatrixSet
    amps: np.ndarray
    minors: np.ndarray

    @property
    def r(self) -> int:
        return self.amps.shape[1]


@dataclass(frozen=True)
class LagrangeMultipliers:
    """Hermitian nonsingular omega multiplying the Stiefel constraints."""

    omega: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=complex)
        object.__setattr__(self, "omega", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInput("omega must be square")
        if not (np.isfinite(w).all() and np.max(np.abs(w - w.conj().T)) <= 1e-12):
            raise InvalidInput("omega must be finite and Hermitian")
        if np.linalg.cond(w) > 1e14:
            raise InvalidInput("omega must be nonsingular")

    @property
    def r(self) -> int:
        return self.omega.shape[0]

    def is_positive_definite(self) -> bool:
        return bool(np.linalg.eigvalsh(self.omega).min() > 0.0)


def _minor_rows(m: int, n: int) -> np.ndarray:
    """(4, d1*d2) rows (ik, jl, il, jk) of the m x n coefficient matrix,
    flattened row-major, for each 2x2 minor i < j, k < l in lexicographic order."""
    return np.array([(i * n + k, j * n + l, i * n + l, j * n + k)
                     for i in range(m) for j in range(i + 1, m)
                     for k in range(n) for l in range(k + 1, n)], dtype=np.intp).T


def cost_operator(ens: Ensemble) -> CostOperator:
    """The cost operator of a fixed eigenensemble."""
    m, n = ens.dimA, ens.dimB
    if min(m, n) < 2:
        name, d = ("dimA", m) if m < 2 else ("dimB", n)
        raise InvalidInput(f"{name} must be >= 2, got {d}: a one-dimensional factor has "
                           "no antisymmetric space, and a state with one is a product state "
                           "with no h matrices")
    amps = np.ascontiguousarray(ens.amps.T)
    minors = _minor_rows(m, n)
    # h^{ab} = sym(ik (x) jl - il (x) jk), so that z^T h^{ab} z is the minor
    ik, jl, il, jk = amps[minors]
    h = ik[:, :, None] * jl[:, None] - il[:, :, None] * jk[:, None]
    h = (h + h.transpose(0, 2, 1)) / 2
    r = ens.rank
    return CostOperator(HMatrixSet(h.reshape(m * (m - 1) // 2, -1, r, r)), amps, minors)


def _rows(z) -> np.ndarray:
    if isinstance(z, StiefelPoint):
        z = z.z
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        raise InvalidInput("z is a scalar, expected a row, a matrix or a stack")
    return z[None, :] if z.ndim == 1 else z


def energy(z, cop: CostOperator):
    """E(z) = 2 sum_i sum_ab |z_i^T h^{ab} z_i|^2 over the last two axes of z,
    evaluated as 2 sum_i of the squared 2x2 minors of psi_i's coefficients.

    z is a row (r,), an N x r matrix or StiefelPoint (both give a float), or
    a stack (..., N, r), which gives one value per stacked matrix.  A
    Fortran-ordered stack, such as the sampler's batch-last Q with row n of
    matrix c at n * count + c, is read in that order rather than copied;
    any other is read in C order, matrix by matrix.
    """
    zm = _rows(z)
    r = cop.r
    if zm.shape[-1] != r:
        raise InvalidInput(f"z has {zm.shape[-1]} columns, expected {r}")
    N = zm.shape[-2]
    if N == 0:
        raise InvalidInput("z has no rows")
    order = "F" if np.isfortran(zm) else "C"
    amp = cop.amps @ zm.reshape(-1, r, order=order).T  # (mn, rows): every row's amplitudes
    ik, jl, il, jk = cop.minors
    minor = amp[ik]  # products in place: three (d1 d2, rows) arrays at most
    minor *= amp[jl]
    t = amp[il]
    t *= amp[jk]
    minor -= t
    # |minor|^2 summed over the N rows and all (a, b) of each matrix, whose
    # rows are adjacent in C order and a stack apart in Fortran order
    q = minor.view(float)
    if order == "F":
        q = q.reshape(ik.size * N, -1, 2)
    else:
        q = q.reshape(ik.size, -1, 2 * N)
    e = MINOR_PREFACTOR * np.einsum("asb,asb->s", q, q)
    e = e.reshape(zm.shape[:-2], order=order)
    return float(e) if e.ndim == 0 else e
