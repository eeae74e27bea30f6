"""Cost function ("energy") on ensemble space.

For an ensemble psi_i = sum_alpha z_{i alpha} e_alpha the energy is the sum
of concurrences squared,

    E(z) = sum_i c2(psi_i) = 2 sum_i sum_{ab} |z_i^T h^{ab} z_i|^2,

a row-additive quartic form in the h matrices of the eigenensemble (see
the concurrence module).  The prefactor 2 is the same calibration as in
c2's antisymmetric-component form and makes E(z) equal sum_i c2(psi_i)
exactly rather than up to a constant.  E(z) = 0 at a point of the
constraint surface z^dag z = 1 exactly when that point is a separable
decomposition, so the global constrained minimum decides separability.

`energy` is the one evaluation of this form in the package; the Monte
Carlo estimators call it on stacks of Stiefel points.  Because each h^{ab}
is symmetric, z_i^T h^{ab} z_i = sum_{x<=y} (2 - delta_xy) h^{ab}_{xy}
z_ix z_iy: a row enters only through its r(r+1)/2 pair products.  `energy`
builds Hp[(x<=y), ab] = (2 - delta_xy) h^{ab}_{xy} once per call and, in
blocks of about _BLOCK_ROWS rows, forms the pair products of every row
and multiplies them by Hp in one complex matrix product.  The blocks keep
the temporaries small whatever the stack size.  BLAS may round a row
differently by its place in the product, so a caller that splits a stack
and wants the bits of one call splits it at multiples of _block_size(N).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concurrence import HMatrixSet, h_matrices
from .ensembles import StiefelPoint
from .quantum_core import EigenEnsemble, InvalidInput

H_FORM_PREFACTOR = 2.0
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class CostOperator:
    """The h matrices that define E(z) for a fixed eigenensemble."""

    hset: HMatrixSet

    @property
    def r(self) -> int:
        return self.hset.r


@dataclass(frozen=True)
class LagrangeMultipliers:
    """Hermitian nonsingular omega multiplying the Stiefel constraints."""

    omega: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=complex)
        object.__setattr__(self, "omega", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInput("omega must be square")
        if np.max(np.abs(w - w.conj().T)) > 1e-12:
            raise InvalidInput("omega must be Hermitian")
        if np.linalg.cond(w) > 1e14:
            raise InvalidInput("omega must be nonsingular")

    @property
    def r(self) -> int:
        return self.omega.shape[0]

    def is_positive_definite(self) -> bool:
        return bool(np.linalg.eigvalsh(self.omega).min() > 0.0)


def cost_operator(ens: EigenEnsemble) -> CostOperator:
    """The cost operator of a fixed eigenensemble."""
    return CostOperator(h_matrices(ens))


def _rows(z) -> np.ndarray:
    if isinstance(z, StiefelPoint):
        z = z.z
    z = np.asarray(z, dtype=complex)
    return z[None, :] if z.ndim == 1 else z


def _block_size(N: int) -> int:
    """Stacked N-row matrices per block of `energy`, about _BLOCK_ROWS rows."""
    return max(1, _BLOCK_ROWS // N)


def energy(z, cop: CostOperator):
    """E(z) = 2 sum_i sum_ab |z_i^T h^{ab} z_i|^2 over the last two axes of z.

    z is a row (r,), an N x r matrix or StiefelPoint (both give a float), or
    a stack (..., N, r), which gives one value per stacked matrix.
    """
    zm = _rows(z)
    r = cop.r
    if zm.shape[-1] != r:
        raise InvalidInput(f"z has {zm.shape[-1]} columns, expected {r}")
    N = zm.shape[-2]
    xi, yi = np.triu_indices(r)
    h = cop.hset.matrices
    Hp = (h[:, :, xi, yi] * np.where(xi == yi, 1.0, 2.0)).reshape(-1, xi.size).T
    flat = zm.reshape(-1, N, r)
    e = np.empty(flat.shape[0])
    step = _block_size(N)
    for s in range(0, flat.shape[0], step):
        rows = flat[s:s + step].reshape(-1, r)
        q = (rows[:, xi] * rows[:, yi]) @ Hp
        # |q|^2 summed over the N rows and all (a, b) of each matrix
        q = q.view(float).reshape(-1, N * 2 * Hp.shape[1])
        e[s:s + step] = H_FORM_PREFACTOR * np.einsum("ij,ij->i", q, q)
    e = e.reshape(zm.shape[:-2])
    return float(e) if e.ndim == 0 else e
