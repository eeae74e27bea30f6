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
Carlo estimators call it on stacks of Stiefel points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concurrence import HMatrixSet, h_matrices
from .ensembles import StiefelPoint, constraint_residual
from .quantum_core import EigenEnsemble

H_FORM_PREFACTOR = 2.0


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
            raise ValueError("omega must be square")
        if np.max(np.abs(w - w.conj().T)) > 1e-12:
            raise ValueError("omega must be Hermitian")
        if np.linalg.cond(w) > 1e14:
            raise ValueError("omega must be nonsingular")

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


def energy(z, cop: CostOperator):
    """E(z) = 2 sum_i sum_ab |z_i^T h^{ab} z_i|^2 over the last two axes of z.

    z is a row (r,), an N x r matrix or StiefelPoint (both give a float), or
    a stack (..., N, r), which gives one value per stacked matrix.
    """
    zm = _rows(z)
    if zm.shape[-1] != cop.r:
        raise ValueError(f"z has {zm.shape[-1]} columns, expected {cop.r}")
    quad = np.einsum("...ix,abxy,...iy->...iab", zm, cop.hset.matrices, zm, optimize=True)
    e = H_FORM_PREFACTOR * np.sum(np.abs(quad) ** 2, axis=(-3, -2, -1))
    return float(e) if e.ndim == 0 else e


def full_hamiltonian(z, cop: CostOperator, lm: LagrangeMultipliers) -> float:
    """E(z) + sum_{alpha beta} omega_{alpha beta} C_{alpha beta}(z), real."""
    zm = _rows(z)
    con = constraint_residual(zm)
    return energy(zm, cop) + float(np.sum(lm.omega * con).real)
