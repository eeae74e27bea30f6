"""Ensemble space of a mixed state.

Every decomposition rho = sum_i |psi_i><psi_i| of length N is reachable from
a fixed eigenvector ensemble {e_alpha} through an N x r matrix z with
orthonormal columns (z^dag z = 1), via psi_i = sum_alpha z_{i alpha} e_alpha.
The z matrices form the complex Stiefel manifold V_{N,r}; this module
provides points on it (explicit Gram-Schmidt parametrization and Haar
sampling), the constraint residual, and reconstruction of ensembles.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .quantum_core import EigenEnsemble, PureState, _as_rng

STIEFEL_TOL = 1e-12


@dataclass(frozen=True)
class StiefelPoint:
    """N x r complex matrix z with z^dag z = 1 (orthonormal columns)."""

    N: int
    r: int
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        object.__setattr__(self, "z", z)
        if z.shape != (self.N, self.r):
            raise ValueError(f"z has shape {z.shape}, expected ({self.N}, {self.r})")
        res = constraint_residual(z)
        if np.max(np.abs(res)) > 1e-10:
            raise ValueError("columns are not orthonormal")

    def to_json(self) -> str:
        return json.dumps({
            "N": self.N,
            "r": self.r,
            "re": self.z.real.ravel().tolist(),
            "im": self.z.imag.ravel().tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "StiefelPoint":
        d = json.loads(text)
        z = (np.array(d["re"]) + 1j * np.array(d["im"])).reshape(d["N"], d["r"])
        return cls(d["N"], d["r"], z)


@dataclass(frozen=True)
class RhoEnsemble:
    """Unordered collection of N subnormalized vectors summing to rho."""

    vectors: tuple = field(default_factory=tuple)
    source: EigenEnsemble = None

    @property
    def length(self) -> int:
        return len(self.vectors)

    def reconstruct(self) -> np.ndarray:
        d = self.source.dimA * self.source.dimB
        out = np.zeros((d, d), dtype=complex)
        for psi in self.vectors:
            out += np.outer(psi.amps, psi.amps.conj())
        return out


def constraint_residual(z) -> np.ndarray:
    """z^dag z - 1, the r x r Hermitian constraint matrix; zero on V_{N,r}."""
    if isinstance(z, StiefelPoint):
        z = z.z
    z = np.asarray(z, dtype=complex)
    return z.conj().T @ z - np.eye(z.shape[1])


def ensemble_from_stiefel(z: StiefelPoint, ens: EigenEnsemble) -> RhoEnsemble:
    """The length-N ensemble psi_i = sum_alpha z_{i alpha} e_alpha."""
    if z.r != ens.rank:
        raise ValueError(f"z has {z.r} columns but the ensemble has rank {ens.rank}")
    amps = z.z @ ens.matrix()
    vecs = tuple(PureState(ens.dimA, ens.dimB, a, normalized=False) for a in amps)
    return RhoEnsemble(vecs, ens)


def stiefel_from_gs(v: np.ndarray, U: np.ndarray) -> StiefelPoint:
    """Explicit chart: z = GS(1_r stacked on v) @ U.

    v is (N-r) x r and fills the free block below the identity; the columns
    are orthonormalized by modified Gram-Schmidt (with re-orthogonalization)
    and rotated by the r x r unitary U.  The top r rows of the result stay
    linearly independent, which is what makes this a chart rather than a
    global parametrization.
    """
    v = np.atleast_2d(np.asarray(v, dtype=complex))
    U = np.asarray(U, dtype=complex)
    r = U.shape[0]
    if U.shape != (r, r) or np.max(np.abs(U.conj().T @ U - np.eye(r))) > 1e-10:
        raise ValueError("U must be unitary")
    if v.size == 0:
        v = v.reshape(0, r)
    if v.shape[1] != r:
        raise ValueError(f"v must have {r} columns")
    B = np.vstack([np.eye(r, dtype=complex), v])
    Q = np.zeros_like(B)
    for j in range(r):
        q = B[:, j].copy()
        for _ in range(2):  # re-orthogonalize for stability
            for i in range(j):
                q -= (Q[:, i].conj() @ q) * Q[:, i]
        Q[:, j] = q / np.linalg.norm(q)
    return StiefelPoint(B.shape[0], r, Q @ U)


def _stiefel_batch(N: int, r: int, count: int, rng) -> np.ndarray:
    """count Haar points of V_{N,r}, stacked (count, N, r).

    QR of an N x r Ginibre block with the R-diagonal phase folded back in
    (Mezzadri, math-ph/0609050); this is the same distribution as slicing r
    columns off a Haar N x N unitary, without paying for the discarded
    columns.
    """
    g = rng.standard_normal((count, N, r)) + 1j * rng.standard_normal((count, N, r))
    q, rr = np.linalg.qr(g)
    d = np.diagonal(rr, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_stiefel(N: int, r: int, seed) -> StiefelPoint:
    """Uniform point of V_{N,r}; seed is an int, SeedSequence or Generator."""
    if not 1 <= r <= N:
        raise ValueError(f"need N >= r >= 1, got N={N}, r={r}")
    return StiefelPoint(N, r, _stiefel_batch(N, r, 1, _as_rng(seed))[0])


def caratheodory_length(m: int, n: int) -> int:
    """Ensemble length m^2 n^2 that always suffices for a separable state."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be >= 1")
    return m * m * n * n
