"""Dense complex linear algebra and quantum-state primitives.

Bipartite states live on C^m (x) C^n.  Pure states are stored as flat
amplitude vectors in row-major (a, b) order, density matrices as
mn x mn arrays, so np.kron(a, b) is the tensor product.  Provides the
generalized concurrence of a pure state, eigenvector ensembles of a mixed
state and the partial transpose (PPT) entanglement test, all pure
functions, and the package's one check of sizes and counts.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
EIGENVALUE_CUTOFF = 1e-10


class InvalidInput(ValueError):
    """An argument breaks a rule of the library: the one error type for bad
    input, so a caller (the command line among them) can tell it from a bug."""


def _require_count(value, name: str, floor: int = 1):
    """value, a size or count; InvalidInput unless it is an integer (a
    numbers.Integral other than bool) at or above floor."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise InvalidInput(f"{name} must be >= {floor}, got {value}")
    return value


def _numbers(value, key: str) -> np.ndarray:
    """The JSON value of key as a float array; InvalidInput unless it holds
    numbers only (no strings, booleans, nulls or objects) in a regular nest."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iuf":
        raise InvalidInput(f"{key!r} must be a list of numbers")
    return a.astype(float)


@dataclass(frozen=True)
class DensityMatrix:
    """Bipartite mixed state: Hermitian, PSD, unit trace mn x mn matrix."""

    dimA: int
    dimB: int
    mat: np.ndarray

    def __post_init__(self):
        m, n = _require_count(self.dimA, "dimA"), _require_count(self.dimB, "dimB")
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        if mat.shape != (m * n, m * n):
            raise InvalidInput(f"expected {(m*n, m*n)} matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise InvalidInput("non-finite entries in density matrix")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise InvalidInput("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL or abs(np.trace(mat).imag) > TRACE_TOL:
            raise InvalidInput("density matrix trace is not 1")
        if np.linalg.eigvalsh(mat).min() < -PSD_TOL:
            raise InvalidInput("density matrix has an eigenvalue below -1e-10")

    def to_json(self) -> str:
        return json.dumps({
            "dimA": self.dimA,
            "dimB": self.dimB,
            "re": self.mat.real.ravel().tolist(),
            "im": self.mat.imag.ravel().tolist(),
        })

    @staticmethod
    def from_json(text) -> "DensityMatrix":
        """The state of a to_json document (str or bytes); InvalidInput for
        any document that is not one: not JSON, not an object, a key
        missing, entries that are not numbers, "re" and "im" of different
        shapes, or an entry count that is not a square."""
        try:
            d = json.loads(text)
        except (ValueError, RecursionError) as e:  # bad JSON, bad bytes, deep nesting
            raise InvalidInput(f"not a JSON document: {e}") from None
        if not isinstance(d, dict):
            raise InvalidInput(f"expected a JSON object, got {type(d).__name__}")
        for key in ("dimA", "dimB", "re", "im"):
            if key not in d:
                raise InvalidInput(f"missing key {key!r}")
        re, im = _numbers(d["re"], "re"), _numbers(d["im"], "im")
        if re.shape != im.shape:
            raise InvalidInput(f"'re' has shape {re.shape} but 'im' {im.shape}")
        side = round(re.size ** 0.5)  # the dimensions are checked, not trusted
        if side * side != re.size:
            raise InvalidInput(f"{re.size} entries do not fill a square matrix")
        return DensityMatrix(d["dimA"], d["dimB"], (re + 1j * im).reshape(side, side))


@dataclass(frozen=True)
class PureState:
    """Pure (possibly subnormalized) bipartite state vector of length m*n."""

    dimA: int
    dimB: int
    amps: np.ndarray

    def __post_init__(self):
        m, n = _require_count(self.dimA, "dimA"), _require_count(self.dimB, "dimB")
        amps = np.asarray(self.amps, dtype=complex).ravel()
        object.__setattr__(self, "amps", amps)
        if amps.size != m * n:
            raise InvalidInput(f"expected {m * n} amplitudes, got {amps.size}")
        if not np.isfinite(amps).all():
            raise InvalidInput("non-finite amplitudes")

    def coeff_matrix(self) -> np.ndarray:
        """Amplitudes as the m x n coefficient matrix C with psi = sum C_ab |ab>."""
        return self.amps.reshape(self.dimA, self.dimB)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def concurrence_sq(psi: PureState) -> float:
    """Generalized concurrence squared ||psi||^4 - tr sigma_A^2 of psi, with
    sigma_A = C C^dag for psi's m x n coefficient matrix C, clamped to >= 0.

    Degree-4 homogeneous in the amplitudes; zero iff psi is a product vector.
    The costfn module docstring derives its minors form, the one
    `costfn.energy` sums; the antisymmetric-component form is a test oracle.
    """
    C = psi.coeff_matrix()
    n4 = psi.norm() ** 4
    sigma = C @ C.conj().T
    val = n4 - float(np.trace(sigma @ sigma).real)
    return max(val, 0.0)


@dataclass(frozen=True)
class Ensemble:
    """Subnormalized vectors psi_i of a decomposition rho = sum_i |psi_i><psi_i|.

    amps is (k, mn), one row of amplitudes per vector, held C-contiguous.
    The eigenensemble e_alpha = sqrt(lambda_alpha) |v_alpha> is the fixed
    reference decomposition: every length-N ensemble of the same state is
    z @ amps for a Stiefel matrix z (Hughston-Jozsa-Wootters).
    """

    dimA: int
    dimB: int
    amps: np.ndarray

    def __post_init__(self):
        m, n = _require_count(self.dimA, "dimA"), _require_count(self.dimB, "dimB")
        amps = np.ascontiguousarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        if amps.ndim != 2 or amps.shape[1] != m * n:
            raise InvalidInput(f"expected rows of {m * n} amplitudes, got shape {amps.shape}")
        if not np.isfinite(amps).all():
            raise InvalidInput("non-finite amplitudes")

    @property
    def rank(self) -> int:
        return self.amps.shape[0]

    @property
    def vectors(self) -> tuple[PureState, ...]:
        """The rows of amps, one PureState per vector."""
        return tuple(PureState(self.dimA, self.dimB, a) for a in self.amps)

    def reconstruct(self) -> np.ndarray:
        """Sum_i |psi_i><psi_i|."""
        return self.amps.T @ self.amps.conj()


def eigen_ensemble(rho: DensityMatrix) -> Ensemble:
    """Eigenvector ensemble of rho: sqrt(lam)*v for eigenvalues above EIGENVALUE_CUTOFF.

    Eigenvalues are returned in descending order.  Degenerate eigenspaces may
    come out in any orthonormal basis; downstream quantities are invariant
    under that choice.
    """
    vals, vecs = np.linalg.eigh(rho.mat)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    sel = vals > EIGENVALUE_CUTOFF
    return Ensemble(rho.dimA, rho.dimB, (vecs[:, sel] * np.sqrt(vals[sel])).T)


def ppt_is_entangled(rho: DensityMatrix) -> bool | None:
    """Partial-transpose (Peres-Horodecki) verdict on rho.

    True when the partial transpose has an eigenvalue below -PSD_TOL: rho is
    entangled, in any dimension.  Otherwise rho is PPT, which proves it
    separable only for mn <= 6 (2x2 and 2x3): False there, and None (not
    resolved) for larger systems.
    """
    m, n = rho.dimA, rho.dimB
    t = rho.mat.reshape(m, n, m, n)
    pt = np.einsum("ajbi->aibj", t).reshape(m * n, m * n)
    if np.linalg.eigvalsh(pt).min() < -PSD_TOL:
        return True
    return False if m * n <= 6 else None
