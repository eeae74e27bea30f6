"""Independent formulas that the tests check the library against.

Each computes a quantity the library also computes, by a different route:

- the rank-4 energy tensor built from the antisymmetric projectors, and the
  energy as its quartic form (the library uses the factored h-matrix form);
- the antisymmetric-component form of the concurrence (the library uses
  ||psi||^4 - tr sigma_A^2);
- the determinant product test det(sigma_A - 1);
- the direct 8x8 determinant of the Werner Gaussian block matrix;
- the multiplier gradient at a generic Hermitian w' (the library restricts
  w' to diag(gamma, lam, lam, lam)).

None of them is used by the library.
"""
import numpy as np

from sepmech import PureState, StiefelPoint, h_matrix
from sepmech.werner import BETA_INTERNAL_SCALE, _WK, _XK, _panel_edges

TENSOR_PREFACTOR = 2.0
SKEW_PREFACTOR = 2.0


# --- energy as the quartic form of a rank-4 tensor --------------------------

def _swap_projector(m: int) -> np.ndarray:
    """(1 - SWAP)/2 on C^m (x) C^m, the projector onto antisymmetric vectors."""
    swap = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            swap[i * m + j, j * m + i] = 1.0
    return (np.eye(m * m) - swap) / 2.0


def cost_tensor(ens) -> np.ndarray:
    """E_{alpha beta mu nu} = 2 <e_a (x) e_b| P_m (x) P_n |e_m (x) e_n> after
    (A B A' B') -> (A A' B B') reordering, for a fixed eigenensemble."""
    m, n, r = ens.dimA, ens.dimB, ens.rank
    C = ens.matrix().reshape(r, m, n)
    # reorder(e_a (x) e_b) as vectors on (A A') (x) (B B')
    phi = np.einsum("aij,bkl->abikjl", C, C).reshape(r, r, m * m * n * n)
    proj = np.kron(_swap_projector(m), _swap_projector(n))
    return TENSOR_PREFACTOR * np.einsum(
        "abP,PQ,cdQ->abcd", phi.conj(), proj, phi, optimize=True)


def tensor_energy(z, tensor: np.ndarray) -> float:
    """E(z) via the rank-4 tensor; z is a single row or an N x r matrix."""
    if isinstance(z, StiefelPoint):
        z = z.z
    zm = np.asarray(z, dtype=complex)
    zm = zm[None, :] if zm.ndim == 1 else zm
    if zm.shape[1] != tensor.shape[0]:
        raise ValueError(f"z has {zm.shape[1]} columns, expected {tensor.shape[0]}")
    per_row = np.einsum("ia,ib,abmn,im,in->i",
                        zm.conj(), zm.conj(), tensor, zm, zm, optimize=True)
    return float(np.sum(per_row.real))


# --- concurrence from antisymmetric components ------------------------------

def _pair_components(psi: PureState, basisA: np.ndarray, basisB: np.ndarray) -> np.ndarray:
    """Components <zeta_a (x) zeta~_b | psi (x) psi> as a (d1, d2) array."""
    m, n = psi.dimA, psi.dimB
    C = psi.coeff_matrix()
    # (psi x psi)[a, b, a', b'] -> Phi[(a a'), (b b')]
    phi = np.einsum("ab,cd->acbd", C, C).reshape(m * m, n * n)
    return basisA.conj() @ phi @ basisB.conj().T


def concurrence_sq_skew(psi: PureState, basisA: np.ndarray, basisB: np.ndarray) -> float:
    """Antisymmetric-component form of concurrence_sq; the bases are
    skew_basis(m) and skew_basis(n)."""
    if basisA.shape[1] != psi.dimA ** 2 or basisB.shape[1] != psi.dimB ** 2:
        raise ValueError("basis dimensions do not match the state")
    comp = _pair_components(psi, basisA, basisB)
    return SKEW_PREFACTOR * float(np.sum(np.abs(comp) ** 2))


def det_product_test(psi: PureState) -> float:
    """det(sigma_A - I) for normalized psi; zero iff psi is a product vector."""
    if abs(psi.norm() - 1.0) > 1e-10:
        raise ValueError("det_product_test requires a normalized state")
    C = psi.coeff_matrix()
    sigma = C @ C.conj().T
    return float(np.linalg.det(sigma - np.eye(psi.dimA)).real)


# --- Werner channel ----------------------------------------------------------

def det_m(s: complex, omega: np.ndarray, p: float) -> complex:
    """Determinant of the 8x8 Gaussian block matrix [[omega, 2i sbar h], [2i s h, omegabar]].

    Factorizes as det h(p)^2 * det(4|s|^2 + w' wbar') with
    w' = h^{-1/2} omega h^{-1/2}; the tests check that factorization
    against this direct determinant.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]; h(p) must be invertible")
    h = h_matrix(p)
    omega = np.asarray(omega, dtype=complex)
    top = np.hstack([omega, 2j * np.conj(s) * h])
    bot = np.hstack([2j * s * h, omega.conj()])
    return complex(np.linalg.det(np.vstack([top, bot])))


def grad_log_z1_full(beta: float, omega_prime: np.ndarray, p: float) -> np.ndarray:
    """Gradient h(p) - <(x + w' wbar')^{-1} w'>_w for a generic Hermitian w' > 0.

    At diag(gamma, lam, lam, lam) this reduces entrywise to grad_log_z1,
    which confirms that the restricted diagonal form is self-consistent.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    wp = np.asarray(omega_prime, dtype=complex)
    if np.max(np.abs(wp - wp.conj().T)) > 1e-10:
        raise ValueError("omega_prime must be Hermitian")
    bt = BETA_INTERNAL_SCALE * beta
    M = wp @ wp.conj()
    d, V = np.linalg.eig(M)
    d = d.real  # product of two positive matrices: spectrum is real positive
    if d.min() <= 0:
        raise ValueError("omega_prime must be positive-definite")
    edges = _panel_edges(bt, d.min(), d.max())
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    wts = (np.tile(_WK, len(half)) * np.repeat(half, 15))
    scal = np.exp(-x / (4.0 * bt)) / np.sqrt(np.prod(x[:, None] + d[None, :], axis=1))
    T = np.linalg.solve(V, wp)
    resolvent = np.einsum("ai,ki,ib->kab", V, 1.0 / (x[:, None] + d[None, :]), T)
    i0 = float(wts @ scal)
    avg = np.einsum("k,k,kab->ab", wts, scal, resolvent) / i0
    return h_matrix(p) - avg
