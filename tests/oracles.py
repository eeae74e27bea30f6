"""Independent formulas that the tests check the library against.

Each computes a quantity the library also computes, by a different route:

- the paper's closed forms for the 2x2 Werner state: the matrix
  h(p) = (1/8) diag(4-3p, p, p, p) and the one-particle energy
  (1/32) |(4-3p) z1^2 + p (z2^2 + z3^2 + z4^2)|^2 (the library contracts
  the eigenensemble generically, and uses only the diagonal of h(p));
- the rank-4 energy tensor built from the antisymmetric projectors, and the
  energy as its quartic form; and the energy in the h-matrix form, from the
  pair products of each row and one matrix product with the h matrices
  (the library sums the squared 2x2 minors of each ensemble vector's
  coefficients);
- the antisymmetric-component form of the concurrence, on the canonical
  skew bases (the library uses ||psi||^4 - tr sigma_A^2);
- the h matrices as the skew-basis components of e_alpha (x) e_beta, by a
  4-operand einsum (the library symmetrizes outer products of the
  eigenvector amplitude rows of each 2x2 minor);
- the determinant product test det(sigma_A - 1);
- the partial traces of a pure state and of a density matrix (the library
  forms only sigma_A = C C^dag of a pure state, inside concurrence_sq);
- the direct 8x8 determinant of the Werner Gaussian block matrix;
- the multiplier gradient at a generic Hermitian w' (the library restricts
  w' to diag(gamma, lam, lam, lam));
- the quadrature pass as 15-point Gauss-Kronrod on octave panels, the
  panel edges by repeated doubling, the integrands stacked and the Kronrod
  and Gauss sums by einsum (the library takes the trapezoid rule on a
  double-exponential map of x);
- the library's trapezoid pass of one point on its own nodes, its even and
  odd node sums by cumulative sums (the library passes many points at once
  over nodes padded to a common count, and must give the same bits);
- the boundary point of the saddle solve, the minimum of F on the face
  gamma = 0, by bisection of h1 = <B>_0(lam) on the GK15 pass (the library
  takes Newton steps on its own trapezoid pass);
- the projected Newton saddle solve of one point as a generator that
  yields each quadrature pass it needs and is sent its row, driven one
  point per _moments call (the library runs the solves of a grid in one
  flat loop of rounds over per-point state, and must give the same bits
  from the same passes);
- the h matrix diag(q)/2 of a Bell-diagonal state (the library contracts
  the eigenensemble generically);
- the paper's explicit chart of the Stiefel manifold, Gram-Schmidt of the
  identity stacked on a free block, as a Householder QR with a phase fix
  (the library has no chart, and its Cholesky-QR must give the same Q);
- the Haar-Stiefel draw as the Householder QR of a Ginibre block built
  from separate real and imaginary normals, with a separate phase product
  (the library fills the float view of one buffer with one call and writes
  the Cholesky-QR factor back over it, and must agree to rounding);
- the sampled energies on one thread, slice by slice, each slice drawn
  from its own child of SeedSequence(seed) (the library runs the slices as
  tasks on a thread pool and must give the same bits with its own draw, and
  agree to rounding with the Householder draw);
- the exact beta = 0 mean of the energy over Haar draws, in closed form in
  the purities of rho and its reductions (the library only samples it);
- the reweighted mean, effective sample size and jackknife error, each
  from its own weight vector and the jackknife from index blocks (the
  library forms the weights once per beta and slices them).

It also holds the multiplier-extended Hamiltonian E(z) + sum omega C(z),
which only the tests evaluate.  None of them is used by the library.
"""
import math

import numpy as np

from sepmech import DensityMatrix, PureState, StiefelPoint, constraint_residual, energy
from sepmech.quantum_core import InvalidInput
from sepmech.werner import (_EPS_F, _MAX_EVALS, _STEP, _U0, BETA_INTERNAL_SCALE,
                            QuadratureError, SaddleResult, _grid, _moments, _require_converged,
                            _werner_point)

TENSOR_PREFACTOR = 2.0
H_FORM_PREFACTOR = 2.0
SKEW_PREFACTOR = 2.0
CLOSED_FORM_PREFACTOR = 1.0 / 32.0


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
    C = ens.amps.reshape(r, m, n)
    # reorder(e_a (x) e_b) as vectors on (A A') (x) (B B')
    phi = np.einsum("aij,bkl->abikjl", C, C).reshape(r, r, m * m * n * n)
    proj = np.kron(_swap_projector(m), _swap_projector(n))
    return TENSOR_PREFACTOR * np.einsum(
        "abP,PQ,cdQ->abcd", phi.conj(), proj, phi, optimize=True)


def tensor_energy(z, tensor: np.ndarray):
    """E(z) via the rank-4 tensor; z is a single row or an N x r matrix (gives
    a float) or a stack (..., N, r) (one value per stacked matrix)."""
    if isinstance(z, StiefelPoint):
        z = z.z
    zm = np.asarray(z, dtype=complex)
    zm = zm[None, :] if zm.ndim == 1 else zm
    if zm.shape[-1] != tensor.shape[0]:
        raise ValueError(f"z has {zm.shape[-1]} columns, expected {tensor.shape[0]}")
    per_row = np.einsum("...ia,...ib,abmn,...im,...in->...i",
                        zm.conj(), zm.conj(), tensor, zm, zm, optimize=True)
    e = per_row.real.sum(axis=-1)
    return float(e) if e.ndim == 0 else e


def h_form_energy(z, hset):
    """E(z) = 2 sum_i sum_ab |z_i^T h^{ab} z_i|^2 from hset.matrices (d1, d2, r, r).

    Each h^{ab} is symmetric, so z_i^T h^{ab} z_i = sum_{x<=y} (2 - delta_xy)
    h^{ab}_xy z_ix z_iy: the r(r+1)/2 pair products of every row times
    Hp[(x<=y), ab] in one complex matrix product.  z is taken as by
    tensor_energy.
    """
    if isinstance(z, StiefelPoint):
        z = z.z
    zm = np.asarray(z, dtype=complex)
    zm = zm[None, :] if zm.ndim == 1 else zm
    h = hset.matrices
    r = h.shape[-1]
    xi, yi = np.triu_indices(r)
    Hp = (h[:, :, xi, yi] * np.where(xi == yi, 1.0, 2.0)).reshape(-1, xi.size).T
    rows = zm.reshape(-1, r)
    q = (rows[:, xi] * rows[:, yi]) @ Hp
    per_row = np.sum(np.abs(q) ** 2, axis=1).reshape(zm.shape[:-1])
    e = H_FORM_PREFACTOR * per_row.sum(axis=-1)
    return float(e) if e.ndim == 0 else e


# --- concurrence from antisymmetric components ------------------------------

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


def h_matrices_skew(ens) -> np.ndarray:
    """All h^{ab} matrices of an eigenvector ensemble, shape (d1, d2, r, r).

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
    return np.einsum("aij,bkl,xik,yjl->abxy", za, zb, C, C, optimize=True)


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


def partial_trace(state, keep: str) -> np.ndarray:
    """Reduced matrix of a PureState or DensityMatrix on subsystem keep in {A, B}.

    Trace is preserved: tr of the output equals tr of the input
    (norm squared for pure states).
    """
    if keep not in ("A", "B"):
        raise InvalidInput("keep must be 'A' or 'B'")
    if isinstance(state, PureState):
        C = state.coeff_matrix()
        if keep == "A":
            return C @ C.conj().T
        return C.T @ C.conj()
    if isinstance(state, DensityMatrix):
        m, n = state.dimA, state.dimB
        t = state.mat.reshape(m, n, m, n)
        if keep == "A":
            return np.einsum("ibjb->ij", t)
        return np.einsum("aiaj->ij", t)
    raise TypeError("state must be a PureState or DensityMatrix")


def det_product_test(psi: PureState) -> float:
    """det(sigma_A - I) for normalized psi; zero iff psi is a product vector."""
    if abs(psi.norm() - 1.0) > 1e-10:
        raise ValueError("det_product_test requires a normalized state")
    C = psi.coeff_matrix()
    sigma = C @ C.conj().T
    return float(np.linalg.det(sigma - np.eye(psi.dimA)).real)


# --- Werner channel ----------------------------------------------------------

def h_matrix(p: float) -> np.ndarray:
    """h(p) = (1/8) diag(4-3p, p, p, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return np.diag([(4 - 3 * p) / 8.0, p / 8.0, p / 8.0, p / 8.0]).astype(complex)


def bell_diagonal_h(q) -> np.ndarray:
    """h = diag(q0, q1, q2, q3) / 2, the one h matrix of the Bell-diagonal
    state with weights q in the eigenensemble phases of werner._bell_ensemble;
    at the weights (1-3p/4, p/4, p/4, p/4) it is the Werner h(p)."""
    return np.diag(np.asarray(q, dtype=float)) / 2


def energy_closed_form(z, p: float) -> float:
    """One-particle energy (1/32) |(4-3p) z1^2 + p z2^2 + p z3^2 + p z4^2|^2.

    The quartic inside the modulus is 8 z^T h(p) z; the 1/32 makes this
    equal to c2 of the ensemble vector psi(z), i.e. 2 |z^T h z|^2.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    z = np.asarray(z, dtype=complex).ravel()
    quart = (4 - 3 * p) * z[0] ** 2 + p * (z[1] ** 2 + z[2] ** 2 + z[3] ** 2)
    return CLOSED_FORM_PREFACTOR * float(np.abs(quart) ** 2)


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
    edges = panel_edges_doubling(bt, d.min(), d.max())
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


# --- GK15 quadrature pass ----------------------------------------------------

# 15-point Kronrod nodes and weights on [-1, 1], mirrored from the
# nonnegative halves below, with the embedded 7-point Gauss weights on the
# odd-index nodes; the K-G difference is the per-panel error estimate.
_XK, _WK, _WG = (np.concatenate([sign * pos[:0:-1], pos]) for sign, pos in (
    (-1, np.array([0.0, 0.207784955007898, 0.405845151377397, 0.586087235467691,
                   0.741531185599394, 0.864864423359769, 0.949107912342759, 0.991455371120813])),
    (1, np.array([0.209482141084728, 0.204432940075298, 0.190350578064785, 0.169004726639267,
                  0.140653259715525, 0.104790010322250, 0.063092092629979, 0.022935322010529])),
    (1, np.array([0.417959183673469, 0.0, 0.381830050505119, 0.0,
                  0.279705391489277, 0.0, 0.129484966168870, 0.0]))))


def panel_edges_doubling(bt: float, lo_scale: float, hi_scale: float) -> np.ndarray:
    """0, then lo/8 doubled until it reaches xmax, the last edge clipped to xmax."""
    scales = (lo_scale, hi_scale, 4.0 * bt)
    lo = min(scales)
    if not (lo > 0 and np.isfinite(scales).all()):
        raise QuadratureError(f"panel scales must be positive and finite, got {scales}")
    xmax = 4.0 * bt * 45.0 + 8.0 * max(lo_scale, hi_scale)
    first = lo / 8.0
    edges = [0.0, first]
    x = first
    while x < xmax:
        x *= 2.0
        edges.append(min(x, xmax))
    return np.array(edges)


def moments_einsum(bt: float, g: float, lam: float):
    """(I0, <A>, <B>, <x>, jac, gk_error), the row of werner._moments, by one GK15 pass."""
    a, b = g * g, lam * lam
    edges = panel_edges_doubling(bt, a, b)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + half[:, None] * _XK[None, :]  # (panels, 15)
    w = np.exp(-x / (4.0 * bt)) * (x + a) ** -0.5 * (x + b) ** -1.5
    A, B = g / (x + a), lam / (x + b)
    f = np.stack([w, w * A, w * B, w * x, w * A * A, w * B * B, w * A * B,
                  w * (x - a) / (x + a) ** 2, w * (x - b) / (x + b) ** 2])
    k = np.einsum("mpn,n,p->m", f, _WK, half)
    gq = np.einsum("mpn,n,p->m", f[:4], _WG, half)
    err = np.max(np.abs(k[:4] - gq) / np.maximum(np.abs(k[:4]), 1e-300))
    mA, mB, mx, mAA, mBB, mAB, cA, cB = k[1:] / k[0]
    cov = mAB - mA * mB
    jac = np.array([[g * (cA - (mAA - mA * mA)), -3.0 * lam * cov],
                    [-g * cov, lam * (cB - 3.0 * (mBB - mB * mB))]])
    return k[0], mA, mB, mx, jac, err


def face_minimum(bt: float, h0: float, h1: float):
    """(lam*, residual) of the minimum of F on the face gamma = 0: lam*
    solves h1 = <B>_0(lam), which falls in lam, by bisection in log lam, and
    the residual is sqrt(r0^2 + 3 r1^2) there.  The gamma -> 0 moments are
    moments_einsum's at gamma = e^-30, where I0, <A> and <B> are within
    ~1e-13 of their limits."""
    g = math.exp(-30.0)
    lo, hi = -20.0, 20.0  # log lam; 60 halvings take the bracket below rounding
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if moments_einsum(bt, g, math.exp(mid))[2] > h1 else (lo, mid)
    lam = math.exp(0.5 * (lo + hi))
    _, mA, mB, *_ = moments_einsum(bt, g, lam)
    return lam, math.sqrt((h0 - mA) ** 2 + 3.0 * (h1 - mB) ** 2)


# --- the library's trapezoid pass, one point at a time -------------------------

def node_count_loop(bt: float, a: float, b: float) -> int:
    """The node count of werner._grid by stepping u until t = u - e^{-u}
    reaches log(xmax / s), then on to an even last index."""
    lo = min(a, b, 4.0 * bt)
    xmax = 4.0 * bt * 45.0 + 8.0 * max(a, b)
    span = math.log(xmax) - (math.log(lo) - math.log(64.0))
    j = 0
    while _U0 + j * _STEP - math.exp(-(_U0 + j * _STEP)) < span:
        j += 1
    return j + j % 2 + 1


def moments_one_point(bt: float, g: float, lam: float, grid=None):
    """(log I0, <A>, <B>, <x>, jac, error) of the library's trapezoid pass at
    one point, over its own nodes (by default werner._grid) and one zero that
    pairs the last, in werner._moments's arithmetic; jac is a 2x2 array,
    the rest Python floats."""
    a, b = g * g, lam * lam
    log_s, nodes = _grid(bt, a, b) if grid is None else grid
    u = _U0 + np.arange(nodes) * _STEP
    eu = np.exp(-u)
    log_x = (u - eu) + log_s
    x = np.exp(log_x)
    ra, rb = 1.0 / (x + a), 1.0 / (x + b)
    A, B = g * ra, lam * rb
    with np.errstate(over="ignore"):  # x / 4bt is inf, a weight of 0, where 4bt is tiny
        lw = x / (-4.0 * bt)
    lw = lw + log_x + np.log(_STEP * (1.0 + eu)) - 0.5 * np.log(x + a) - 1.5 * np.log(x + b)
    w = np.exp(lw - lw.max())  # shifted by the largest log weight
    f = np.zeros((9, nodes + 1))
    f[:, :-1] = [w, w * A, w * B, w * x, w * A * A, w * B * B, w * A * B,
                 w * (x - a) * (ra * ra), w * (x - b) * (rb * rb)]
    # the even and the odd node sums, each added up in node order
    even, odd = f.reshape(9, -1, 2).cumsum(axis=1)[:, -1].T
    k = (even + odd).tolist()
    err = max(abs(kk - k2) / max(abs(kk), 1e-300) for kk, k2 in zip(k, (2.0 * even[:4]).tolist()))
    mA, mB, mx, mAA, mBB, mAB, cA, cB = (v / k[0] for v in k[1:])
    cov = mAB - mA * mB
    jac = np.array([[g * (cA - (mAA - mA * mA)), -3.0 * lam * cov],
                    [-g * cov, lam * (cB - 3.0 * (mBB - mB * mB))]])
    return float(np.log(k[0]) + lw.max()), mA, mB, mx, jac, err


# --- the saddle solve, one point at a time -------------------------------------

def _saddle_steps(bt: float, h0: float, h1: float):
    """werner.saddle_search's solve of one point, as a generator: it yields
    each quadrature pass it needs as its point's _moments arguments (bt,
    gamma, lam, node grid), is sent that point's row of the pass, and
    returns the SaddleResult.  A QuadratureError of _grid, of a solve with
    no certificate or of the final pass's _require_converged ends it."""
    wt_h = math.hypot(h0, math.sqrt(3.0) * h1)  # the stop rule's floor is (rounding |wt h|)^2

    def evaluated(g, lam):
        """(F, F's rounding level, r0, r1, row) of the pass at (gamma, lam)."""
        row = yield bt, g, lam, _grid(bt, g * g or lam * lam, lam * lam)
        log_i0, mA, mB = row[:3]
        lin = g * h0 + 3.0 * lam * h1
        return log_i0 + lin, _EPS_F * (abs(log_i0) + lin), h0 - mA, h1 - mB, row

    lam_inf = 1 / (3 * h1 - h0) if 3 * h1 > 2 * h0 else 0.0  # 0.0: no beta -> inf solution
    g, lam = 1 / h0 - lam_inf, lam_inf or 1 / h1
    (F, tol, r0, r1, row), evals = (yield from evaluated(g, lam)), 1
    last = g, lam
    while (r0 * r0 if g else 0.0) + 3.0 * r1 * r1 > (_EPS_F * wt_h) ** 2:
        j00, j01, j11 = row[4:7]
        gm, c = 3.0 * lam * r1, 3.0 * lam * (r1 - j11)  # dF/dmu and d2F/dmu2 at mu = log lam
        a, b = (-j00 / g, -j01) if g else (1.0, 0.0)  # d2F/dgamma2, d2F/dgamma dmu inside
        det = a * c - b * b
        if not (c > 0 and det > 0):
            raise QuadratureError(f"saddle solve ended without a certificate after "
                                  f"{evals} passes, the last at gamma={last[0]!r}, lam={last[1]!r}")
        if g:
            d0, dm = (b * gm - c * r0) / det, (b * r0 - a * gm) / det
            if not g + d0 > 0:  # the quadratic model's minimum on the face gamma = 0
                d0, dm = -g, (b * g - gm) / c
        else:  # on the face: 1-D Newton in mu
            d0, dm = 0.0, -gm / c
        slope, frac = r0 * d0 + gm * dm, 1.0
        while True:  # Armijo backtracking on F; a face point needs a positive KKT sign
            if evals >= _MAX_EVALS:
                raise QuadratureError(f"saddle solve ended without a certificate after "
                                      f"{evals} passes, the last at gamma={last[0]!r}, lam={last[1]!r}")
            last = g + frac * d0, lam * math.exp(frac * dm)
            trial, evals = (yield from evaluated(*last)), evals + 1
            if trial[0] - F <= 1e-4 * frac * slope + tol and (last[0] > 0 or trial[2] > 0):
                break
            frac *= 0.5
        (g, lam), (F, tol, r0, r1, row) = last, trial
    log_i0, _, _, mx, *_, err = row
    _require_converged(log_i0, err)
    return SaddleResult(g, lam, math.sqrt(r0 * r0 + 3.0 * r1 * r1), evals, mx)


def saddle_alone(beta: float, p: float):
    """(SaddleResult, passes) of the solve of the one point (beta, p), each
    pass its own _moments call; passes lists the (bt, gamma, lam, grid)
    arguments of each pass in order."""
    solve, passes = _saddle_steps(*_werner_point(beta, p)), []
    try:
        ask = next(solve)
        while True:
            passes.append(ask)
            ask = solve.send(_moments(*([v] for v in ask))[0])
    except StopIteration as done:
        return done.value, passes


def lockstep_calls(passes, budget: int) -> list:
    """The _moments calls, each a list of (bt, gamma, lam, grid), of a
    lockstep solve of points that take these passes: round k holds the k-th
    pass of every point that takes more than k, in grid order, cut in turn
    into calls of budget // (the round's most nodes + 1) passes, one at least."""
    calls = []
    for k in range(max(map(len, passes))):
        asks = [point[k] for point in passes if len(point) > k]
        step = max(1, budget // (max(n for *_, (_, n) in asks) + 1))
        calls += [asks[i:i + step] for i in range(0, len(asks), step)]
    return calls


# --- Haar-Stiefel draw -------------------------------------------------------

# The library factors the Ginibre block by Cholesky-QR and the oracle below by
# Householder QR.  Both give the unique thin QR with R's diagonal positive
# real, so they agree to rounding: over the draws of the sampler tests the
# largest |Q| difference measured was 6.1e-16 and the largest relative energy
# difference 3.3e-15.  The tests allow 1e-14 and 1e-12.
Q_ROUNDING = 1e-14
ENERGY_ROUNDING = 1e-12


def ginibre_unblocked(N: int, r: int, count: int, rng) -> np.ndarray:
    """The sampler's count x N x r Ginibre block: a real and an imaginary
    normal for each entry in turn, the entries ordered column, row, matrix
    where N r^2 <= 512 (the batch-last kernel's sizes) and matrix, row,
    column otherwise, and the pairs summed."""
    if N * r * r <= 512:
        x = rng.standard_normal((r, N, count, 2)).transpose(2, 1, 0, 3)
    else:
        x = rng.standard_normal((count, N, r, 2))
    return x[..., 0] + 1j * x[..., 1]


def _householder_q(b: np.ndarray) -> np.ndarray:
    """Q of the thin QR of the stack b (..., N, r) whose R has a positive
    real diagonal: numpy's Householder QR, R's diagonal phases folded into Q."""
    q, rr = np.linalg.qr(b)
    d = np.diagonal(rr, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def stiefel_batch_unblocked(N: int, r: int, count: int, rng) -> np.ndarray:
    """count Haar points of V_{N,r}: one Householder QR of the whole Ginibre
    stack, with the phases of R's diagonal folded into Q."""
    return _householder_q(ginibre_unblocked(N, r, count, rng))


def stiefel_from_gs(v: np.ndarray, U: np.ndarray) -> StiefelPoint:
    """The paper's explicit chart of V_{N,r}: z = Q U, where Q is what
    Gram-Schmidt makes of the columns of the identity 1_r stacked on the
    (N-r) x r free block v, and U is an r x r unitary.  So Q R = (1_r; v)
    with R upper-triangular and its diagonal positive real, and the top
    r x r block of z U^dag is R^{-1}.  A U that is not unitary leaves z off
    the manifold, which StiefelPoint rejects."""
    v = np.asarray(v, dtype=complex).reshape(-1, len(U))
    q = _householder_q(np.vstack([np.eye(len(U)), v]))
    return StiefelPoint(len(q), len(U), q @ U)


def batch_energies_serial(cop, N: int, samples: int, seed: int, blocks,
                          draw=stiefel_batch_unblocked) -> np.ndarray:
    """E(z) of `samples` Haar draws on one thread: slice k of `blocks` is
    drawn by draw(N, r, count, rng) from the k-th child of SeedSequence(seed)."""
    out = np.empty(samples)
    for b, child in zip(blocks, np.random.SeedSequence(seed).spawn(len(blocks))):
        zs = draw(N, cop.r, b.stop - b.start, np.random.default_rng(child))
        out[b] = energy(zs, cop)
    return out


def haar_mean_energy(rho, N: int) -> float:
    """The exact beta = 0 mean of E(z) over Haar z on V_{N,r} for the state
    rho (a DensityMatrix): (1 - tr rho_A^2 - tr rho_B^2 + tr rho^2) / (N + 1).

    Each row of a Haar z holds the first r entries of a uniform unit vector
    of C^N, whose fourth moments are E[zbar_a zbar_b z_c z_d] =
    (delta_ac delta_bd + delta_ad delta_bc) / (N (N + 1)).  Contracting them
    with c^2(psi_i) = ||psi_i||^4 - tr sigma_A^2 and summing over the N rows
    gives the closed form, which does not depend on r.
    """
    reduced = [partial_trace(rho, keep) for keep in ("A", "B")]
    purity = [float(np.sum(np.abs(x) ** 2)) for x in (*reduced, rho.mat)]
    return (1.0 - purity[0] - purity[1] + purity[2]) / (N + 1)


# --- reweighting -------------------------------------------------------------

def weighted_stats(energies, beta: float):
    """Reweighted mean and effective sample size (sum w)^2 / sum w^2."""
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    sw = w.sum()
    return float((w * e).sum() / sw), float(sw * sw / (w * w).sum())


def jackknife_error(energies, beta: float, blocks: int) -> float:
    """Delete-one-block jackknife error of the reweighted mean; inf when
    removing some block leaves zero total weight."""
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    index = np.array_split(np.arange(e.size), blocks)
    sw, swe = w.sum(), (w * e).sum()
    rest = np.array([sw - w[b].sum() for b in index])
    if not np.all(rest > 0):
        return float("inf")
    thetas = np.array([swe - (w[b] * e[b]).sum() for b in index]) / rest
    return float(np.sqrt((blocks - 1) / blocks * np.sum((thetas - thetas.mean()) ** 2)))


# --- multiplier-extended Hamiltonian -----------------------------------------

def full_hamiltonian(z, cop, lm) -> float:
    """E(z) + sum_{alpha beta} omega_{alpha beta} C_{alpha beta}(z), real."""
    if isinstance(z, StiefelPoint):
        z = z.z
    zm = np.asarray(z, dtype=complex)
    return energy(zm, cop) + float(np.sum(lm.omega * constraint_residual(zm)).real)
