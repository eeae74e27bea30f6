"""Closed-form 2x2 Werner / Bell-diagonal pipeline.

For W(p) = (1-p)|Psi-><Psi-| + (p/4) 1 (x) 1 the doubled antisymmetric
space is one-dimensional, so the whole h-matrix set collapses to a single
real diagonal matrix h(p) = (1/8) diag(4-3p, p, p, p) and the one-particle
energy to a single quartic modulus.  A Gaussian (Hubbard-Stratonovich)
rewrite of exp(-beta |z^T h z|^2) then reduces the one-particle partition
function to a one-dimensional integral

    Z1 = pi^4 / (4 bt det h) * exp(tr[w' h]) *
         integral_0^inf dx exp(-x/4 bt) / sqrt(det(x + w' wbar')),

over the rescaled multiplier w' = h^{-1/2} omega h^{-1/2}, restricted here
to w' = diag(gamma, lam, lam, lam).  Setting the gradient of log Z1 in w'
to zero enforces the averaged Stiefel constraints; the p-region where the
minimized gradient norm vanishes is the equipartition region, and
-d log Z1 / d beta on it gives the average energy <<E_1>>.  The module
computes only the restricted form; the test suite checks it against the
gradient at a generic Hermitian w' and checks the determinant
factorization det h^2 det(4|s|^2 + w' wbar') against the direct 8x8
determinant of the Gaussian block matrix.

The gradient and its exact Jacobian in (log gamma, log lam) are further
moments of the same weight, computed in one Gauss-Kronrod pass, so
saddle_search is a Levenberg-Marquardt (Newton) solve of a few passes
from a closed-form start.  Outside the region the minimum runs to
gamma -> 0 with a finite residual; the solve clamps log gamma at a fixed
floor and reports a boundary point when it ends there with the objective
rising in log gamma.

Units: the public beta multiplies the bare quartic |(4-3p) z1^2 + p z2^2
+ p z3^2 + p z4^2|^2, which is the convention the scan and scaling
defaults below are calibrated in.  The canonical energy sum_i c2(psi_i)
carries the prefactor 1/32, so the internal decay constant of the reduced
integral is bt = 64 beta and the matching inverse temperature of the
canonical machinery in `statmech` is 32 beta.  Slopes and onsets are
unaffected by this fixed rescaling; absolute <<E_1>> values are reported
in the public units.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concurrence import h_matrices
from .quantum_core import DensityMatrix, EigenEnsemble, PureState

BETA_INTERNAL_SCALE = 64.0
CLOSED_FORM_PREFACTOR = 1.0 / 32.0
RESIDUAL_THRESHOLD = 1e-6
# saddle_search keeps log gamma and log lam in [-30, 30].  At gamma = e^-30
# (~1e-13) a boundary residual matches its gamma -> 0 limit to ~1e-12
# relative, and the sign of the log-gamma gradient is still resolved.
LOG_GAMMA_FLOOR = -30.0
_MAX_EVALS = 200  # termination guard; solves over p in (0, 1] need <= ~50
_EPS_F = 4 * np.finfo(float).eps
_GK_TOL = 1e-7


class ConstraintsUnsatisfiable(RuntimeError):
    """No positive multiplier solves the averaged constraints at this p."""


class QuadratureError(RuntimeError):
    """The reduced integral did not converge to tolerance."""


@dataclass(frozen=True)
class OmegaPrime:
    """Restricted multiplier diag(gamma, lam, lam, lam), both entries > 0."""

    gamma: float
    lam: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.lam > 0):
            raise ValueError("gamma and lam must be positive")


@dataclass(frozen=True)
class SaddleResult:
    gamma_star: float
    lambda_star: float
    residual_norm: float
    interior: bool
    iterations: int


@dataclass(frozen=True)
class EquipartitionScan:
    p_grid: tuple
    residuals: tuple
    threshold: float
    region_start: float | None
    saddles: tuple


# Bell basis, row-major (a, b) amplitude order
_PSI_MINUS = np.array([0, 1, -1, 0]) / np.sqrt(2.0)
_PSI_PLUS = np.array([0, 1, 1, 0]) / np.sqrt(2.0)
_PHI_MINUS = np.array([1, 0, 0, -1]) / np.sqrt(2.0)
_PHI_PLUS = np.array([1, 0, 0, 1]) / np.sqrt(2.0)


def werner_state(p: float) -> DensityMatrix:
    """W(p) = (1-p) |Psi-><Psi-| + (p/4) identity."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    mat = (1 - p) * np.outer(_PSI_MINUS, _PSI_MINUS) + (p / 4.0) * np.eye(4)
    return DensityMatrix(2, 2, mat)


def _bell_ensemble(weights) -> EigenEnsemble:
    """Ensemble [sqrt(q0) Psi-, i sqrt(q1) Psi+, i sqrt(q2) Phi-, sqrt(q3) Phi+].

    The i phases on the middle two vectors are what make every h-matrix
    entry real and nonnegative, hence h diagonal.
    """
    q0, q1, q2, q3 = weights
    amps = [np.sqrt(q0) * _PSI_MINUS,
            1j * np.sqrt(q1) * _PSI_PLUS,
            1j * np.sqrt(q2) * _PHI_MINUS,
            np.sqrt(q3) * _PHI_PLUS]
    vecs = tuple(PureState(2, 2, a) for a in amps)
    return EigenEnsemble(2, 2, 4, vecs, np.asarray(weights, dtype=float))


def werner_eigenensemble(p: float) -> EigenEnsemble:
    """The fixed eigenensemble of W(p) with the phase choice that makes h real."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]; p = 0 is a pure state")
    return _bell_ensemble((1 - 3 * p / 4, p / 4, p / 4, p / 4))


def h_matrix(p: float) -> np.ndarray:
    """h(p) = (1/8) diag(4-3p, p, p, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return np.diag([(4 - 3 * p) / 8.0, p / 8.0, p / 8.0, p / 8.0]).astype(complex)


def bell_diagonal_h(q0: float, q1: float, q2: float, q3: float) -> np.ndarray:
    """h of a Bell-diagonal state, computed generically from its eigenensemble.

    Reduces to h_matrix(p) at (q0, q1, q2, q3) = (1-3p/4, p/4, p/4, p/4).
    A zero weight gives a matching zero on the diagonal; callers wanting a
    strictly positive h should drop that eigenvector and reduce the rank.
    """
    q = np.array([q0, q1, q2, q3], dtype=float)
    if q.min() < 0 or abs(q.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    hset = h_matrices(_bell_ensemble(q))
    return hset.matrices[0, 0]


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


# 15-point Kronrod nodes and weights on [-1, 1], with the embedded 7-point
# Gauss weights on the odd-index nodes; the K-G difference is the per-panel
# error estimate.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529])
_WG = np.zeros(15)
_WG[1::2] = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870])


def _panel_edges(bt: float, lo_scale: float, hi_scale: float) -> np.ndarray:
    """Geometric panels from the smallest structural scale out to the point
    where the exponential factor alone is below e^{-45} of its peak."""
    scales = (lo_scale, hi_scale, 4.0 * bt)
    lo = min(scales)
    if not (lo > 0 and np.isfinite(scales).all()):
        # a zero or non-finite scale leaves no finite geometric panel set
        raise QuadratureError(f"panel scales must be positive and finite, got {scales}")
    xmax = 4.0 * bt * 45.0 + 8.0 * max(lo_scale, hi_scale)
    first = lo / 8.0
    edges = [0.0, first]
    x = first
    while x < xmax:
        x *= 2.0
        edges.append(min(x, xmax))
    return np.array(edges)


def _moments(bt: float, g: float, lam: float):
    """Moments of the weight exp(-x/4bt) (x+g^2)^{-1/2} (x+lam^2)^{-3/2}.

    With A = g/(x+g^2) and B = lam/(x+lam^2), returns
    (I0, <A>, <B>, <x>, jac, gk_error) from one vectorized Gauss-Kronrod
    pass over shared panels.  jac is the exact derivative of (<A>, <B>) in
    (log g, log lam): differentiating the weight brings down -A and -3B, so
    it needs only the further moments <A^2>, <B^2>, <AB>,
    <(x-g^2)/(x+g^2)^2> and <(x-lam^2)/(x+lam^2)^2>.  gk_error covers
    I0, <A>, <B> and <x>.
    """
    a, b = g * g, lam * lam
    edges = _panel_edges(bt, a, b)
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


def _checked_moments(beta: float, op: OmegaPrime, p: float):
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    bt = BETA_INTERNAL_SCALE * beta
    i0, mg, ml, mx, _, err = _moments(bt, op.gamma, op.lam)
    if not (np.isfinite(i0) and i0 > 0 and err < _GK_TOL):
        raise QuadratureError(f"reduced integral did not converge "
                              f"(estimate {i0!r}, rel error {err:.3e})")
    return bt, i0, mg, ml, mx


def log_z1_quadrature(beta: float, op: OmegaPrime, p: float) -> float:
    """log Z1 by one-dimensional quadrature, log-domain throughout."""
    bt, i0, _, _, _ = _checked_moments(beta, op, p)
    h11, h22 = (4 - 3 * p) / 8.0, p / 8.0
    det_h = (4 - 3 * p) * p ** 3 / 4096.0
    return (4.0 * np.log(np.pi) - np.log(4.0 * bt * det_h)
            + op.gamma * h11 + 3.0 * op.lam * h22 + np.log(i0))


def grad_log_z1(beta: float, op: OmegaPrime, p: float):
    """Averaged-constraint residuals (d log Z1 / d gamma, (1/3) d log Z1 / d lam).

    res_gamma = h11 - <gamma/(x+gamma^2)>, res_lambda = h22 - <lam/(x+lam^2)>;
    the lam component carries multiplicity 3 in the full gradient and in the
    Hilbert-Schmidt norm used by saddle_search.
    """
    _, _, mg, ml, _ = _checked_moments(beta, op, p)
    return (4 - 3 * p) / 8.0 - mg, p / 8.0 - ml


def saddle_search(beta: float, p: float) -> SaddleResult:
    """Minimize res_gamma^2 + 3 res_lambda^2 over (gamma, lam) > 0.

    Levenberg-Marquardt, with Marquardt's diagonal scaling, on the weighted
    residual 2-vector in u = (log gamma, log lam).  The exact Jacobian comes
    from the same quadrature pass as the residual, so an undamped step is a
    Newton step and interior saddles converge quadratically, to residual
    norms near machine precision.  The start is the beta -> inf interior
    solution where it exists (p > 8/9), else the beta -> 0 root
    omega' = h(p)^{-1}.  The solve stops once a step no longer moves u, or
    the linear model promises no decrease above rounding.

    u is kept in the box [LOG_GAMMA_FLOOR, -LOG_GAMMA_FLOOR]^2.  Outside the
    equipartition region the infimum lies at gamma -> 0 with a finite
    residual: the solve ends with log gamma on the floor and the objective
    still rising in log gamma.  That certificate marks a boundary point
    (interior=False); every other end is interior.  iterations counts the
    _moments evaluations.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    bt = BETA_INTERNAL_SCALE * beta
    h = np.array([(4 - 3 * p) / 8.0, p / 8.0])
    wt = np.array([1.0, np.sqrt(3.0)])  # lam carries multiplicity 3

    def residual(u):
        _, mg, ml, _, jac, _ = _moments(bt, *np.exp(u))
        return wt * (h - (mg, ml)), -wt[:, None] * jac

    if 3 * h[1] > 2 * h[0]:
        lam_inf = 1 / (3 * h[1] - h[0])
        u = np.log([1 / h[0] - lam_inf, lam_inf])
    else:
        u = np.log(1 / h)
    u = np.clip(u, LOG_GAMMA_FLOOR, -LOG_GAMMA_FLOOR)
    r, J = residual(u)
    f, mu, evals = r @ r, 0.0, 1
    while evals < _MAX_EVALS and f > 0:
        grad, H = J.T @ r, J.T @ J
        A = H + mu * np.diag(np.diag(H))
        on_floor = u[0] <= LOG_GAMMA_FLOOR and grad[0] > 0
        du = np.zeros(2) if on_floor else np.linalg.solve(A, -grad)
        crossed = u[0] + du[0] < LOG_GAMMA_FLOOR
        if on_floor or crossed:
            # hold or stop gamma on the floor and solve the lam step given that
            du[0] = LOG_GAMMA_FLOOR - u[0]
            du[1] = -(grad[1] + A[1, 0] * du[0]) / A[1, 1]
        un = np.clip(u + du, LOG_GAMMA_FLOOR, -LOG_GAMMA_FLOOR)
        if np.all(np.abs(un - u) <= _EPS_F * np.abs(u)):
            break  # the step no longer moves u above rounding
        if not crossed and f - np.sum((r + J @ (un - u)) ** 2) <= _EPS_F * f:
            break  # the linear model promises no decrease above rounding
        rn, Jn = residual(un)
        evals += 1
        fn = rn @ rn
        if fn < f:
            u, r, J, f, mu = un, rn, Jn, fn, 0.1 * mu
        else:
            mu = max(10.0 * mu, 1.0)
    boundary = u[0] <= LOG_GAMMA_FLOOR and (J.T @ r)[0] > 0
    g, lam = np.exp(u)
    return SaddleResult(float(g), float(lam), float(np.sqrt(f)), not boundary, evals)


def equipartition_scan(p_grid, beta: float,
                       threshold: float = RESIDUAL_THRESHOLD) -> EquipartitionScan:
    """Minimized residual norm per grid p; detects the onset of the region
    where the averaged constraints become satisfiable.

    region_start is the smallest grid p from which every larger grid p also
    has residual below threshold, or None if the tail never stays below.
    """
    p_grid = tuple(float(p) for p in p_grid)
    saddles = tuple(saddle_search(beta, p) for p in p_grid)
    residuals = tuple(s.residual_norm for s in saddles)
    region_start = None
    for p, res in zip(reversed(p_grid), reversed(residuals)):
        if res < threshold:
            region_start = p
        else:
            break
    return EquipartitionScan(p_grid, residuals, threshold, region_start, saddles)


def avg_energy_werner(beta: float, p: float) -> float:
    """<<E_1>> = -d log Z1/d beta at the saddle: 1/beta - <x>/(256 beta^2).

    Raises ConstraintsUnsatisfiable when no positive multiplier solves the
    averaged constraints at this p (outside the equipartition region).
    """
    sad = saddle_search(beta, p)
    if sad.residual_norm >= RESIDUAL_THRESHOLD:
        raise ConstraintsUnsatisfiable(
            f"constraints unsatisfiable at p={p} (residual {sad.residual_norm:.3e})")
    _, _, _, _, mx = _checked_moments(beta, OmegaPrime(sad.gamma_star, sad.lambda_star), p)
    return 1.0 / beta - mx / (256.0 * beta * beta)
