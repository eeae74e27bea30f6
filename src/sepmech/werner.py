"""Closed-form 2x2 Werner pipeline.

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
minimized gradient norm vanishes (is below RESIDUAL_THRESHOLD, the one
membership test, SaddleResult.region_member) is the equipartition region,
and -d log Z1 / d beta on it gives the average energy <<E_1>>.  The module
computes only the restricted form; the test suite checks it against the
gradient at a generic Hermitian w' and checks the determinant
factorization det h^2 det(4|s|^2 + w' wbar') against the direct 8x8
determinant of the Gaussian block matrix.

F = log I0 + gamma h0 + 3 lam h1, log Z1 up to a constant, is strictly
convex in (gamma, lam), and its gradient is the residual.  log I0, the
residual and the exact Hessian of F come from one pass of the trapezoid
rule on a double-exponential map of x, in log weights that do not underflow
(_moments), so saddle_search is a projected Newton solve of a few passes
on gamma >= 0 from a closed-form start.  It stops once the free gradient
is down to the rounding level of the residual h - <A, B>, a difference of
numbers of size |h|, whose computed value below that is only noise.  The
one minimum either lies inside, where the constraints hold, or on the face
gamma = 0 with dF/dgamma = h0 - <A>_0 > 0 (the KKT sign, from the
gamma -> 0 limit of the moments), which certifies a boundary point.  The
scan and the energies of a beta grid solve all their points in lockstep,
in one flat loop of rounds over every unfinished point (_saddles).

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

import math
from dataclasses import dataclass

import numpy as np

from .quantum_core import DensityMatrix, Ensemble, InvalidInput

BETA_INTERNAL_SCALE = 64.0
RESIDUAL_THRESHOLD = 1e-6
# below beta* the region admits W(p) with p < 2/3, which are entangled, so
# membership certifies separability only at beta >= beta*: a bisection on
# saddle_search(beta, 2/3 - 1e-12) gives 0.10200024, rounded up here
BETA_STAR = 0.1020004
_MAX_EVALS = 200  # termination guard; over p 0.001:0.001:1, 23 beta 1e-3..1e8 the most is 16
_EPS_F = 4 * np.finfo(float).eps
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_QUAD_TOL = 1e-7  # bound on a _moments pass's step versus double-step error estimate
# the trapezoid rule of _moments: step and first node in u, x = s exp(u - e^{-u})
_STEP = 0.2
_U0 = -4.0
_LOG_64 = math.log(64.0)
# padded trapezoid nodes per _moments call of a lockstep round (or one pass),
# so a round's transient arrays do not grow with the grid
_NODE_BUDGET = 8192


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
            raise InvalidInput("gamma and lam must be positive")


@dataclass(frozen=True)
class SaddleResult:
    gamma_star: float
    lambda_star: float
    residual_norm: float
    iterations: int
    mean_x: float  # <x> of the weight at the returned point

    @property
    def interior(self) -> bool:
        """True when the solve ended inside, off the face gamma = 0."""
        return self.gamma_star > 0

    @property
    def region_member(self) -> bool:
        """True when the averaged constraints are solved: residual below RESIDUAL_THRESHOLD."""
        return self.residual_norm < RESIDUAL_THRESHOLD


@dataclass(frozen=True)
class EquipartitionScan:
    p_grid: tuple
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
        raise InvalidInput("p must lie in [0, 1]")
    mat = (1 - p) * np.outer(_PSI_MINUS, _PSI_MINUS) + (p / 4.0) * np.eye(4)
    return DensityMatrix(2, 2, mat)


def _bell_ensemble(weights) -> Ensemble:
    """Ensemble [sqrt(q0) Psi-, i sqrt(q1) Psi+, i sqrt(q2) Phi-, sqrt(q3) Phi+].

    The i phases on the middle two vectors are what make every h-matrix
    entry real and nonnegative, hence h diagonal.
    """
    q0, q1, q2, q3 = weights
    return Ensemble(2, 2, [np.sqrt(q0) * _PSI_MINUS,
                           1j * np.sqrt(q1) * _PSI_PLUS,
                           1j * np.sqrt(q2) * _PHI_MINUS,
                           np.sqrt(q3) * _PHI_PLUS])


def werner_eigenensemble(p: float) -> Ensemble:
    """The fixed eigenensemble of W(p) with the phase choice that makes h real."""
    if not 0.0 < p <= 1.0:
        raise InvalidInput("p must lie in (0, 1]; p = 0 is a pure state")
    return _bell_ensemble((1 - 3 * p / 4, p / 4, p / 4, p / 4))


def _werner_h(p: float):
    """(h0, h1), the diagonal of h(p) = diag(h0, h1, h1, h1) = (1/8) diag(4-3p, p, p, p)."""
    return (4 - 3 * p) / 8.0, p / 8.0


def _grid(bt: float, a: float, b: float):
    """(log s, n): the trapezoid nodes of _moments at the point with 4 bt and
    the squared multipliers a = g^2, b = lam^2 as its scales.

    The nodes are x_j = s exp(t_j), t_j = u_j - e^{-u_j}, u_j = _U0 + j _STEP
    for j < n, with s = min(a, b, 4 bt) / 64.  n - 1 is the first even j
    with x_j at or past the point where the exponential factor alone is
    below e^{-45} of its peak, xmax = 180 bt + 8 max(a, b).  Both come from
    logarithms, so no x_j overflows however far apart the scales lie.
    """
    c = 4.0 * bt
    xmax = c * 45.0 + 8.0 * (b if b > a else a)
    if not (a >= _TINY and b >= _TINY and c >= _TINY and xmax < math.inf):
        # a zero or non-finite scale or end leaves no finite node set, and a
        # subnormal 4 bt = 256 beta (beta below ~8.7e-311) overflows x / 4bt
        raise QuadratureError(f"quadrature scales must be normal positive floats with a "
                              f"finite end 180 bt + 8 max(a, b), got {(a, b, c)}")
    log_s = math.log(min(a, b, c)) - _LOG_64
    span = math.log(xmax) - log_s  # x_j >= xmax where t_j >= span
    # span >= log(45 * 64) ~ 8, where e^{-u} < _STEP, so the first j with
    # t_j >= span is one of the two after the rounded closed form
    j = math.ceil((span - _U0) / _STEP) - 1
    u, v = _U0 + j * _STEP, _U0 + (j + 1) * _STEP
    j += (u - math.exp(-u) < span) + (v - math.exp(-v) < span)
    return log_s, j + j % 2 + 1


def _moments(bt, g, lam, grids) -> list:
    """Moments of the weight exp(-x/4bt) (x+g^2)^{-1/2} (x+lam^2)^{-3/2} at n points.

    bt, g and lam hold n floats and grids their n node sets (from _grid).
    With A = g/(x+g^2) and B = lam/(x+lam^2), returns one row (log I0, <A>,
    <B>, <x>, j00, j01, j11, error) of Python floats per point (at g = 0,
    <A> is its g -> 0 limit 2 / (lam^3 I0), as A tends to a point mass at
    x = 0, not to 0; j00 and j01 are then 0), from one vectorized pass of
    the trapezoid rule in u over the nodes of all n points.  Node weights
    are formed as logarithms and shifted by their point's largest, so no
    sum underflows however small I0 is.  The integrand is analytic in a
    strip about the real u axis and decays double-exponentially at both
    ends, so the rule converges geometrically in 1/_STEP; error is the
    relative difference of the step and double-step sums, the latter over
    the even nodes, for I0, <A>, <B> and <x>.  [[j00, j01], [j10, j11]] is
    the exact derivative of (<A>, <B>) in (log g, log lam), j10 = g j01 /
    (3 lam) left out: differentiating the weight brings down -A and -3B, so
    it needs only the further moments <A^2>, <B^2>, <AB>,
    <(x-g^2)/(x+g^2)^2> and <(x-lam^2)/(x+lam^2)^2>.  The node axis is
    split into pairs and an even/odd axis ahead of the point axis, so numpy
    adds the pairs up in node order; a point's nodes are padded to the most
    of any point with log weights -inf, which add exact zeros, so every row
    has the bits of a pass of its point alone.
    """
    log_s, nodes = np.array(grids).T
    j = np.arange(nodes.max() + 1).reshape(-1, 2, 1)  # (pairs, even/odd, 1)
    u = _U0 + j * _STEP
    eu = np.exp(-u)
    t = u - eu
    last = t.ravel()[nodes.astype(int) - 1]
    log_x = np.minimum(t, last) + log_s  # (pairs, 2, points)
    x = np.exp(log_x)
    bta, ga, la = np.array([bt, g, lam], dtype=float)
    a, b = ga * ga, la * la
    ra, rb = 1.0 / (x + a), 1.0 / (x + b)
    A, B = ga * ra, la * rb
    with np.errstate(over="ignore"):  # to -inf, the log of weight 0, at beta below ~1e-308
        lw = x / (-4.0 * bta)
    # log dx = log x + log(_STEP (1 + e^{-u})) rides in, so each node sum is an integral
    lw = lw + log_x + np.log(_STEP * (1.0 + eu)) - 0.5 * np.log(x + a) - 1.5 * np.log(x + b)
    lw = np.where(j < nodes, lw, -np.inf)
    shift = lw.max(axis=(0, 1))
    f = np.empty((9,) + x.shape)  # the nine integrands, filled in place
    w, wA, wB = f[0], f[1], f[2]
    np.exp(lw - shift, out=w)
    for row, (y, v) in enumerate(((w, A), (w, B), (w, x), (wA, A), (wB, B), (wA, B),
                                  (w * (x - a), ra * ra), (w * (x - b), rb * rb)), 1):
        np.multiply(y, v, out=f[row])
    even, odd = f.sum(axis=1).transpose(1, 0, 2)  # (9, points) each
    k = even + odd
    # the relative step-h versus step-2h differences of I0, <A>, <B> and <x>
    e0, e1, e2, e3 = np.abs(k[:4] - 2.0 * even[:4]) / np.maximum(np.abs(k[:4]), 1e-300)
    m = k[1:] / k[0]  # k[0] >= 1: the largest node adds exp(0)
    mA, mB, _, mAA, mBB, mAB, cA, cB = m
    rows = np.empty((8, len(grids)))
    rows[0], rows[1:4] = np.log(k[0]) + shift, m[:3]
    face = ga == 0.0
    if face.any():
        rows[1, face] = np.exp(np.log(2.0) - 3.0 * np.log(la[face]) - rows[0, face])
    np.multiply(ga, cA - (mAA - mA * mA), out=rows[4])
    np.multiply(-3.0 * la, mAB - mA * mB, out=rows[5])
    np.multiply(la, cB - 3.0 * (mBB - mB * mB), out=rows[6])
    np.maximum(np.maximum(e0, e1), np.maximum(e2, e3), out=rows[7])
    return rows.T.tolist()


def _require_converged(log_i0, err):
    """Raise QuadratureError unless a _moments pass gives a finite log I0
    whose step versus double-step error estimate is below _QUAD_TOL."""
    if not (np.isfinite(log_i0) and err < _QUAD_TOL):
        raise QuadratureError(f"reduced integral did not converge "
                              f"(log estimate {log_i0!r}, rel error {err:.3e})")


def _werner_point(beta: float, p: float):
    """(bt, h0, h1) at (beta, p); InvalidInput unless 0 < beta < inf and p
    lies in (0, 1], where h(p) is invertible.  bt is a Python float, which
    overflows to inf without numpy's RuntimeWarning, even for a numpy beta."""
    if not 0.0 < beta < math.inf:
        raise InvalidInput("beta must be positive and finite")
    if not 0.0 < p <= 1.0:
        raise InvalidInput("p must lie in (0, 1]")
    return (BETA_INTERNAL_SCALE * float(beta), *_werner_h(p))


def _checked_moments(beta: float, op: OmegaPrime, p: float):
    bt, h0, h1 = _werner_point(beta, p)
    g, lam = op.gamma, op.lam
    log_i0, mg, ml, *_, err = _moments([bt], [g], [lam], [_grid(bt, g * g, lam * lam)])[0]
    _require_converged(log_i0, err)
    return bt, h0, h1, log_i0, mg, ml


def log_z1_quadrature(beta: float, op: OmegaPrime, p: float) -> float:
    """log Z1 by one-dimensional quadrature, log-domain throughout."""
    bt, h0, h1, log_i0, _, _ = _checked_moments(beta, op, p)
    return (4.0 * np.log(np.pi) - np.log(4.0 * bt * h0 * h1 ** 3)
            + op.gamma * h0 + 3.0 * op.lam * h1 + log_i0)


def grad_log_z1(beta: float, op: OmegaPrime, p: float):
    """Averaged-constraint residuals (d log Z1 / d gamma, (1/3) d log Z1 / d lam).

    res_gamma = h11 - <gamma/(x+gamma^2)>, res_lambda = h22 - <lam/(x+lam^2)>;
    the lam component carries multiplicity 3 in the full gradient and in the
    Hilbert-Schmidt norm used by saddle_search.
    """
    _, h0, h1, _, mg, ml = _checked_moments(beta, op, p)
    return h0 - mg, h1 - ml


def saddle_search(beta: float, p: float) -> SaddleResult:
    """Minimize the convex F(gamma, lam) = log I0 + gamma h0 + 3 lam h1 on
    gamma >= 0, lam > 0; its gradient is the residual (r0, 3 r1), with
    r0 = h0 - <A> and r1 = h1 - <B>.

    Projected Newton in (gamma, log lam) with the exact Hessian from the
    pass's Jacobian rows and Armijo backtracking on F, F's rounding level
    allowed since near the minimum a Newton step's decrease is below it,
    from the beta -> inf interior solution where it exists (p > 8/9), else
    the beta -> 0 root omega' = h(p)^{-1}.  A step that would cross gamma = 0
    goes to the quadratic model's minimum on that face, where the pass
    takes the gamma -> 0 limit moments; a face point is accepted only with
    a positive KKT sign r0 = h0 - <A>_0, and the solve goes on by 1-D
    Newton steps on the face.  It stops once the free gradient (r0^2 +
    3 r1^2, or 3 r1^2 on the face) is at most (_EPS_F |wt h|)^2, wt =
    (1, sqrt 3): the residual is h - <A, B>, so below that its computed
    value is noise.  An end inside is interior; an end on the face is a
    boundary point, with gamma_star = 0.0 and residual_norm |h0 - <A>_0|.
    Any other end (no descent step, or _MAX_EVALS passes) raises
    QuadratureError, as does a final pass whose error estimate is not
    below _QUAD_TOL.  iterations counts the quadrature passes and mean_x
    is <x> from the returned point's pass.  This is the one-point case of
    the lockstep loop of _saddles.
    """
    return next(_saddles([(beta, p)]))


def _saddles(points):
    """The SaddleResult of each (beta, p) point, in order; InvalidInput,
    before any solve, unless every point is valid (_werner_point).

    The solves run in lockstep, in rounds over per-point state: a round
    forms the node grid of each unfinished point's next pass (on the face,
    from lam alone), evaluates the passes in grid order in _moments calls
    of _NODE_BUDGET // (the round's most nodes + 1) passes each, one at
    least, and applies saddle_search's update (Armijo test, stop rule, next
    step) to each point's row on Python floats, so each point's arithmetic
    is that of a solve on its own.  A point whose solve failed raises its
    QuadratureError when the iteration reaches it, so the first failure in
    grid order is the one reported.
    """
    # per point: bt, h0, h1, |wt h|, the passes asked for, the accepted
    # (gamma, lam, F, F's rounding level) or None, and the step from it
    # (d gamma, d log lam, F's linear decrease along it, the fraction taken)
    solves, pending = [], []  # pending: (point, bt, gamma, lam) of each pass to ask for next
    for i, (beta, p) in enumerate(points):
        bt, h0, h1 = _werner_point(beta, p)
        solves.append([bt, h0, h1, math.hypot(h0, math.sqrt(3.0) * h1), 1, None, None])
        lam_inf = 1 / (3 * h1 - h0) if 3 * h1 > 2 * h0 else 0.0  # 0.0: no beta -> inf solution
        pending.append((i, bt, 1 / h0 - lam_inf, lam_inf or 1 / h1))
    outcomes = [None] * len(solves)
    while pending:
        asks = []
        for i, bt, g, lam in pending:
            try:
                asks.append((i, bt, g, lam, _grid(bt, g * g or lam * lam, lam * lam)))
            except QuadratureError as e:
                outcomes[i] = e
        pending = []
        step = max(1, _NODE_BUDGET // (max((n for *_, (_, n) in asks), default=0) + 1))
        for k in range(0, len(asks), step):
            ids, *args = zip(*asks[k:k + step])
            for i, g, lam, (log_i0, mA, mB, mx, j00, j01, j11, err) in zip(
                    ids, args[1], args[2], _moments(*args)):
                s = solves[i]
                bt, h0, h1, wt_h, evals, at, d = s
                r0, r1 = h0 - mA, h1 - mB
                try:
                    lin = g * h0 + 3.0 * lam * h1
                    # Armijo's test; a face point needs a positive KKT sign
                    if at is None or (log_i0 + lin - at[2] <= 1e-4 * d[3] * d[2] + at[3]
                                      and (g > 0 or r0 > 0)):
                        at = g, lam, log_i0 + lin, _EPS_F * (abs(log_i0) + lin)
                        if (r0 * r0 if g else 0.0) + 3.0 * r1 * r1 <= (_EPS_F * wt_h) ** 2:
                            _require_converged(log_i0, err)
                            outcomes[i] = SaddleResult(g, lam, math.sqrt(r0 * r0 + 3.0 * r1 * r1),
                                                       evals, mx)
                            continue
                        # dF/dmu and the Hessian [[a, b], [b, c]] in (gamma, mu = log lam)
                        gm, c = 3.0 * lam * r1, 3.0 * lam * (r1 - j11)
                        a, b = (-j00 / g, -j01) if g else (1.0, 0.0)
                        det, d = a * c - b * b, None
                        if c > 0 and det > 0:
                            d0 = (b * gm - c * r0) / det if g else 0.0
                            dm = (b * r0 - a * gm) / det
                            if g and not g + d0 > 0:  # to the quadratic model's minimum on the face
                                d0, dm = -g, (b * g - gm) / c
                            d = d0, dm, r0 * d0 + gm * dm, 1.0
                    else:
                        d = d[0], d[1], d[2], 0.5 * d[3]  # backtrack
                    if d is None or evals >= _MAX_EVALS:
                        raise QuadratureError(f"saddle solve ended without a certificate after "
                                              f"{evals} passes, the last at gamma={g!r}, lam={lam!r}")
                except QuadratureError as e:
                    outcomes[i] = e
                    continue
                s[4:] = evals + 1, at, d
                pending.append((i, bt, at[0] + d[3] * d[0], at[1] * math.exp(d[3] * d[1])))
    for out in outcomes:
        if isinstance(out, QuadratureError):
            raise out
        yield out


def equipartition_scan(p_grid, beta: float) -> EquipartitionScan:
    """One saddle per grid p; detects the onset of the region where the
    averaged constraints become satisfiable.

    region_start is the smallest grid p from which every larger grid p is
    also a region member (SaddleResult.region_member), or None if the
    largest grid p is not.  InvalidInput, before any solve, unless beta > 0
    and every grid p lies in (0, 1].
    """
    p_grid = tuple(float(p) for p in p_grid)
    saddles = tuple(_saddles([(beta, p) for p in p_grid]))
    region_start = None
    for p, sad in zip(reversed(p_grid), reversed(saddles)):
        if not sad.region_member:
            break
        region_start = p
    return EquipartitionScan(p_grid, region_start, saddles)


def avg_energy_werner(beta: float, p: float) -> float:
    """<<E_1>> = -d log Z1/d beta at the saddle: 1/beta - <x>/(256 beta^2),
    with <x> from the saddle's own last quadrature pass.

    Raises ConstraintsUnsatisfiable when no positive multiplier solves the
    averaged constraints at this p (outside the equipartition region), and
    QuadratureError where 256 beta^2 (and with it <x>) underflows or the two
    terms cancel 8 of their 16 digits, 1 - <x>/(256 beta) < 1e-8.
    """
    return _avg_energies([beta], p)[0]


def _avg_energies(betas, p: float) -> list:
    """avg_energy_werner at each beta of betas, the saddles solved in
    lockstep (_saddles); the first beta in order whose saddle or energy
    fails raises."""
    out = []
    for beta, sad in zip(betas, _saddles([(beta, p) for beta in betas])):
        beta = float(beta)
        if not sad.region_member:
            raise ConstraintsUnsatisfiable(
                f"constraints unsatisfiable at p={p} (residual {sad.residual_norm:.3e})")
        bb = 256.0 * beta * beta
        if not (bb >= _TINY and 1.0 - sad.mean_x / (256.0 * beta) >= 1e-8):
            raise QuadratureError(f"<<E_1>> at beta={beta!r} is lost to underflow or "
                                  f"cancellation in 1/beta - <x>/(256 beta^2)")
        out.append(1.0 / beta - sad.mean_x / bb)
    return out
