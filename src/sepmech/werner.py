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

The gradient and its exact Jacobian in (log gamma, log lam) are further
moments of the same weight, computed in one pass of the trapezoid rule on
a double-exponential map of x (_moments), so
saddle_search is a Levenberg-Marquardt (Newton) solve of a few passes
from a closed-form start.  It stops at the latest when the objective is
down to the rounding level of its residual h - <A, B>, a difference of
numbers of size |h|, whose computed value below that is only noise.
Outside the region the minimum runs to gamma -> 0 with a finite residual;
the solve clamps log gamma at a fixed floor and reports a boundary point
when it ends there with the objective rising in log gamma.  The scan and
the energies of a beta grid solve all their points in lockstep, in one
flat loop of rounds over every unfinished point (_saddles).

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
# saddle_search(beta, 2/3 - 1e-12) gives 0.10200032, rounded up here
BETA_STAR = 0.1020004
# saddle_search keeps log gamma and log lam in [-30, 30].  At gamma = e^-30
# (~1e-13) a boundary residual matches its gamma -> 0 limit to ~1e-12
# relative, and the sign of the log-gamma gradient is still resolved.
LOG_GAMMA_FLOOR = -30.0
_MAX_EVALS = 200  # termination guard; over p in (0, 1], beta 1e-3..1e8 the most is 51
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
    interior: bool
    iterations: int
    mean_x: float  # <x> of the weight at the returned point

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
    With A = g/(x+g^2) and B = lam/(x+lam^2), returns one row (I0, <A>, <B>,
    <x>, j00, j01, j10, j11, error) of Python floats per point, from one
    vectorized pass of the trapezoid rule in u over the nodes of all n
    points.  The integrand is analytic in a strip about the real u axis and
    decays double-exponentially at both ends, so the rule converges
    geometrically in 1/_STEP; error is the relative difference of the step
    and double-step sums, the latter over the even nodes, for I0, <A>, <B>
    and <x>.  jac = [[j00, j01], [j10, j11]] is the exact derivative of
    (<A>, <B>) in (log g, log lam): differentiating the weight brings down
    -A and -3B, so it needs only the further moments <A^2>, <B^2>, <AB>,
    <(x-g^2)/(x+g^2)^2> and <(x-lam^2)/(x+lam^2)^2>.  The node axis is split
    into pairs and an even/odd axis ahead of the point axis, so the sums
    over the pairs never run along the innermost axis and numpy adds them
    up in node order; a point's nodes are padded to the most of any point
    with zero-weight nodes held at its last one, which add exact zeros, so
    every row has the bits of a pass of its point alone.
    """
    log_s, nodes = np.array(grids).T
    j = np.arange(nodes.max() + 1).reshape(-1, 2, 1)  # (pairs, even/odd, 1)
    u = _U0 + j * _STEP
    eu = np.exp(-u)
    t = u - eu
    last = t.ravel()[nodes.astype(int) - 1]
    x = np.exp(np.minimum(t, last) + log_s)  # (pairs, 2, points)
    dw = np.where(j < nodes, _STEP * (1.0 + eu), 0.0) * x  # dx = x (1 + e^{-u}) du
    bta, ga, la = np.array([bt, g, lam], dtype=float)
    a, b = ga * ga, la * la
    ra, rb = 1.0 / (x + a), 1.0 / (x + b)
    A, B = ga * ra, la * rb
    f = np.empty((9,) + x.shape)  # the nine integrands, filled in place
    w, wA, wB = f[0], f[1], f[2]
    # x / 4bt overflows only where 4bt is tiny (beta below ~1e-308); exp(-x/4bt)
    # is 0 for any x past 1e300 * 4bt, so such x are capped there (the cap,
    # a Python float, is inf without a warning wherever 4bt is large, and
    # leaves every x of a normal pass as it is)
    xe = np.minimum(x, [1e300 * 4.0 * float(v) for v in bt])
    # the trapezoid weights ride in w, so each node sum is an integral
    np.multiply(np.exp(xe / (-4.0 * bta)) * dw, np.sqrt(ra) * rb * np.sqrt(rb), out=w)
    for row, (y, v) in enumerate(((w, A), (w, B), (w, x), (wA, A), (wB, B), (wA, B),
                                  (w * (x - a), ra * ra), (w * (x - b), rb * rb)), 1):
        np.multiply(y, v, out=f[row])
    even, odd = f.sum(axis=1).transpose(1, 0, 2)  # (9, points) each
    k = even + odd
    # the relative step-h versus step-2h differences of I0, <A>, <B> and <x>
    e0, e1, e2, e3 = np.abs(k[:4] - 2.0 * even[:4]) / np.maximum(np.abs(k[:4]), 1e-300)
    m = k[1:] / k[0]
    mA, mB, _, mAA, mBB, mAB, cA, cB = m
    cov = mAB - mA * mB
    rows = np.empty((9, len(grids)))
    rows[0], rows[1:4] = k[0], m[:3]
    np.multiply(ga, cA - (mAA - mA * mA), out=rows[4])
    np.multiply(-3.0 * la, cov, out=rows[5])
    np.multiply(-ga, cov, out=rows[6])
    np.multiply(la, cB - 3.0 * (mBB - mB * mB), out=rows[7])
    np.maximum(np.maximum(e0, e1), np.maximum(e2, e3), out=rows[8])
    return rows.T.tolist()


def _require_converged(i0, err):
    """Raise QuadratureError unless a _moments pass gives a finite, positive
    I0 whose step versus double-step error estimate is below _QUAD_TOL."""
    if not (np.isfinite(i0) and i0 > 0 and err < _QUAD_TOL):
        raise QuadratureError(f"reduced integral did not converge "
                              f"(estimate {i0!r}, rel error {err:.3e})")


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
    i0, mg, ml, *_, err = _moments([bt], [g], [lam], [_grid(bt, g * g, lam * lam)])[0]
    _require_converged(i0, err)
    return bt, h0, h1, i0, mg, ml


def log_z1_quadrature(beta: float, op: OmegaPrime, p: float) -> float:
    """log Z1 by one-dimensional quadrature, log-domain throughout."""
    bt, h0, h1, i0, _, _ = _checked_moments(beta, op, p)
    return (4.0 * np.log(np.pi) - np.log(4.0 * bt * h0 * h1 ** 3)
            + op.gamma * h0 + 3.0 * op.lam * h1 + np.log(i0))


def grad_log_z1(beta: float, op: OmegaPrime, p: float):
    """Averaged-constraint residuals (d log Z1 / d gamma, (1/3) d log Z1 / d lam).

    res_gamma = h11 - <gamma/(x+gamma^2)>, res_lambda = h22 - <lam/(x+lam^2)>;
    the lam component carries multiplicity 3 in the full gradient and in the
    Hilbert-Schmidt norm used by saddle_search.
    """
    _, h0, h1, _, mg, ml = _checked_moments(beta, op, p)
    return h0 - mg, h1 - ml


def saddle_search(beta: float, p: float) -> SaddleResult:
    """Minimize res_gamma^2 + 3 res_lambda^2 over (gamma, lam) > 0.

    Levenberg-Marquardt, with Marquardt's diagonal scaling, on the weighted
    residual 2-vector in u = (log gamma, log lam).  The exact Jacobian comes
    from the same quadrature pass as the residual, so an undamped step is a
    Newton step and interior saddles converge quadratically, to residual
    norms near machine precision.  The start is the beta -> inf interior
    solution where it exists (p > 8/9), else the beta -> 0 root
    omega' = h(p)^{-1}.  The solve stops once a step no longer moves u, or
    the linear model promises no decrease above rounding, or the objective
    is at most (_EPS_F |wt h|)^2 with wt = (1, sqrt 3): the residual is
    h - <A, B>, so below that level its computed value is rounding noise
    and a further pass cannot lower it.

    u is kept in the box [LOG_GAMMA_FLOOR, -LOG_GAMMA_FLOOR]^2.  Outside the
    equipartition region the infimum lies at gamma -> 0 with a finite
    residual: the solve ends with log gamma on the floor and the objective
    still rising in log gamma.  That certificate marks a boundary point
    (interior=False); every other end is interior.  iterations counts the
    quadrature passes at the point.  mean_x is <x> from the pass at the
    returned point, and that pass must have converged: QuadratureError
    otherwise.  This is the one-point case of the lockstep loop of _saddles,
    whose rounds apply this update to each point of a grid.
    """
    return next(_saddles([(beta, p)]))


def _clip(v):
    """v held to the box [LOG_GAMMA_FLOOR, -LOG_GAMMA_FLOOR]."""
    return LOG_GAMMA_FLOOR if v < LOG_GAMMA_FLOOR else -LOG_GAMMA_FLOOR if v > -LOG_GAMMA_FLOOR else v


def _saddles(points):
    """The SaddleResult of each (beta, p) point, in order; InvalidInput,
    before any solve, unless every point is valid (_werner_point).

    The solves run in lockstep, in rounds over per-point state: a round
    forms the node grid of each unfinished point's next pass, evaluates the
    passes in grid order in _moments calls of _NODE_BUDGET // (the round's
    most nodes + 1) passes each, one at least, and applies saddle_search's
    update (residual, accept or reject, mu, stop rules, next step) to each
    point's row on Python floats, so each point's arithmetic is that of a
    solve on its own.  A point whose solve failed raises its
    QuadratureError when the iteration reaches it, so the first failure in
    grid order is the one reported.
    """
    w1 = math.sqrt(3.0)  # lam carries multiplicity 3
    # per point: bt, h0, h1, the third stop rule's floor, mu, the passes asked
    # for, the accepted u and (f, r, J, i0, <x>, error) at it, or None, None
    solves, pending = [], []  # pending: (point, u, bt) of each pass to ask for next
    for i, (beta, p) in enumerate(points):
        bt, h0, h1 = _werner_point(beta, p)
        solves.append([bt, h0, h1, (_EPS_F * math.hypot(h0, w1 * h1)) ** 2, 0.0, 1, None, None])
        lam_inf = 1 / (3 * h1 - h0) if 3 * h1 > 2 * h0 else 0.0  # 0.0: no beta -> inf solution
        pending.append((i, (_clip(math.log(1 / h0 - lam_inf)), _clip(math.log(lam_inf or 1 / h1))), bt))
    outcomes = [None] * len(solves)
    while pending:
        asks = []
        for i, un, bt in pending:
            g, lam = math.exp(un[0]), math.exp(un[1])
            try:
                asks.append((i, un, bt, g, lam, _grid(bt, g * g, lam * lam)))
            except QuadratureError as e:
                outcomes[i] = e
        pending = []
        step = max(1, _NODE_BUDGET // (max((n for *_, (_, n) in asks), default=0) + 1))
        for k in range(0, len(asks), step):
            ids, uns, *args = zip(*asks[k:k + step])
            for i, un, (i0, mg, ml, mx, j00, j01, j10, j11, err) in zip(ids, uns, _moments(*args)):
                s = solves[i]
                bt, h0, h1, f_floor, mu, evals, u, state = s
                r0, r1 = h0 - mg, w1 * (h1 - ml)
                trial = r0 * r0 + r1 * r1, r0, r1, -j00, -j01, -w1 * j10, -w1 * j11, i0, mx, err
                if state is None:
                    u, state = un, trial
                elif trial[0] < state[0]:
                    u, state, mu = un, trial, 0.1 * mu
                else:
                    mu = max(10.0 * mu, 1.0)
                if evals < _MAX_EVALS and state[0] > f_floor:
                    (u0, u1), (f, r0, r1, j00, j01, j10, j11, *_) = u, state
                    g0, g1 = j00 * r0 + j10 * r1, j01 * r0 + j11 * r1  # J^T r
                    h00, h01, h11 = j00 * j00 + j10 * j10, j00 * j01 + j10 * j11, j01 * j01 + j11 * j11
                    # the damped matrix J^T J + mu diag(J^T J): its (1, 1) entry, and its
                    # determinant as det(J)^2 + mu (2 + mu) h00 h11, free of cancellation
                    a11 = h11 + mu * h11
                    det = (j00 * j11 - j01 * j10) ** 2 + mu * (2.0 + mu) * h00 * h11
                    on_floor = u0 <= LOG_GAMMA_FLOOR and g0 > 0
                    du0 = 0.0 if on_floor else (h01 * g1 - a11 * g0) / det
                    crossed = u0 + du0 < LOG_GAMMA_FLOOR
                    if on_floor or crossed:
                        du0 = LOG_GAMMA_FLOOR - u0  # hold or stop gamma on the floor
                    du1 = -(g1 + h01 * du0) / a11  # the lam step given du0
                    un = (_clip(u0 + du0), _clip(u1 + du1))
                    s0, s1 = un[0] - u0, un[1] - u1
                    # the first two stop rules: the step no longer moves u above
                    # rounding, or the linear model promises no decrease above it
                    if not (abs(s0) <= _EPS_F * abs(u0) and abs(s1) <= _EPS_F * abs(u1)):
                        model = (r0 + j00 * s0 + j01 * s1) ** 2 + (r1 + j10 * s0 + j11 * s1) ** 2
                        if crossed or not f - model <= _EPS_F * f:
                            s[4:] = mu, evals + 1, u, state
                            pending.append((i, un, bt))
                            continue
                f, r0, r1, j00, _, j10, _, i0, mx, err = state
                try:
                    _require_converged(i0, err)
                except QuadratureError as e:
                    outcomes[i] = e
                    continue
                boundary = u[0] <= LOG_GAMMA_FLOOR and j00 * r0 + j10 * r1 > 0  # (J^T r)_gamma
                outcomes[i] = SaddleResult(math.exp(u[0]), math.exp(u[1]), math.sqrt(f), not boundary, evals, mx)
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
