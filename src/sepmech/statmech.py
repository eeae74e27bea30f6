"""Statistical mechanics on ensemble space.

The constrained canonical average of the energy at inverse temperature beta,

    <<E>> = integral over V_{N,r} of E(z) e^{-beta E(z)} / Z(beta),

is estimated by importance sampling: draw z Haar-uniformly from the Stiefel
manifold (its natural invariant measure) and reweight with e^{-beta E}.  The
same machinery yields the normalized state-density histogram of E and the
log-log fits behind the scaling conjecture: for separable states the density
near zero is expected to follow A eps^delta, which forces
<<E>> = (delta+1)/beta, while entangled states keep a gap and <<E>> stays
bounded away from zero.

z1_mc handles the one-particle ensemble with the constraints enforced only
on average by a Hermitian positive multiplier omega: z is drawn from the
complex Gaussian with covariance omega^{-1} and the e^{-beta E_1} factor is
importance-sampled against it.

Determinism: every estimator consumes a single generator seeded from the
argument, draws in a fixed order independent of chunking, and reduces in
grid order, so fixed seeds give bit-identical results.  Parallel use should
derive one child seed per task via numpy SeedSequence(seed).spawn, which is
the splitting rule used by the command-line layer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costfn import CostOperator, LagrangeMultipliers, energy
from .ensembles import _stiefel_batch

JACKKNIFE_BLOCKS = 32
_CHUNK = 8192


@dataclass(frozen=True)
class McEstimate:
    """Reweighted Haar-sampling estimate of <<E>> at one beta."""

    beta: float
    samples: int
    mean_energy: float
    std_error: float
    min_energy_seen: float
    effective_sample_size: float


@dataclass(frozen=True)
class StateDensityEstimate:
    """Normalized histogram of E over Haar ensemble draws."""

    bin_edges: np.ndarray
    counts: np.ndarray
    total_samples: int


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (log x, log y) pairs.

    For energy-vs-beta fits the abscissa is log beta and delta is the fitted
    numerator minus one, from <<E>> = (delta+1)/beta.  For state-density fits
    the abscissa is log energy (stored in the same field) and delta is the
    slope itself, from the power-law ansatz A eps^delta.
    """

    log_beta: tuple
    log_energy: tuple
    slope: float
    intercept: float
    delta: float
    amplitude: float
    r_squared: float


def _batch_energies(cop: CostOperator, N: int, samples: int, seed) -> np.ndarray:
    """E(z) for `samples` Haar Stiefel draws, chunked; order is seed-fixed."""
    rng = np.random.default_rng(seed)
    out = np.empty(samples)
    done = 0
    while done < samples:
        k = min(_CHUNK, samples - done)
        z = _stiefel_batch(N, cop.r, k, rng)
        out[done:done + k] = energy(z, cop)
        done += k
    return out


def weighted_stats(energies: np.ndarray, beta: float):
    """Reweighted mean and effective sample size (sum w)^2 / sum w^2."""
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min()))  # shift-invariant, avoids underflow
    sw = w.sum()
    return float((w * e).sum() / sw), float(sw * sw / (w * w).sum())


def _jackknife_error(energies: np.ndarray, beta: float) -> float:
    """Delete-one-block jackknife standard error of the reweighted mean.

    The error is undefined when removing some block leaves zero total
    weight (one block carries all of it, as at very large beta); then it
    is inf.
    """
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    blocks = np.array_split(np.arange(e.size), JACKKNIFE_BLOCKS)
    sw, swe = w.sum(), (w * e).sum()
    rest = np.array([sw - w[b].sum() for b in blocks])
    if not np.all(rest > 0):
        return float("inf")
    thetas = np.array([swe - (w[b] * e[b]).sum() for b in blocks]) / rest
    b = len(blocks)
    return float(np.sqrt((b - 1) / b * np.sum((thetas - thetas.mean()) ** 2)))


def mc_energy_curve(cop: CostOperator, N: int, betas, samples: int, seed) -> list:
    """<<E>> estimates over a beta grid from one common sample set.

    Reusing the draws across beta makes the curve a pure reweighting of fixed
    energies, so it is monotone non-increasing in beta by construction.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if N < cop.r:
        raise ValueError(f"ensemble length {N} below rank {cop.r}")
    e = _batch_energies(cop, N, samples, seed)
    emin = float(e.min())
    out = []
    for beta in betas:
        if beta < 0:
            raise ValueError("beta must be >= 0")
        mean, ess = weighted_stats(e, beta)
        out.append(McEstimate(float(beta), samples, mean,
                              _jackknife_error(e, beta), emin, ess))
    return out


def estimate_state_density(cop: CostOperator, N: int, samples: int, bins: int,
                           seed) -> StateDensityEstimate:
    """Normalized histogram of E over Haar draws.

    Bin edges are geometric from the smallest sampled energy up to the median
    (resolving the near-zero power law) and linear above it.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    e = _batch_energies(cop, N, samples, seed)
    lo, med, hi = float(e.min()), float(np.median(e)), float(e.max())
    nb_geo = bins // 2
    if lo > 0 and med > lo * (1 + 1e-9) and hi > med * (1 + 1e-9):
        edges = np.concatenate([np.geomspace(lo, med, nb_geo + 1),
                                np.linspace(med, hi, bins - nb_geo + 1)[1:]])
    else:
        edges = np.linspace(lo, hi if hi > lo else lo + 1e-300, bins + 1)
    counts, edges = np.histogram(e, bins=edges)
    return StateDensityEstimate(edges, counts / e.size, e.size)


def _loglog_fit(lx: np.ndarray, ly: np.ndarray):
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def fit_power_law(hist: StateDensityEstimate, fit_window) -> ScalingFit:
    """Fit density ~ A eps^delta on bins whose centers lie in fit_window."""
    lo, hi = fit_window
    centers = 0.5 * (hist.bin_edges[1:] + hist.bin_edges[:-1])
    widths = np.diff(hist.bin_edges)
    keep = (centers >= lo) & (centers <= hi) & (hist.counts > 0)
    if keep.sum() < 3:
        raise ValueError("need at least 3 nonempty bins in the fit window")
    lx = np.log(centers[keep])
    ly = np.log(hist.counts[keep] / widths[keep])
    slope, intercept, r2 = _loglog_fit(lx, ly)
    return ScalingFit(tuple(lx), tuple(ly), slope, intercept,
                      delta=slope, amplitude=float(np.exp(intercept)), r_squared=r2)


def fit_energy_scaling(points) -> ScalingFit:
    """Fit <<E>> ~ A / beta; delta = A - 1 from <<E>> = (delta+1)/beta."""
    pts = [(float(b), float(v)) for b, v in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(b <= 0 or v <= 0 for b, v in pts):
        raise ValueError("beta and energy must be positive")
    lx = np.log([b for b, _ in pts])
    ly = np.log([v for _, v in pts])
    slope, intercept, r2 = _loglog_fit(lx, ly)
    amp = float(np.exp(intercept))
    return ScalingFit(tuple(lx), tuple(ly), slope, intercept,
                      delta=amp - 1.0, amplitude=amp, r_squared=r2)


def z1_mc(cop: CostOperator, beta: float, lm: LagrangeMultipliers, samples: int,
          seed):
    """One-particle partition function by Gaussian importance sampling.

    Draws z ~ CN(0, omega^{-1}) and estimates

        Z1 = pi^r e^{tr omega} / det omega * <e^{-beta E_1}>,

    together with the averaged constraints <<zbar_alpha z_beta>> and <<E_1>>
    under the full one-particle density e^{-beta E_1 - z^dag omega z}.
    Returns (z1_estimate, constraint_avg, mean_energy).

    At beta = 0 the constraint average is the Gaussian second moment, which
    in this index order is the transpose of omega^{-1}; the two coincide for
    the real symmetric multipliers used throughout the Werner pipeline.
    """
    if not lm.is_positive_definite():
        raise ValueError("omega must be positive-definite")
    if lm.r != cop.r:
        raise ValueError("omega size does not match the cost operator rank")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    omega = lm.omega
    r = lm.r
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(omega)
    w = (rng.standard_normal((samples, r)) + 1j * rng.standard_normal((samples, r)))
    w /= np.sqrt(2.0)
    z = np.linalg.solve(L.conj().T, w.T).T  # covariance (L L^dag)^{-1} = omega^{-1}
    e1 = energy(z[:, None, :], cop)  # each draw is a one-row ensemble
    u = np.exp(-beta * e1)
    su = u.sum()
    gauss = np.pi ** r * np.exp(np.trace(omega).real) / np.linalg.det(omega).real
    z1 = gauss * su / samples
    constraint_avg = np.einsum("s,sa,sb->ab", u, z.conj(), z) / su
    mean_energy = float((u * e1).sum() / su)
    return float(z1), constraint_avg, mean_energy
