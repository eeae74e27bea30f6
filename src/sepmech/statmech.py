"""Statistical mechanics on ensemble space.

The constrained canonical average of the energy at inverse temperature beta,

    <<E>> = integral over V_{N,r} of E(z) e^{-beta E(z)} / Z(beta),

is estimated by importance sampling: draw z Haar-uniformly from the Stiefel
manifold (its natural invariant measure) and reweight with e^{-beta E}.
One sample set feeds both reductions: sample_energies draws the energies
once, and mc_energy_curve (the reweighting over a beta grid) and
estimate_state_density (the normalized histogram of E) are pure functions
of that array, so a caller that needs both pays for one draw.
fit_energy_scaling is the log-log fit behind the scaling conjecture: for
separable states the density near zero is expected to follow A eps^delta,
which forces <<E>> = (delta+1)/beta, while entangled states keep a gap and
<<E>> stays bounded away from zero.

z1_mc handles the one-particle ensemble with the constraints enforced only
on average by a Hermitian positive multiplier omega: z is drawn from the
complex Gaussian with covariance omega^{-1} and the e^{-beta E_1} factor is
importance-sampled against it.

Determinism: fixed seeds give bit-identical results.  z1_mc consumes a
single generator seeded from the argument.  sample_energies cuts the whole
sample into _sub_blocks slices of _QR_ENTRIES // (N r) matrices (at least
one), so a slice holds about the same number of complex entries at every
shape, and spawns one child SeedSequence per slice from its seed, in slice
order (a SeedSequence passed in is copied first, so it is not advanced).
Each slice is one task on a pool of one thread per usable CPU that lives
for one call: it builds its own generator from its child seed, fills the
QR kernel's buffer with its Ginibre block by one standard_normal call,
takes its Cholesky-QR and writes its slice's energies with one `energy`
call, so the slice is the only row block.  Each slice goes through
ensembles._stiefel_batch, whose QR kernel and buffer layout depend on N
and r alone, so every slice of a call takes the same ones.  Nothing is
drawn on the calling thread.  A task's values depend only on its slice and
its child seed, so the results depend neither on the number of workers nor
on how they are scheduled; changing _QR_ENTRIES or the kernel rule of
ensembles._stiefel_batch changes the samples.  Parallel use should derive one
child seed per task via numpy SeedSequence(seed).spawn, the splitting rule
of the slices; `mc` and `probe` pass their --seed straight in, so one seed
gives both commands the same samples.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .costfn import CostOperator, LagrangeMultipliers, energy
from .ensembles import _stiefel_batch
from .quantum_core import InvalidInput, _require_count

JACKKNIFE_BLOCKS = 32
_QR_ENTRIES = 36864  # 4096 rows of 9 columns: 50 full-rank 3x3 matrices


@dataclass(frozen=True)
class McEstimate:
    """Reweighted Haar-sampling estimate of <<E>> at one beta."""

    beta: float
    mean_energy: float
    std_error: float
    min_energy_seen: float
    effective_sample_size: float


@dataclass(frozen=True)
class StateDensityEstimate:
    """Normalized histogram of E over Haar ensemble draws."""

    bin_edges: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (log beta, log <<E>>) pairs; delta is the
    fitted numerator minus one, from <<E>> = (delta+1)/beta."""

    slope: float
    intercept: float
    r_squared: float

    @property
    def amplitude(self) -> float:
        """exp(intercept), the fitted numerator delta + 1."""
        return float(np.exp(self.intercept))

    @property
    def delta(self) -> float:
        return self.amplitude - 1.0


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sub_blocks(N: int, r: int, count: int) -> list:
    """Slices of _QR_ENTRIES // (N r) matrices (at least one) that cover a
    stack of count N x r matrices; the last may be shorter.  Each slice is
    one sampler task with its own stream, drawn and evaluated whole, so
    these slices fix the samples.  Sized by entries, a task holds ~0.6 MB
    per complex buffer at any shape: 50 matrices at 81 x 9, 576 at 16 x 4,
    enough numpy work per call for the small matrices to gain from the
    pool's threads."""
    step = max(1, _QR_ENTRIES // (N * r))
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


def _child_seeds(seed, n: int) -> list:
    """The n child SeedSequences of seed, in order; seed is as for
    default_rng, and default_rng of child k is the k-th child generator
    of default_rng(seed).  A SeedSequence is copied before spawning, which
    would advance it."""
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(**seed.state)
    return np.random.default_rng(seed).bit_generator.seed_seq.spawn(n)


def _batch_energies(cop: CostOperator, N: int, samples: int, seed) -> np.ndarray:
    """E(z) for `samples` Haar Stiefel draws; order is seed-fixed.

    The rule of the Determinism note above: one pool task per _sub_blocks
    slice draws that slice from its own child generator and writes that
    slice of out, so one sub-block per worker is alive at a time.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept out of import time

    blocks = _sub_blocks(N, cop.r, samples)
    out = np.empty(samples)

    def task(b, child):
        rng = np.random.default_rng(child)  # built on the worker, off the calling thread
        out[b] = energy(_stiefel_batch(N, cop.r, b.stop - b.start, rng), cop)

    # An untouched 16 MiB array, freed at once: glibc then raises its mmap
    # threshold to 16 MiB (below the 32 MiB up to which it adapts) and its
    # trim threshold to twice that, so the ~0.6 MB buffers of each task's
    # draw, QR and energy call come from a warm heap instead of being mapped
    # and faulted in anew each time.  First call in a fresh process, without
    # it and with it: 3000 3x3 draws at N=81 37k-41k and ~1.9k page faults,
    # 1e5 2x2 draws at N=16 27k-59k and ~1.6k.
    np.empty(1 << 21)
    with ThreadPoolExecutor(min(_cpu_count(), len(blocks))) as pool:
        # map cancels the tasks not yet started once one of them raises
        list(pool.map(task, blocks, _child_seeds(seed, len(blocks))))
    return out


def _reweighted(e: np.ndarray, emin: float, beta: float) -> McEstimate:
    """<<E>> at one beta from the weights w = e^{-beta (e - emin)}.

    The weights are formed once and shared by the mean, the effective
    sample size (sum w)^2 / sum w^2 and the delete-one-block jackknife
    error over min(JACKKNIFE_BLOCKS, samples) contiguous blocks, none of
    them empty, so below JACKKNIFE_BLOCKS samples it is the delete-one
    jackknife (s / sqrt(n) at beta = 0).  The error is undefined when
    removing some block leaves zero total weight (one block carries all of
    it, as at very large beta, or one sample); then it is inf.
    """
    w = np.exp(-beta * (e - emin))  # shift-invariant, avoids underflow
    we = w * e
    sw, swe = w.sum(), we.sum()
    n = min(JACKKNIFE_BLOCKS, e.size)
    rest = np.array([sw - b.sum() for b in np.array_split(w, n)])
    error = float("inf")
    if np.all(rest > 0):
        thetas = np.array([swe - b.sum() for b in np.array_split(we, n)]) / rest
        error = float(np.sqrt((n - 1) / n * np.sum((thetas - thetas.mean()) ** 2)))
    return McEstimate(float(beta), float(swe / sw), error, emin,
                      float(sw * sw / (w * w).sum()))


def sample_energies(cop: CostOperator, N: int, samples: int, seed) -> np.ndarray:
    """E(z) for `samples` Haar draws z on V_{N,r}, the one sample set that
    mc_energy_curve and estimate_state_density reduce."""
    _require_count(N, "N", cop.r)
    _require_count(samples, "samples")
    return _batch_energies(cop, N, samples, seed)


def _energy_array(energies) -> np.ndarray:
    """energies as a float array; InvalidInput unless it is non-empty, 1-D
    and finite, as the two reductions below need."""
    e = np.asarray(energies, dtype=float)
    if not (e.ndim == 1 and e.size and np.isfinite(e).all()):
        raise InvalidInput("energies must be a non-empty 1-D array of finite values")
    return e


def mc_energy_curve(energies, betas) -> list:
    """<<E>> estimates over a beta grid from one common sample set.

    Reusing the energies across beta makes the curve a pure reweighting of
    fixed values, so it is monotone non-increasing in beta by construction.
    """
    e = _energy_array(energies)
    emin = float(e.min())
    out = []
    for beta in betas:
        if not 0.0 <= beta < np.inf:
            raise InvalidInput("beta must be finite and >= 0")
        out.append(_reweighted(e, emin, beta))
    return out


def estimate_state_density(energies, bins: int) -> StateDensityEstimate:
    """Normalized histogram of sampled energies.

    Bin edges are geometric from the smallest sampled energy up to the median
    (resolving the near-zero power law) and linear above it.
    """
    _require_count(bins, "bins", 2)
    e = _energy_array(energies)
    lo, med, hi = float(e.min()), float(np.median(e)), float(e.max())
    nb_geo = bins // 2
    if lo > 0 and med > lo * (1 + 1e-9) and hi > med * (1 + 1e-9):
        edges = np.concatenate([np.geomspace(lo, med, nb_geo + 1),
                                np.linspace(med, hi, bins - nb_geo + 1)[1:]])
    else:
        # a constant sample spans 1e-300, which rounds away unless lo is near
        # 0, so every bin is also at least 4 ulps of lo wide: the edges
        # increase strictly
        top = hi if hi > lo else lo + 1e-300
        edges = np.linspace(lo, max(top, lo + 4 * bins * np.spacing(abs(lo))), bins + 1)
    counts, edges = np.histogram(e, bins=edges)
    return StateDensityEstimate(edges, counts / e.size)


def _require_fit_betas(betas) -> None:
    """InvalidInput unless betas hold at least 3 distinct values, all
    positive and finite: fewer leave the slope of fit_energy_scaling
    undetermined, and its log-log fit needs 0 < beta < inf."""
    betas = [float(b) for b in betas]
    if len(set(betas)) < 3:
        raise InvalidInput("need at least 3 distinct betas")
    if not all(0.0 < b < np.inf for b in betas):
        raise InvalidInput("beta must be positive and finite")


def fit_energy_scaling(points) -> ScalingFit:
    """Fit <<E>> ~ A / beta; delta = A - 1 from <<E>> = (delta+1)/beta."""
    pts = [(float(b), float(v)) for b, v in points]
    _require_fit_betas(b for b, _ in pts)
    if not all(0.0 < v < np.inf for _, v in pts):
        raise InvalidInput("energy must be positive and finite")
    lx = np.log([b for b, _ in pts])
    ly = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - np.sum((ly - (slope * lx + intercept)) ** 2) / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(float(slope), float(intercept), float(r2))


def z1_mc(cop: CostOperator, beta: float, lm: LagrangeMultipliers, samples: int,
          seed):
    """log Z1, the one-particle partition function, by Gaussian importance
    sampling.

    Draws z ~ CN(0, omega^{-1}) and estimates

        Z1 = pi^r e^{tr omega} / det omega * <e^{-beta E_1}>

    in the log domain: r log pi + tr omega - log det omega plus the
    max-shifted log of the sum of e^{-beta E_1} minus log samples, so it
    stays finite where e^{tr omega} overflows.  Also returns the averaged
    constraints <<zbar_alpha z_beta>> and <<E_1>> under the full one-particle
    density e^{-beta E_1 - z^dag omega z}.  Returns (log_z1, constraint_avg,
    mean_energy).

    At beta = 0 the constraint average is the Gaussian second moment, which
    in this index order is the transpose of omega^{-1}; the two coincide for
    the real symmetric multipliers used throughout the Werner pipeline.
    """
    if not 0.0 <= beta < np.inf:
        raise InvalidInput("beta must be finite and >= 0")
    if not lm.is_positive_definite():
        raise InvalidInput("omega must be positive-definite")
    if lm.r != cop.r:
        raise InvalidInput("omega size does not match the cost operator rank")
    _require_count(samples, "samples")
    omega = lm.omega
    r = lm.r
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(omega)
    w = (rng.standard_normal((samples, r)) + 1j * rng.standard_normal((samples, r)))
    w /= np.sqrt(2.0)
    z = np.linalg.solve(L.conj().T, w.T).T  # covariance (L L^dag)^{-1} = omega^{-1}
    e1 = energy(z[:, None, :], cop)  # each draw is a one-row ensemble
    a = -beta * e1
    shift = a.max()
    u = np.exp(a - shift)
    su = u.sum()
    log_z1 = (r * np.log(np.pi) + np.trace(omega).real - np.linalg.slogdet(omega)[1]
              + shift + np.log(su) - np.log(samples))
    constraint_avg = np.einsum("s,sa,sb->ab", u, z.conj(), z) / su
    mean_energy = float((u * e1).sum() / su)
    return float(log_z1), constraint_avg, mean_energy
