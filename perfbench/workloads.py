"""The four benchmark workloads: their argv, their inputs and their answer checks.

Inputs come from the workload seed (except the scan's own seed, see
HANGING_SCAN_SEED); the program sees only argv and the files written here.
Each check is an oracle that holds for every seed (a known region onset, a
known scaling slope, an independent Haar estimate), so a correct
reimplementation passes and a wrong answer fails, whatever bytes the
current code happens to print.

`tiny=True` shrinks every workload to a second or two for the benchmark's
own tests; the checks are the same.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

NAMES = ("werner-scan", "werner-interior", "werner-mc", "qutrit-mc")

# Region onset of the Werner channel at beta = 10 on a 0.01 grid, and the
# largest p whose minimised residual must stay clearly nonzero.
REGION_ONSET = 0.89
OUTSIDE_P_MAX = 0.80
OUTSIDE_RESIDUAL_MIN = 1e-5
# W(p) is entangled exactly when p < 2/3.
WERNER_PPT_EDGE = 2.0 / 3.0
SLOPE_TOL = 0.05
ORACLE_SIGMAS = 5.0
# beta = 0 first (the unweighted Haar mean the oracle checks), then the
# nine points of the mc command's default 1:100:9 grid.
MC_BETAS = "0," + ",".join(repr(float(b)) for b in np.logspace(0.0, 2.0, 9))


@dataclass(frozen=True)
class Invocation:
    """One call of sepmech.cli.main and the check of its answer."""

    command: str
    argv: list
    outputs: tuple          # files the invocation writes, relative to the work dir
    units: int              # work answered: (p, beta) points or requested MC samples
    samples: int            # requested MC samples, for draws_per_requested
    check: Callable         # (files: dict[str, bytes]) -> list of errors


@dataclass(frozen=True)
class Workload:
    name: str
    rate: str               # "points_per_s" or "samples_per_s": what `units` counts
    invocations: tuple


def _rows(text: str):
    """Numeric rows of a CSV output, skipping '#' lines and the column header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _finite(rows) -> bool:
    return all(math.isfinite(v) for row in rows for v in row)


def _program_seed(ss: np.random.SeedSequence) -> str:
    return str(int(np.random.default_rng(ss).integers(0, 2 ** 31 - 1)))


def _scan_check(grid):
    onset = min(p for p in grid if p >= REGION_ONSET - 1e-9)

    def check(files):
        errs = []
        text = files["scan.csv"].decode()
        rows = _rows(text)
        if ([round(r[0], 10) for r in rows] != grid) or not _finite(rows):
            errs.append(f"scan: rows do not match the {len(grid)}-point grid, or a field is not finite")
        for p, res, *_ in rows:
            if p <= OUTSIDE_P_MAX + 1e-9 and not res > OUTSIDE_RESIDUAL_MIN:
                errs.append(f"scan: residual {res!r} at p={p} should exceed {OUTSIDE_RESIDUAL_MIN}")
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        start = last.partition("region_start=")[2]
        if not start or start == "none" or abs(float(start) - onset) > 1e-9:
            errs.append(f"scan: region_start {start!r}, expected {onset}")
        return errs

    return check


def _probe_check(p):
    def check(files):
        rep = json.loads(files["probe.json"])
        errs = []
        mc = rep["mc"]
        fields = [mc["min_energy"]] + [v for est in mc["mean_energy"]
                                       for v in (est["value"], est["std_error"], est["ess"])]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in fields):
            errs.append("probe: non-finite MC field")
        if not mc["min_energy"] > 0:
            errs.append(f"probe: min_energy {mc['min_energy']!r} of entangled W({p}) must be > 0")
        if rep["ppt_entangled"] is not (p < WERNER_PPT_EDGE):
            errs.append(f"probe: ppt_entangled {rep['ppt_entangled']!r} for W({p})")
        if rep["saddle"] is None or rep["saddle"]["region_member"] is not False:
            errs.append(f"probe: W({p}) must lie outside the equipartition region")
        return errs

    return check


def _scaling_check(path, n_betas):
    def check(files):
        text = files[path].decode()
        rows = _rows(text)
        errs = []
        if len(rows) != n_betas or not _finite(rows) or min(r[1] for r in rows) <= 0:
            errs.append(f"{path}: expected {n_betas} finite positive energies")
        slope = json.loads(text.rstrip("\n").rsplit("\n", 1)[-1].lstrip("# "))["slope"]
        if not abs(slope + 1.0) <= SLOPE_TOL:
            errs.append(f"{path}: slope {slope!r} outside -1 +- {SLOPE_TOL}")
        return errs

    return check


def haar_energy_oracle(rho, N: int, draws: int, rng):
    """Mean and standard error of E over Haar points of V_{N,r}, by an
    independent route: Haar unitary columns, explicit ensemble vectors and
    their concurrences, one draw at a time."""
    from sepmech import (StiefelPoint, concurrence_sq, eigen_ensemble,
                         ensemble_from_stiefel, haar_unitary)
    ens = eigen_ensemble(rho)
    e = np.empty(draws)
    for k in range(draws):
        z = StiefelPoint(N, ens.rank, haar_unitary(N, rng)[:, :ens.rank])
        e[k] = sum(concurrence_sq(psi) for psi in ensemble_from_stiefel(z, ens).vectors)
    return float(e.mean()), float(e.std(ddof=1) / math.sqrt(draws))


def _mc_check(oracle, entangled):
    mean_ref, se_ref = oracle

    def check(files):
        dens = _rows(files["mc_density.csv"].decode())
        ener = _rows(files["mc_energy.csv"].decode())
        errs = []
        if not (_finite(dens) and _finite(ener)) or not ener:
            errs.append("mc: missing or non-finite output field")
            return errs
        if abs(sum(r[2] for r in dens) - 1.0) > 1e-9:
            errs.append("mc: density frequencies do not sum to 1")
        beta0 = [r for r in ener if r[0] == 0.0]
        if len(beta0) != 1:
            errs.append("mc: no beta = 0 row")
        else:
            _, mean, se, _, _ = beta0[0]
            if abs(mean - mean_ref) > ORACLE_SIGMAS * math.hypot(se, se_ref):
                errs.append(f"mc: beta=0 mean {mean!r} vs Haar oracle {mean_ref!r} +- {se_ref!r}")
        min_e = ener[0][4]
        if min_e < 0 or (entangled and not min_e > 0):
            errs.append(f"mc: min_energy {min_e!r}")
        return errs

    return check


# A scan seed on which the program never ends: saddle_search's Newton polish
# steps log(gamma) without a clip, gamma underflows to 0 and _panel_edges
# then doubles 0 forever (here at p = 0.63 of the 0.50:0.01:1.00 grid).  Such
# seeds are not rare (one of seventeen sampled), so werner-scan runs scan at
# its default seed, as users run it; the probe's saddle still takes its seed
# from the workload seed.
HANGING_SCAN_SEED = 209695230


def _werner_scan(ss, tiny):
    probe_seed = _program_seed(ss)
    # 0.80..0.95 brackets the onset: 9 of its 16 points lie outside the region,
    # where nearly all the time goes, and a pass is short enough to repeat
    start, step, count = (0.80, 0.09, 2) if tiny else (0.80, 0.01, 16)
    grid = [round(start + k * step, 10) for k in range(count)]
    p_grid = f"{start:.2f}:{step:.2f}:{grid[-1]:.2f}"
    samples = 1000 if tiny else 20000
    p_probe = 0.5
    return "points_per_s", (
        Invocation("scan", ["scan", "--p-grid", p_grid, "--beta", "10", "--out", "scan.csv"],
                   ("scan.csv",), len(grid), 0, _scan_check(grid)),
        Invocation("probe", ["probe", "--werner", str(p_probe), "--samples", str(samples),
                             "--seed", probe_seed, "--out", "probe.json"],
                   ("probe.json",), 1, samples, _probe_check(p_probe)),
    )


def _werner_interior(ss, tiny):
    grid_ss, *seed_ss = ss.spawn(4)
    # a wide log grid whose ends move a little with the seed; every p is
    # well inside the region at every beta of it
    lo_exp, hi_exp = np.random.default_rng(grid_ss).uniform(0.0, 0.2, 2)
    lo, hi = float(10.0 * 10 ** lo_exp), float((1e3 if tiny else 1e5) / 10 ** hi_exp)
    n = 4 if tiny else 16
    ps = (0.95,) if tiny else (0.90, 0.95, 1.00)
    invs = []
    for p, s in zip(ps, seed_ss):
        out = f"scaling_{p:.2f}.csv"
        invs.append(Invocation("scaling", ["scaling", "--werner", f"{p:.2f}", "--beta",
                                           f"{lo!r}:{hi!r}:{n}", "--seed", _program_seed(s),
                                           "--out", out],
                               (out,), n, 0, _scaling_check(out, n)))
    return "points_per_s", tuple(invs)


def _mc(rho, state_args, samples, draws, ss, entangled):
    prog_ss, oracle_ss = ss.spawn(2)
    N = (rho.dimA * rho.dimB) ** 2  # the mc command's ensemble length m^2 n^2
    oracle = haar_energy_oracle(rho, N, draws, np.random.default_rng(oracle_ss))
    return "samples_per_s", (
        Invocation("mc", ["mc", *state_args, "--samples", str(samples), "--beta", MC_BETAS,
                          "--seed", _program_seed(prog_ss), "--out", "mc"],
                   ("mc_density.csv", "mc_energy.csv"), samples, samples,
                   _mc_check(oracle, entangled)),
    )


def _werner_mc(ss, tiny):
    from sepmech import werner_state
    p = 0.2
    return _mc(werner_state(p), ["--werner", str(p)], 2000 if tiny else 100000,
               300 if tiny else 1000, ss, entangled=p < WERNER_PPT_EDGE)


def _qutrit_mc(ss, tiny):
    from sepmech import DensityMatrix
    state_ss, mc_ss = ss.spawn(2)
    rng = np.random.default_rng(state_ss)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    mat = g @ g.conj().T
    with open("state.json", "w") as fh:
        fh.write(DensityMatrix(3, 3, mat / np.trace(mat).real).to_json())
    with open("state.json") as fh:
        rho = DensityMatrix.from_json(fh.read())
    return _mc(rho, ["--state", "state.json"], 200 if tiny else 3000,
               40 if tiny else 200, mc_ss, entangled=False)


_BUILDERS = {"werner-scan": _werner_scan, "werner-interior": _werner_interior,
             "werner-mc": _werner_mc, "qutrit-mc": _qutrit_mc}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Generate the workload's inputs in the current directory and return it.

    Oracles are computed here, before any timing starts."""
    rate, invocations = _BUILDERS[name](np.random.SeedSequence([seed, NAMES.index(name)]), tiny)
    return Workload(name, rate, invocations)
