"""Command-line front end.

Commands:
  probe    PPT verdict + Haar-MC energy statistics (+ saddle residual for
           recognizable 2x2 Werner inputs), as a JSON report.
  scan     equipartition scan over a p grid at fixed beta, CSV output.
  scaling  average energy over a beta grid at fixed Werner p, CSV output
           with a fitted slope/delta JSON footer.
  mc       state-density histogram and energy-vs-beta curve by Monte Carlo.
  ppt      partial-transpose test only.

States come from `--werner p` or `--state file.json` (format: {"dimA", "dimB",
"re", "im"}, row-major).  A JSON config file may supply any flag of the
subcommand by its long name (`p-grid` or `p_grid`); explicit flags win, a
null value counts as absent, and any other key is invalid input.  A value
is never replaced by a default: it is used or rejected.  Stochastic
commands require --seed, embed the full configuration in a '#' header of
their output, and rerun byte-identically from the same configuration.

Exit codes: 0 success, 2 invalid input, 3 constraints unsatisfiable at the
requested p, 4 quadrature or convergence failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .costfn import cost_operator
from .ensembles import caratheodory_length
from .quantum_core import DensityMatrix, eigen_ensemble, ppt_is_entangled
from .statmech import estimate_state_density, fit_energy_scaling, mc_energy_curve
from .werner import (ConstraintsUnsatisfiable, QuadratureError, RESIDUAL_THRESHOLD,
                     avg_energy_werner, equipartition_scan, saddle_search,
                     werner_state)

MC_HISTOGRAM_BINS = 48


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def parse_beta(text: str):
    """'10' -> [10.0]; '1,10,100' -> list; '10:10000:12' -> log-spaced grid."""
    text = str(text)
    try:
        if ":" in text:
            lo, hi, n = text.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
            if not (0 < lo < hi < np.inf and n >= 2):
                raise CliError(f"bad beta grid {text!r}: need 0 < lo < hi finite and n >= 2")
            return list(np.logspace(np.log10(lo), np.log10(hi), n))
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"bad beta {text!r}: expected a value, a list or lo:hi:n") from None
    if not all(0 <= v < np.inf for v in vals):
        raise CliError("beta must be finite and >= 0")
    return vals


def parse_p_grid(text: str):
    """'a:step:b' -> inclusive linear grid."""
    try:
        a, step, b = (float(v) for v in str(text).split(":"))
    except ValueError:
        raise CliError(f"bad p grid {text!r}: expected a:step:b") from None
    if not (step > 0 and b >= a):
        raise CliError(f"bad p grid {text!r}: need step > 0 and b >= a")
    count = int(round((b - a) / step)) + 1
    grid = [round(a + k * step, 12) for k in range(count) if a + k * step <= b + step * 1e-9]
    if not grid:
        raise CliError("empty p grid")
    if grid[0] <= 0 or grid[-1] > 1:
        raise CliError("p grid must lie in (0, 1]")
    return grid


def _merge_config(args: argparse.Namespace) -> dict:
    """Flag values override config-file values; the result holds no None.

    Config keys must name a flag of the subcommand (`p-grid` or `p_grid`);
    a JSON null counts as absent.  Absent options take their defaults
    through cfg.get(key, default).
    """
    flags = {k for k in vars(args) if k not in ("command", "config", "func")}
    out = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(f"cannot read config file: {e}")
        if not isinstance(cfg, dict):
            raise CliError("config file must hold a JSON object")
        for key, val in cfg.items():
            dest = key.replace("-", "_")
            if dest not in flags:
                raise CliError(f"unknown config key {key!r}; {args.command} takes "
                               f"{', '.join(sorted(flags))}")
            if val is not None:
                out[dest] = val
    for key in flags:
        if getattr(args, key) is not None:
            out[key] = getattr(args, key)
    return out


def _load_state(cfg: dict):
    """Return (DensityMatrix, descriptor) from --werner or --state."""
    werner = cfg.get("werner")
    path = cfg.get("state")
    if (werner is None) == (path is None):
        raise CliError("specify exactly one of --werner and --state")
    if werner is not None:
        p = float(werner)
        if not 0.0 <= p <= 1.0:
            raise CliError("invalid density matrix: Werner p outside [0, 1]")
        return werner_state(p), {"kind": "werner", "p": p}
    try:
        with open(path) as fh:
            rho = DensityMatrix.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise CliError(f"invalid density matrix: {e}")
    return rho, {"kind": "file", "path": str(path)}


def _count(cfg: dict, key: str, default: int, floor: int) -> int:
    """Integer option cfg[key], default when absent; below floor exits 2."""
    try:
        val = int(cfg.get(key, default))
    except (TypeError, ValueError):
        raise CliError(f"{key} must be an integer, got {cfg[key]!r}") from None
    if val < floor:
        raise CliError(f"{key} must be >= {floor}, got {val}")
    return val


def _seed(cfg: dict, required: bool) -> int:
    """The non-negative --seed; 0 when absent and not required."""
    if required and "seed" not in cfg:
        raise CliError("--seed is required for stochastic commands")
    return _count(cfg, "seed", 0, 0)


def _threshold(cfg: dict) -> float:
    """Region-membership threshold on the residual norm: positive and finite."""
    if cfg.get("threshold") is None:
        return RESIDUAL_THRESHOLD
    try:
        threshold = float(cfg["threshold"])
    except (TypeError, ValueError):
        raise CliError(f"threshold must be a number, got {cfg['threshold']!r}") from None
    if not (np.isfinite(threshold) and threshold > 0):
        raise CliError(f"threshold must be positive and finite, got {threshold!r}")
    return threshold


def _recognize_werner(rho: DensityMatrix):
    """p such that rho = W(p) entrywise within 1e-10, else None."""
    if (rho.dimA, rho.dimB) != (2, 2):
        return None
    p = float(np.clip(4.0 * rho.mat[0, 0].real, 0.0, 1.0))
    if p > 0 and np.max(np.abs(rho.mat - werner_state(p).mat)) < 1e-10:
        return p
    return None


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(cfg: dict, command: str) -> str:
    shown = {k: v for k, v in sorted(cfg.items()) if v is not None}
    return f"# {json.dumps({'command': command, **shown}, sort_keys=True)}\n"


def cmd_probe(args) -> int:
    cfg = _merge_config(args)
    rho, desc = _load_state(cfg)
    seed = _seed(cfg, required=True)
    betas = parse_beta(cfg.get("beta", "1,10,100"))
    samples = _count(cfg, "samples", 20000, 1)
    threshold = _threshold(cfg)
    m, n = rho.dimA, rho.dimB

    # the first of two children, so the mc section stays as it always was
    mc_seed = np.random.SeedSequence(seed).spawn(2)[0]
    cop = cost_operator(eigen_ensemble(rho))
    curve = mc_energy_curve(cop, caratheodory_length(m, n), betas, samples, mc_seed)
    report = {
        "state": desc,
        "dims": [m, n],
        "ppt_entangled": ppt_is_entangled(rho) if m * n <= 6 else None,
        "mc": {
            "samples": samples,
            "seed": seed,
            "ensemble_length": caratheodory_length(m, n),
            "min_energy": curve[0].min_energy_seen,
            "mean_energy": [
                {"beta": est.beta, "value": est.mean_energy,
                 "std_error": est.std_error, "ess": est.effective_sample_size}
                for est in curve
            ],
        },
        "saddle": None,
    }
    p = _recognize_werner(rho)
    if p is not None:
        beta0 = 10.0  # fixed reference beta for the saddle summary
        sad = saddle_search(beta0, p)
        report["saddle"] = {
            "beta": beta0, "p": p,
            "residual_norm": sad.residual_norm,
            "gamma": sad.gamma_star, "lambda": sad.lambda_star,
            "interior": sad.interior,
            "region_member": bool(sad.residual_norm < threshold),
        }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", cfg.get("out"))
    return 0


def cmd_scan(args) -> int:
    cfg = _merge_config(args)
    grid = parse_p_grid(cfg.get("p_grid", "0.50:0.01:1.00"))
    betas = parse_beta(cfg.get("beta", "10"))
    if len(betas) != 1:
        raise CliError("scan takes a single beta")
    if betas[0] <= 0:
        raise CliError("scan needs beta > 0")
    threshold = _threshold(cfg)
    seed = _seed(cfg, required=False)
    scan = equipartition_scan(grid, betas[0], threshold)
    lines = [_header({**cfg, "beta": betas[0], "seed": seed,
                      "threshold": threshold}, "scan"),
             "p,residual,gamma_star,lambda_star,interior\n"]
    for p, res, sad in zip(scan.p_grid, scan.residuals, scan.saddles):
        lines.append(",".join([_fmt(p), _fmt(res), _fmt(sad.gamma_star),
                               _fmt(sad.lambda_star), str(int(sad.interior))]) + "\n")
    start = "none" if scan.region_start is None else _fmt(scan.region_start)
    lines.append(f"# region_start={start}\n")
    _emit("".join(lines), cfg.get("out"))
    if cfg.get("out"):
        print(f"region_start={start}")
    return 0


def cmd_scaling(args) -> int:
    cfg = _merge_config(args)
    betas = parse_beta(cfg.get("beta", "10:10000:12"))
    if min(betas) <= 0:
        raise CliError("scaling needs beta > 0")
    threshold = _threshold(cfg)
    seed = _seed(cfg, required=False)
    if cfg.get("self_test"):
        points = [(b, 2.75 / b) for b in betas]
        flag = 0
    else:
        if cfg.get("werner") is None:
            raise CliError("scaling requires --werner p")
        p = float(cfg["werner"])
        if not 0.0 < p <= 1.0:
            raise CliError("p must lie in (0, 1]")
        pre = saddle_search(betas[0], p)
        if pre.residual_norm >= threshold:
            raise ConstraintsUnsatisfiable(
                f"constraints unsatisfiable at p={p} "
                f"(residual {pre.residual_norm:.3e})")
        points = [(b, avg_energy_werner(b, p)) for b in betas]
        flag = 1
    fit = fit_energy_scaling(points)
    lines = [_header({**cfg, "seed": seed, "threshold": threshold}, "scaling"),
             "beta,avg_energy,analytic_flag\n"]
    for b, e in points:
        lines.append(f"{_fmt(b)},{_fmt(e)},{flag}\n")
    footer = {"slope": fit.slope, "intercept": fit.intercept,
              "delta": fit.delta, "amplitude": fit.amplitude,
              "r_squared": fit.r_squared}
    lines.append("# " + json.dumps(footer, sort_keys=True) + "\n")
    _emit("".join(lines), cfg.get("out"))
    if cfg.get("out"):
        print(f"slope={fit.slope:.6f} delta={fit.delta:.6f}")
    return 0


def cmd_mc(args) -> int:
    cfg = _merge_config(args)
    rho, _ = _load_state(cfg)
    seed = _seed(cfg, required=True)
    samples = _count(cfg, "samples", 100000, 100)
    betas = parse_beta(cfg.get("beta", "1:100:9"))
    m, n = rho.dimA, rho.dimB
    N = caratheodory_length(m, n)
    cop = cost_operator(eigen_ensemble(rho))

    curve = mc_energy_curve(cop, N, betas, samples, seed)
    hist = estimate_state_density(cop, N, samples, MC_HISTOGRAM_BINS, seed)

    head = _header({**cfg, "seed": seed, "samples": samples,
                    "ensemble_length": N}, "mc")
    dens = [head, "bin_lo,bin_hi,frequency\n"]
    for lo, hi, f in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
        dens.append(f"{_fmt(lo)},{_fmt(hi)},{_fmt(f)}\n")
    ener = [head, "beta,mean_energy,std_error,ess,min_energy\n"]
    for est in curve:
        ener.append(",".join([_fmt(est.beta), _fmt(est.mean_energy),
                              _fmt(est.std_error), _fmt(est.effective_sample_size),
                              _fmt(est.min_energy_seen)]) + "\n")
    out = cfg.get("out")
    if out:
        _emit("".join(dens), f"{out}_density.csv")
        _emit("".join(ener), f"{out}_energy.csv")
    else:
        _emit("".join(dens) + "\n" + "".join(ener), None)
    return 0


def cmd_ppt(args) -> int:
    cfg = _merge_config(args)
    rho, desc = _load_state(cfg)
    conclusive = rho.dimA * rho.dimB <= 6
    verdict = ppt_is_entangled(rho, allow_inconclusive=not conclusive)
    _emit(json.dumps({"state": desc, "ppt_entangled": verdict,
                      "conclusive": conclusive}, sort_keys=True) + "\n",
          cfg.get("out"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sepmech",
                                 description="separability probing via "
                                             "ensemble statistical mechanics")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, state=True):
        if state:
            sp.add_argument("--werner", type=float, metavar="P",
                            help="use the 2x2 Werner state W(P)")
            sp.add_argument("--state", metavar="PATH",
                            help="density matrix JSON file")
        sp.add_argument("--seed", type=int, help="RNG seed")
        sp.add_argument("--out", metavar="PATH", help="output file")
        sp.add_argument("--config", metavar="PATH",
                        help="JSON config file; flags override it")

    sp = sub.add_parser("probe", help="PPT + MC + saddle summary of one state")
    common(sp)
    sp.add_argument("--beta", help="beta value, list, or lo:hi:n log grid")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--threshold", type=float)
    sp.set_defaults(func=cmd_probe)

    sp = sub.add_parser("scan", help="equipartition scan over p")
    common(sp, state=False)
    sp.add_argument("--p-grid", dest="p_grid", metavar="A:STEP:B")
    sp.add_argument("--beta")
    sp.add_argument("--threshold", type=float)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("scaling", help="average energy vs beta at fixed p")
    common(sp, state=False)
    sp.add_argument("--werner", type=float, metavar="P")
    sp.add_argument("--beta", help="beta grid, default 10:10000:12")
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--self-test", dest="self_test", action="store_true",
                    default=None, help="fit injected 2.75/beta data instead")
    sp.set_defaults(func=cmd_scaling)

    sp = sub.add_parser("mc", help="Monte Carlo density + energy curves")
    common(sp)
    sp.add_argument("--beta", help="beta grid, default 1:100:9")
    sp.add_argument("--samples", type=int)
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("ppt", help="partial-transpose test")
    common(sp)
    sp.set_defaults(func=cmd_ppt)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ConstraintsUnsatisfiable as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except QuadratureError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
