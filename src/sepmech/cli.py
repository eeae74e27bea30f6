"""Command-line front end.

Commands:
  probe    PPT verdict + Haar-MC energy statistics (+ saddle residual for
           recognizable 2x2 Werner inputs), as a JSON report.
  scan     equipartition scan over a p grid at fixed beta, CSV output.
  scaling  average energy over a beta grid at fixed Werner p, CSV output
           with a fitted slope/delta JSON footer.
  mc       state-density histogram and energy-vs-beta curve by Monte Carlo.
  ppt      partial-transpose verdict only (NPT: entangled; PPT: separable if mn <= 6).

States come from `--werner p` or `--state file.json` (format: {"dimA", "dimB",
"re", "im"}, row-major); `mc` and `probe` need both factors of dimension
>= 2.  Arguments may also come from a file: `sepmech scan @run.args --beta
100` reads run.args as one token per line (`--p-grid=0.5:0.01:1.0`), as if
typed in its place, so the same parser and checks apply and a later token
wins.  A token that starts with `@` always names such a file: write
`--state ./@x.json` for a path that starts with one.  A value is never
replaced by a default: it is used or rejected.  Stochastic commands require
--seed, embed the full configuration in a '#' header of their output, and
rerun byte-identically from the same configuration.  `scan` is
deterministic and takes no --seed; `scaling` echoes its --seed only.
`probe` and `mc` sample in one step, `_sampled`: it checks the state,
--seed, --samples and --beta in that order, then draws the energies once.
The parser is built from two tables: _OPTIONS declares each long option
once, and _COMMANDS gives each command its handler, help line and options.
No option has an argparse default: each handler keeps its defaults in
code, so argparse puts nothing into the '#' header that the user did not give.
Region membership in `scan`, `probe` and `scaling` is the library's one
test, SaddleResult.region_member (residual below 1e-6); no flag changes it.
Below werner.BETA_STAR (~0.102) the region admits entangled Werner states,
and `scan` says so on stderr.

Exit codes: 0 success, 2 invalid input (an InvalidInput from a check of
the library or of this module, an --out that cannot be written, or
argparse refusing a token or an argument file), 3 constraints unsatisfiable
at the requested p, 4 quadrature, convergence or precision failure.  Every
other exception is a bug and keeps its traceback.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .costfn import cost_operator
from .ensembles import caratheodory_length
from .quantum_core import (DensityMatrix, InvalidInput, _require_count, eigen_ensemble,
                           ppt_is_entangled)
from .statmech import (_require_fit_betas, estimate_state_density,
                       fit_energy_scaling, mc_energy_curve, sample_energies)
from .werner import (BETA_STAR, ConstraintsUnsatisfiable, QuadratureError, _avg_energies,
                     equipartition_scan, saddle_search, werner_state)

MC_HISTOGRAM_BINS = 48

# exit code per error; every other exception is a bug and keeps its traceback
_EXIT_CODES = {InvalidInput: 2, ConstraintsUnsatisfiable: 3, QuadratureError: 4}


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def parse_beta(text: str):
    """'10' -> [10.0]; '1,10,100' -> list; '10:10000:12' -> log-spaced grid."""
    grid = ":" in text
    try:
        if grid:
            lo, hi, n = text.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        else:
            vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise InvalidInput(f"bad beta {text!r}: expected a value, a list or lo:hi:n") from None
    if grid:
        if not (0 < lo < hi < np.inf and n >= 2):
            raise InvalidInput(f"bad beta grid {text!r}: need 0 < lo < hi finite and n >= 2")
        return np.logspace(np.log10(lo), np.log10(hi), n).tolist()
    if not all(0 <= v < np.inf for v in vals):
        raise InvalidInput("beta must be finite and >= 0")
    return vals


def parse_p_grid(text: str):
    """'a:step:b' -> inclusive linear grid, never empty.  Whether each p is
    a valid Werner parameter is the library's check (equipartition_scan)."""
    try:
        a, step, b = (float(v) for v in text.split(":"))
    except ValueError:
        raise InvalidInput(f"bad p grid {text!r}: expected a:step:b") from None
    if not np.isfinite((a, step, b)).all():
        raise InvalidInput(f"bad p grid {text!r}: a, step and b must be finite")
    if not (step > 0 and b >= a):
        raise InvalidInput(f"bad p grid {text!r}: need step > 0 and b >= a")
    steps = (b - a) / step
    if not math.isfinite(steps):
        raise InvalidInput(f"bad p grid {text!r}: (b - a) / step overflows")
    return [round(a + k * step, 12) for k in range(int(round(steps)) + 1)
            if a + k * step <= b + step * 1e-9]


def _load_state(cfg: dict):
    """Return (DensityMatrix, descriptor) from --werner or --state."""
    werner = cfg.get("werner")
    path = cfg.get("state")
    if (werner is None) == (path is None):
        raise InvalidInput("specify exactly one of --werner and --state")
    if werner is not None:
        return werner_state(werner), {"kind": "werner", "p": werner}
    try:
        with open(path) as fh:
            rho = DensityMatrix.from_json(fh.read())
    except (OSError, UnicodeDecodeError, InvalidInput) as e:  # unreadable, binary, malformed
        raise InvalidInput(f"invalid density matrix: {e}")
    return rho, {"kind": "file", "path": path}


def _seed(cfg: dict, required: bool) -> int:
    """The non-negative --seed; 0 when absent and not required."""
    if required and "seed" not in cfg:
        raise InvalidInput("--seed is required for stochastic commands")
    return _require_count(cfg.get("seed", 0), "seed", 0)


def _recognize_werner(rho: DensityMatrix):
    """p such that rho = W(p) entrywise within 1e-10, else None."""
    if (rho.dimA, rho.dimB) != (2, 2):
        return None
    p = float(np.clip(4.0 * rho.mat[0, 0].real, 0.0, 1.0))
    if p > 0 and np.max(np.abs(rho.mat - werner_state(p).mat)) < 1e-10:
        return p
    return None


def _emit(out, texts: dict, summary=None):
    """Each text of texts, keyed by its file-name suffix, to out + suffix
    and then summary to stdout, or, without out, the texts to stdout one
    blank line apart.  A file that cannot be written is an InvalidInput,
    raised after the files this call opened are removed, so a command
    writes all of its files or none."""
    if not out:
        sys.stdout.write("\n".join(texts.values()))
        return
    opened = []
    for suffix, text in texts.items():
        path = out + suffix
        try:
            with open(path, "w") as fh:
                opened.append(path)
                fh.write(text)
        except OSError as e:
            for done in opened:
                os.remove(done)
            raise InvalidInput(f"cannot write {path}: {e.strerror or e}") from None
    if summary:
        print(summary)


def _table(cfg: dict, command: str, columns: str, rows, footer: str = "") -> str:
    """A CSV table: the '#' header of the command and cfg, the column line,
    one line of _fmt fields per row, then footer."""
    head = f"# {json.dumps({'command': command, **cfg}, sort_keys=True)}\n{columns}\n"
    return head + "".join(",".join(map(_fmt, row)) + "\n" for row in rows) + footer


def _sampled(cfg: dict, samples_default: int, samples_floor: int, beta_default: str):
    """The Haar-average step of `probe` and `mc`: (rho, desc, energies,
    curve, run).  Checks the state, --seed, --samples and --beta in that
    order, draws the energies of the N = m^2 n^2 ensemble once and reduces
    them at each beta; run is the record both commands print."""
    rho, desc = _load_state(cfg)
    seed = _seed(cfg, required=True)
    samples = _require_count(cfg.get("samples", samples_default), "samples", samples_floor)
    betas = parse_beta(cfg.get("beta", beta_default))
    N = caratheodory_length(rho.dimA, rho.dimB)
    energies = sample_energies(cost_operator(eigen_ensemble(rho)), N, samples, seed)
    run = {"seed": seed, "samples": samples, "ensemble_length": N}
    return rho, desc, energies, mc_energy_curve(energies, betas), run


def cmd_probe(cfg: dict) -> int:
    rho, desc, _, curve, run = _sampled(cfg, 20000, 1, "1,10,100")
    report = {
        "state": desc,
        "dims": [rho.dimA, rho.dimB],
        "ppt_entangled": ppt_is_entangled(rho),
        "mc": {
            **run,
            "min_energy": curve[0].min_energy_seen,
            "mean_energy": [
                {"beta": est.beta, "value": est.mean_energy,
                 "std_error": est.std_error if np.isfinite(est.std_error) else None,
                 "ess": est.effective_sample_size}
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
            "region_member": sad.region_member,
        }
    _emit(cfg.get("out"),
          {"": json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"})
    return 0


def cmd_scan(cfg: dict) -> int:
    grid = parse_p_grid(cfg.get("p_grid", "0.50:0.01:1.00"))
    betas = parse_beta(cfg.get("beta", "10"))
    if len(betas) != 1:
        raise InvalidInput("scan takes a single beta")
    scan = equipartition_scan(grid, betas[0])
    if betas[0] < BETA_STAR:
        print(f"warning: beta below {BETA_STAR}: region members may be entangled, "
              "so region_start is no separability certificate", file=sys.stderr)
    start = "none" if scan.region_start is None else _fmt(scan.region_start)
    rows = [(p, sad.residual_norm, sad.gamma_star, sad.lambda_star, sad.interior)
            for p, sad in zip(scan.p_grid, scan.saddles)]
    table = _table({**cfg, "beta": betas[0]}, "scan", "p,residual,gamma_star,lambda_star,interior",
                   rows, f"# region_start={start}\n")
    _emit(cfg.get("out"), {"": table}, f"region_start={start}")
    return 0


def cmd_scaling(cfg: dict) -> int:
    betas = parse_beta(cfg.get("beta", "10:10000:12"))
    _require_fit_betas(betas)  # the fit's rule, checked before any solve
    seed = _seed(cfg, required=False)
    if "werner" not in cfg:
        raise InvalidInput("scaling requires --werner p")
    points = list(zip(betas, _avg_energies(betas, cfg["werner"])))
    fit = fit_energy_scaling(points)
    footer = {"slope": fit.slope, "intercept": fit.intercept,
              "delta": fit.delta, "amplitude": fit.amplitude,
              "r_squared": fit.r_squared}
    table = _table({**cfg, "seed": seed}, "scaling", "beta,avg_energy", points,
                   f"# {json.dumps(footer, sort_keys=True)}\n")
    _emit(cfg.get("out"), {"": table}, f"slope={fit.slope:.6f} delta={fit.delta:.6f}")
    return 0


def cmd_mc(cfg: dict) -> int:
    _, _, energies, curve, run = _sampled(cfg, 100000, 100, "1:100:9")
    hist = estimate_state_density(energies, MC_HISTOGRAM_BINS)
    record = {**cfg, **run}
    dens = _table(record, "mc", "bin_lo,bin_hi,frequency",
                  zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts))
    ener = _table(record, "mc", "beta,mean_energy,std_error,ess,min_energy",
                  [(est.beta, est.mean_energy, est.std_error, est.effective_sample_size,
                    est.min_energy_seen) for est in curve])
    _emit(cfg.get("out"), {"_density.csv": dens, "_energy.csv": ener})
    return 0


def cmd_ppt(cfg: dict) -> int:
    rho, desc = _load_state(cfg)
    verdict = ppt_is_entangled(rho)
    report = {"state": desc, "ppt_entangled": bool(verdict), "conclusive": verdict is not None}
    _emit(cfg.get("out"), {"": json.dumps(report, sort_keys=True) + "\n"})
    return 0


# each long option's add_argument keywords; none has a default (see the module docstring)
_OPTIONS = {
    "--werner": {"type": float, "metavar": "P", "help": "use the 2x2 Werner state W(P)"},
    "--state": {"metavar": "PATH", "help": "density matrix JSON file"},
    "--seed": {"type": int, "help": "RNG seed"},
    "--out": {"metavar": "PATH", "help": "output file"},
    "--beta": {"help": "beta value, list, or lo:hi:n log grid"},
    "--samples": {"type": int, "help": "number of Haar samples"},
    "--p-grid": {"metavar": "A:STEP:B", "help": "inclusive linear p grid"},
}

_COMMANDS = {  # command -> (handler, help line, long options)
    "probe": (cmd_probe, "PPT + MC + saddle summary of one state",
              ("--werner", "--state", "--seed", "--out", "--beta", "--samples")),
    "scan": (cmd_scan, "equipartition scan over p", ("--out", "--p-grid", "--beta")),
    "scaling": (cmd_scaling, "average energy vs beta at fixed p",
                ("--seed", "--out", "--werner", "--beta")),
    "mc": (cmd_mc, "Monte Carlo density + energy curves",
           ("--werner", "--state", "--seed", "--out", "--beta", "--samples")),
    "ppt": (cmd_ppt, "partial-transpose test", ("--werner", "--state", "--out")),
}


@functools.cache  # built once per process: in-process callers of main reuse it
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sepmech", description="separability probing via "
                                 "ensemble statistical mechanics", fromfile_prefix_chars="@")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        for flag in flags:
            sp.add_argument(flag, **_OPTIONS[flag])
    return ap


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    handler = _COMMANDS[args.pop("command")][0]
    try:
        return handler({k: v for k, v in args.items() if v is not None})
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
