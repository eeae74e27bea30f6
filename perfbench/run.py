#!/usr/bin/env python3
"""sepmech benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see workloads.py and
BENCHMARK.json): werner-scan, werner-interior, werner-mc, qutrit-mc.

The workload runs in a fresh worker process (worker.py) that calls
`sepmech.cli.main` in a closed loop, one caller, for about S seconds, and
checks every answer.  BLAS is pinned to one thread so runs on a small
shared machine are steady.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json:
  setup_s           median import time of `sepmech.cli` over SETUP_RUNS
                    fresh processes (the worker's own import included);
  throughput_per_s  work answered per second, (p, beta) points on the
                    werner-* workloads and requested MC samples on *-mc,
                    from the median pass time rescaled to a fixed machine
                    speed (worker.Reference);
  peak_rss_mb       peak resident memory of the worker.
Raw, unrescaled pass and per-command times are printed above the result.
With --trace 1 the result holds the per-layer metrics of a traced run.
The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
where an operation is one CLI invocation together with its answer check.
Metric lines and the environment are printed above it.  Exit status is not
0, and no result is printed, when the program under test is absent or the
worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_ROOT = HERE / ".work"
SETUP_RUNS = 5
TIMEOUT_S = 170
WORKLOADS = ("werner-scan", "werner-interior", "werner-mc", "qutrit-mc")


def _worker(args, cwd, timeout):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return proc.stdout


def _end_to_end(res, setup_runs):
    untraced = [p for p in res["passes"] if not p["traced"]]
    return {
        "setup_s": statistics.median(setup_runs),
        "throughput_per_s": res["units_per_pass"] / statistics.median(p["norm_wall"] for p in untraced),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _raw_lines(res):
    """Unnormalised medians, for reading; not gated."""
    untraced = [p for p in res["passes"] if not p["traced"]]
    wall = statistics.median(p["wall"] for p in untraced)
    lines = [f"raw wall_s = {wall:.6g} s per pass",
             f"raw {res['rate']} = {res['units_per_pass'] / wall:.6g} 1/s"]
    for cmd in untraced[0]["commands"]:
        lines.append(f"raw {cmd}_s = {statistics.median(p['commands'][cmd] for p in untraced):.6g} s")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sepmech" / "cli.py").is_file():
        raise SystemExit(f"no sepmech sources under {ROOT / 'src'}: run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        setup_runs = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup_runs.append(json.loads(_worker(["--setup-only"], workdir, TIMEOUT_S))["setup_s"])
        result_path = Path(workdir) / "result.json"
        _worker(["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--result", str(result_path)], workdir, TIMEOUT_S)
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = res["per_layer"] if args.trace else _end_to_end(res, setup_runs + [res["setup_s"]])
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise SystemExit(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"env {json.dumps(res['env'], sort_keys=True)}")
    n = sum(p["traced"] == bool(args.trace) for p in res["passes"])
    print(f"workload {args.workload} seed {args.seed}: {n} {'traced ' if args.trace else ''}"
          f"passes of {res['units_per_pass']} work units ({res['rate']} counts them)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print("\n".join(_raw_lines(res)))
    else:
        spans = sorted(res["self_s_by_span"].items(), key=lambda kv: -kv[1])
        print("largest self times per pass: " + ", ".join(f"{n} {s:.4g} s" for n, s in spans[:4]))
    print(f"fail_frac = {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']} operations)")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
