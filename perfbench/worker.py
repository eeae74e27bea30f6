"""One benchmark run of one workload, in a fresh process.

The process is a closed loop with a single caller: it times
`import sepmech.cli`, generates the workload's inputs from the seed, then
calls `sepmech.cli.main(argv)` once per invocation, one after another, in
passes over the workload's invocation list for about `--seconds`.  Only
`main` is inside the timed region; every answer is checked after it, and
every pass's outputs must equal the first pass's byte for byte.  Pass times
are also reported rescaled to a fixed machine speed (see Reference).

With `--trace 1` the passes alternate untraced and traced, so one run gives
both the per-layer numbers and the tracing overhead, and every traced
output is compared byte for byte with the untraced one.

Usage (normally through run.py, which sets PYTHONPATH and the BLAS threads):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --result PATH
    python3 perfbench/worker.py --setup-only
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import signal
import statistics
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
# median Reference.seconds() on the machine the baseline was recorded on
REFERENCE_S = 0.006
# one invocation may take this long before it counts as failed; a whole
# run must end within 180 s
INVOCATION_LIMIT_S = 100.0


def timed_import() -> float:
    """Seconds to import sepmech.cli, which must come from this checkout."""
    t0 = perf_counter()
    import sepmech.cli
    dt = perf_counter() - t0
    if SRC not in Path(sepmech.cli.__file__).resolve().parents:
        raise SystemExit(f"sepmech imported from {sepmech.cli.__file__}, not from {SRC}")
    return dt


class Reference:
    """A fixed numpy and interpreter kernel, timed beside every invocation.

    On a shared machine the speed of a core drifts by up to 2x over tens of
    seconds.  Each invocation's time is divided by the reference time
    measured just before and just after it (their geometric mean) and
    multiplied by REFERENCE_S, which cancels most of that drift.  The kernel
    mixes what the program spends its time on: batched small LAPACK calls,
    streaming vector math, small einsums and interpreted loops.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.batch = rng.standard_normal((256, 16, 4)) + 1j * rng.standard_normal((256, 16, 4))
        self.small = self.batch[:16]
        self.h = rng.standard_normal((4, 4)) + 0j
        self.vec = rng.standard_normal(1 << 18)

    def seconds(self) -> float:
        import numpy as np
        t0 = perf_counter()
        np.linalg.qr(self.batch)
        np.exp(-self.vec).sum()
        for _ in range(16):
            np.einsum("six,xy,siy->si", self.small, self.h, self.small)
            acc = 0
            for i in range(2000):
                acc += i * i % 7
        return perf_counter() - t0


class InvocationTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise InvocationTimeout in the calling thread after `seconds`, so a
    program that never returns is one failed operation and the run still
    ends in time."""
    def expire(signum, frame):
        raise InvocationTimeout(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _invoke(inv):
    """Call the CLI once; return (seconds, snapshot of everything it produced)."""
    import sepmech.cli
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with time_limit(INVOCATION_LIMIT_S), redirect_stdout(out), redirect_stderr(err):
            rc = sepmech.cli.main(inv.argv)
    except (Exception, SystemExit) as e:  # a crash is one failed operation, not the end of the run
        rc = f"{type(e).__name__}: {e}"
    dt = perf_counter() - t0
    files = {}
    for name in inv.outputs:
        try:
            files[name] = Path(name).read_bytes()
        except OSError:
            files[name] = None
    return dt, {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def _check(inv, snap, first):
    """Answer check of one invocation; a list of errors, empty when correct."""
    if snap["rc"] != 0:
        return [f"{inv.command}: exit {snap['rc']!r} {snap['stderr'].strip()}"]
    if any(v is None for v in snap["files"].values()):
        return [f"{inv.command}: an output file is missing"]
    try:
        errs = inv.check(snap["files"])
    except (ValueError, KeyError, IndexError, TypeError) as e:
        errs = [f"{inv.command}: unreadable output ({type(e).__name__}: {e})"]
    if first is not None and (snap["files"], snap["stdout"]) != (first["files"], first["stdout"]):
        errs.append(f"{inv.command}: output differs from the first pass")
    return errs


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run passes of the workload in the current directory; return raw results.

    Inputs and oracles are generated first, outside the timed region.  Passes
    stop at the pass boundary nearest to `seconds`; at least one pass runs
    (two with tracing: untraced and traced passes alternate).
    """
    from tracer import Tracer
    from workloads import build

    wl = build(name, seed, tiny)
    tracer = Tracer() if trace else None
    reference = Reference()
    first = [None] * len(wl.invocations)
    passes = []
    attempted = failed = bytes_out = 0
    errors = []
    t_start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        p = {"traced": traced, "wall": 0.0, "norm_wall": 0.0, "commands": {}}
        ref_before = reference.seconds()
        try:
            for i, inv in enumerate(wl.invocations):
                dt, snap = _invoke(inv)
                ref_after = reference.seconds()
                p["wall"] += dt
                p["norm_wall"] += dt * REFERENCE_S / math.sqrt(ref_before * ref_after)
                p["commands"][inv.command] = p["commands"].get(inv.command, 0.0) + dt
                ref_before = ref_after
                if traced:
                    bytes_out += len(snap["stdout"].encode()) + sum(len(b or b"") for b in snap["files"].values())
                errs = _check(inv, snap, first[i])
                first[i] = first[i] or snap
                attempted += 1
                failed += bool(errs)
                errors.extend(errs)
        finally:
            if traced:
                tracer.uninstall()
        passes.append(p)
        elapsed = perf_counter() - t_start
        if elapsed * (1 + 0.5 / len(passes)) >= seconds and (not trace or len(passes) >= 2):
            break

    result = {
        "workload": name, "seed": seed, "rate": wl.rate,
        "units_per_pass": sum(inv.units for inv in wl.invocations),
        "passes": passes, "attempted": attempted, "failed": failed, "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        samples_per_pass = sum(inv.samples for inv in wl.invocations)
        result["per_layer"] = layer_metrics(tracer, passes, bytes_out, samples_per_pass)
        n = sum(p["traced"] for p in passes)
        result["self_s_by_span"] = {name: st.self_s / n for name, st in tracer.spans.items() if st.calls}
    return result


def layer_metrics(tracer, passes, bytes_out, samples_per_pass) -> dict:
    """Per-layer metrics, each per traced pass."""
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    sp, c = tracer.spans, tracer.counts

    def total(name):
        return sp[name].total_s / n

    def ratio(a, b):
        return a / b if b else 0.0

    moments, saddle = sp["werner._moments"], sp["werner.saddle_search"]
    draws = c["stiefel.rows"]
    energy_self = sp["statmech._batch_energies"].self_s
    return {
        "werner._moments.calls": moments.calls / n,
        "werner._moments.self_s": moments.self_s / n,
        "werner._moments.us_per_call": 1e6 * ratio(moments.self_s, moments.calls),
        "werner.saddle_search.calls": saddle.calls / n,
        "werner.saddle_search.s": total("werner.saddle_search"),
        "werner.saddle_search.boundary_calls": c["saddle.boundary_calls"] / n,
        "werner.saddle_search.boundary_ms": 1e3 * ratio(c["saddle.boundary_s"], c["saddle.boundary_calls"]),
        "werner.saddle_search.interior_ms": 1e3 * ratio(c["saddle.interior_s"], c["saddle.interior_calls"]),
        "werner.saddle_search.iterations": c["saddle.iterations"] / n,
        "werner.moments_per_saddle": ratio(moments.calls, saddle.calls),
        "werner.avg_energy_werner.s": total("werner.avg_energy_werner"),
        "statmech._stiefel_batch.calls": sp["statmech._stiefel_batch"].calls / n,
        "statmech._stiefel_batch.s": total("statmech._stiefel_batch"),
        "statmech._stiefel_batch.rows": draws / n,
        "statmech._stiefel_batch.bytes_computed": c["stiefel.bytes"] / n,
        "statmech.energy.self_s": energy_self / n,
        "statmech.energy.us_per_sample": 1e6 * ratio(energy_self, c["energy.rows"]),
        "statmech.energy.flop_computed": c["energy.flop"] / n,
        "statmech.draws_per_requested": ratio(draws / n, samples_per_pass),
        "statmech.reweight.s": total("statmech.weighted_stats") + total("statmech._jackknife_error"),
        "statmech.density.self_s": sp["statmech.estimate_state_density"].self_s / n,
        "costfn.cost_operator.s": total("costfn.cost_operator"),
        "quantum_core.eigen_ensemble.s": total("quantum_core.eigen_ensemble"),
        "quantum_core.ppt_is_entangled.s": total("quantum_core.ppt_is_entangled"),
        "cli.self_s": (sum(p["wall"] for p in traced) - tracer.top_level_s) / n,
        "cli.bytes_out": bytes_out / n,
        **{f"cli.{cmd}.s": sum(p["commands"].get(cmd, 0.0) for p in traced) / n
           for cmd in ("scan", "probe", "scaling", "mc")},
        "trace.overhead_s": (statistics.median(p["wall"] for p in traced)
                             - statistics.median(p["wall"] for p in passes if not p["traced"])),
    }


def environment() -> dict:
    """Where the numbers came from."""
    import platform
    from importlib import metadata

    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "git_commit": _git_commit(),
        "flop_and_byte_figures": "computed from array shapes, not measured",
    }


def _git_commit():
    git = SRC.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--result")
    args = ap.parse_args()
    setup_s = timed_import()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    result_path = Path(args.result).resolve()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["setup_s"] = setup_s
    result["env"] = environment()
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
