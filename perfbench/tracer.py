"""Call tracer for the benchmark's traced run.

`Tracer.install()` wraps the public and kernel entry points of the layers in
`TARGETS` with perf_counter spans and call counters.  Each wrapped name is
replaced in every `sepmech` module that bound it (the package namespace and
`sepmech.cli` import many of them by name), and `uninstall()` restores the
originals, so traced and untraced passes run in one process.  Nothing under
`src/` is edited.

A span's self time is its duration minus the time of the wrapped calls made
inside it.  Names missing from the program are skipped with a note on
stderr, so a later program that renames a kernel still runs; its layer
metrics then read 0.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

TARGETS = {
    "sepmech.werner": ("_moments", "saddle_search", "equipartition_scan",
                       "avg_energy_werner", "werner_state"),
    "sepmech.statmech": ("_stiefel_batch", "_batch_energies", "weighted_stats",
                         "_jackknife_error", "mc_energy_curve",
                         "estimate_state_density", "fit_energy_scaling"),
    "sepmech.costfn": ("cost_operator",),
    "sepmech.quantum_core": ("eigen_ensemble", "ppt_is_entangled"),
}

COMPLEX_BYTES = 16


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(SpanStats)
        self.counts = defaultdict(float)
        self.top_level_s = 0.0      # time inside wrapped calls made by the CLI itself
        self._stack = []            # child time of each open span
        self._patches = []
        self._hooks = {"werner.saddle_search": self._on_saddle,
                       "statmech._stiefel_batch": self._on_stiefel,
                       "statmech._batch_energies": self._on_energies}

    def install(self):
        for modname, names in TARGETS.items():
            mod = importlib.import_module(modname)
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:
                    print(f"tracer: {modname}.{name} not found, not traced", file=sys.stderr)
                    continue
                wrapper = self._wrap(f"{modname.rpartition('.')[2]}.{name}", orig)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").partition(".")[0] != "sepmech":
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        hook = self._hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.top_level_s += dt
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - child
            if hook:
                hook(sig.bind(*args, **kwargs).arguments, result, dt)
            return result

        return traced

    def _on_saddle(self, args, result, dt):
        self.counts["saddle.iterations"] += result.iterations
        side = "interior" if result.interior else "boundary"
        self.counts[f"saddle.{side}_calls"] += 1
        self.counts[f"saddle.{side}_s"] += dt

    def _on_stiefel(self, args, result, dt):
        # bytes written by the sampler, computed from shapes: two real
        # normal blocks, their complex sum, Q and the phased output (each
        # count x N x r) and R (count x r x r)
        count, N, r = result.shape
        self.counts["stiefel.rows"] += count
        self.counts["stiefel.bytes"] += count * COMPLEX_BYTES * (4 * N * r + r * r)

    def _on_energies(self, args, result, dt):
        # flops of the cheapest contraction order of z^T h^{ab} z per row,
        # computed from shapes: 8r^2 + 8r real flops for the complex
        # bilinear form, 4 for |.|^2 and the sum, per row and (a, b) pair
        pa, pb, r, _ = args["cop"].hset.matrices.shape
        self.counts["energy.rows"] += result.shape[0]
        self.counts["energy.flop"] += result.shape[0] * args["N"] * pa * pb * (8 * r * r + 8 * r + 4)
