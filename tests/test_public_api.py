"""The package namespace: exactly the public names, each importable and
each function reached from outside its own tests, the one-way rule between
the library and the test oracles, the library's one error type for bad
input, and records that hold no unread field."""
import ast
import importlib.util
import inspect
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import sepmech
from oracles import partial_trace
from sepmech import (Ensemble, HMatrixSet, LagrangeMultipliers, OmegaPrime, PureState,
                     StiefelPoint, caratheodory_length, constraint_residual, cost_operator,
                     eigen_ensemble, energy, estimate_state_density, fit_energy_scaling,
                     haar_stiefel, haar_unitary, mc_energy_curve, sample_energies,
                     saddle_search, statmech, werner_eigenensemble, werner_state, z1_mc)
from sepmech.quantum_core import InvalidInput

SRC = Path(sepmech.__file__).parent
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"
ORACLES = TESTS / "oracles.py"

PUBLIC = [
    "ConstraintsUnsatisfiable", "CostOperator", "DensityMatrix", "Ensemble",
    "EquipartitionScan", "HMatrixSet", "LagrangeMultipliers", "McEstimate",
    "OmegaPrime", "PureState", "QuadratureError", "SaddleResult",
    "ScalingFit", "StateDensityEstimate", "StiefelPoint", "avg_energy_werner",
    "caratheodory_length", "concurrence_sq", "constraint_residual",
    "cost_operator", "eigen_ensemble", "energy", "ensemble_from_stiefel",
    "equipartition_scan", "estimate_state_density", "fit_energy_scaling",
    "grad_log_z1", "haar_stiefel", "haar_unitary",
    "log_z1_quadrature", "mc_energy_curve", "ppt_is_entangled", "saddle_search", "sample_energies",
    "werner_eigenensemble", "werner_state", "z1_mc",
]

# alternative formulas and test-only helpers now kept in tests/oracles.py,
# deleted helpers (tensor_product is np.kron, is_product a threshold on
# concurrence_sq), the two ensemble records that Ensemble replaces, and
# functions nothing but the tests reached
REMOVED = ["energy_via_h", "concurrence_sq_skew", "SkewBasis", "skew_basis",
           "det_product_test", "det_m", "grad_log_z1_full", "WernerParams",
           "mc_average_energy", "full_hamiltonian", "tensor_product",
           "weighted_stats", "h_matrix", "energy_closed_form",
           "EigenEnsemble", "RhoEnsemble", "stiefel_from_gs", "is_product",
           "fit_power_law", "bell_diagonal_h", "h_matrices", "partial_trace"]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 37
    assert sorted(sepmech.__all__) == PUBLIC


def test_the_readme_lists_exactly_the_modules():
    # each "- `name`:" bullet under "What is implemented" names one module of
    # the package, so deleting or adding a module fails until the README follows
    readme = (TESTS.parent / "README.md").read_text()
    section = readme.split("What is implemented:", 1)[1].split("\n## ", 1)[0]
    bullets = set(re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE))
    assert bullets == {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def test_every_public_name_resolves():
    for name in sepmech.__all__:
        assert getattr(sepmech, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from sepmech import {name}", {})
    assert not hasattr(sepmech, name)


def test_the_benchmark_imports_only_public_names():
    # perfbench/ is not edited with the library, so a refactor that drops or
    # renames a name it imports would break the benchmark and nothing else
    imported = sorted({(path.name, alias.name) for path in PERFBENCH.glob("*.py")
                       for n in ast.walk(ast.parse(path.read_text()))
                       if isinstance(n, ast.ImportFrom) and n.module == "sepmech"
                       for alias in n.names})
    assert imported
    assert [f"{f}:{name}" for f, name in imported if name not in sepmech.__all__] == []


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3)])
def test_the_library_internals_the_benchmark_tracer_reads(m, n, rng, random_density):
    # perfbench/tracer.py counts energy flops from cop.hset.matrices.shape
    # and binds the cop and N arguments of statmech._batch_energies by name;
    # neither is a public name, so the import guard above does not see them
    ens = eigen_ensemble(random_density(rng, m, n))
    r = m * n
    assert cost_operator(ens).hset.matrices.shape == (m * (m - 1) // 2, n * (n - 1) // 2, r, r)
    params = inspect.signature(statmech._batch_energies).parameters
    assert {"cop", "N"} <= set(params)


def test_the_benchmark_haar_oracle_runs_on_the_library(monkeypatch):
    # the one benchmark check that walks the library's records itself
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    got = workloads.haar_energy_oracle(werner_state(0.2), 16, 3, np.random.default_rng(0))
    assert len(got) == 2
    assert all(isinstance(x, float) and math.isfinite(x) for x in got)


def _module_level_names(stmt) -> list:
    """Names a module-level statement defines: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _used_names(nodes) -> set:
    """Names read in nodes, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def test_no_oracle_is_also_a_public_name():
    # an alternative formula lives in the tests or in the library, not both
    tree = ast.parse(ORACLES.read_text())
    defined = {name for stmt in tree.body for name in _module_level_names(stmt)}
    assert defined.isdisjoint(sepmech.__all__), sorted(defined & set(sepmech.__all__))


def test_every_private_module_name_is_used_in_the_library():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            for name in _module_level_names(stmt):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                # every statement of the library except the defining one
                rest = [s for t in trees.values() for s in t.body if s is not stmt]
                if name not in _used_names(rest):
                    unused.append(f"{mod}:{name}")
    assert unused == []


def test_every_q_comes_from_the_one_dispatcher():
    # the two Cholesky-QR kernels live in ensembles beside the one draw
    # function, whose shape rule picks between them, and only it names them;
    # quantum_core holds states, draws nothing and takes no QR
    kernels = {"_phase_fixed_q", "_batch_last_q"}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = sorted(f"{mod}:{name}" for mod, tree in trees.items() for stmt in tree.body
                     for name in _module_level_names(stmt) if name in kernels)
    assert defined == ["ensembles.py:_batch_last_q", "ensembles.py:_phase_fixed_q"]
    callers = sorted(f"{mod}:{name}" for mod, tree in trees.items() for stmt in tree.body
                     if _used_names([stmt]) & kernels
                     for name in _module_level_names(stmt))
    assert callers == ["ensembles.py:_stiefel_batch"]
    drawn = _used_names([trees["quantum_core.py"]]) & {"default_rng", "standard_normal",
                                                       "cholesky", "qr"}
    assert drawn == set()


def test_every_public_function_is_reached():
    # a public function counts as reached if the command line, the
    # acceptance tests, the benchmark or another library module uses it;
    # one that only its own tests call leaves the package or moves to
    # tests/oracles.py.  Record and exception classes are exempt
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    del trees["__init__.py"]  # it re-exports every name
    outside = [ast.parse(path.read_text()) for path in
               [TESTS / "test_acceptance.py"] + sorted(PERFBENCH.rglob("*.py"))]
    unreached = [f"{mod}:{stmt.name}" for mod, tree in trees.items() for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef) and stmt.name in sepmech.__all__
                 and stmt.name not in _used_names(
                     outside + [t for m, t in trees.items() if m != mod])]
    assert unreached == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return "dataclass" in {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                           for d in cls.decorator_list}


def test_every_dataclass_field_is_read():
    # a field that nothing reads as an attribute, outside its own class body,
    # is derived or dead: it goes, or becomes a property
    src = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    rest = [ast.parse(path.read_text())
            for path in sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.rglob("*.py"))]
    reads = [n for tree in src + rest for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    unread = []
    for cls in (s for tree in src for s in tree.body
                if isinstance(s, ast.ClassDef) and _is_dataclass(s)):
        inside = set(map(id, ast.walk(cls)))
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                if not any(n.attr == name and id(n) not in inside for n in reads):
                    unread.append(f"{cls.name}.{name}")
    assert unread == []


def test_the_library_raises_no_bare_value_error():
    # bad input raises InvalidInput, which the command line maps to exit 2
    found = [f"{path.name}:{n.lineno}" for path in sorted(SRC.glob("*.py"))
             for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, ast.Raise) and n.exc is not None
             and "ValueError" in {getattr(n.exc, "id", None),
                                  getattr(getattr(n.exc, "func", None), "id", None)}]
    assert found == []


def test_invalid_input_is_a_value_error_outside_the_public_names():
    assert issubclass(InvalidInput, ValueError)
    assert "InvalidInput" not in sepmech.__all__


_COP = cost_operator(werner_eigenensemble(0.5))
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: PureState(2, 2, [1, 0, 0]),
    lambda: haar_unitary(0, seed=1),
    lambda: LagrangeMultipliers(np.diag([1.0, 0.0])),
    lambda: estimate_state_density([1.0, 2.0, 3.0], 1),
    lambda: z1_mc(_COP, 1.0, LagrangeMultipliers(np.eye(4)), 0, seed=1),
    lambda: OmegaPrime(0, 1),
    lambda: mc_energy_curve([1.0, 2.0], [_NAN]),
    lambda: mc_energy_curve([1.0, 2.0], [_INF]),
    lambda: fit_energy_scaling([(1.0, 1.0), (2.0, 0.5), (_NAN, 0.3)]),
    lambda: fit_energy_scaling([(1.0, 1.0), (2.0, 0.5), (_INF, 0.3)]),
    lambda: fit_energy_scaling([(1.0, 1.0), (2.0, _NAN), (3.0, 0.3)]),
    lambda: z1_mc(_COP, _NAN, LagrangeMultipliers(np.eye(4)), 10, seed=1),
    lambda: z1_mc(_COP, -1.0, LagrangeMultipliers(np.eye(4)), 10, seed=1),
    lambda: saddle_search(_NAN, 0.5),
    lambda: saddle_search(_INF, 0.5),
    lambda: mc_energy_curve([], [1.0]),
    lambda: mc_energy_curve([1.0, _NAN], [1.0]),
    lambda: mc_energy_curve([1.0, _INF], [1.0]),
    lambda: estimate_state_density([], 4),
    lambda: estimate_state_density([1.0, 2.0, _NAN], 4),
    lambda: estimate_state_density([1.0, 2.0, _INF], 4),
    lambda: StiefelPoint(2, 1, [[_NAN], [0.0]]),
    lambda: LagrangeMultipliers(np.diag([1.0, _NAN])),
    lambda: caratheodory_length(_NAN, 2),
    lambda: PureState(2, 2, [_NAN, 0, 0, 0]),
    lambda: PureState(2, 2, [_INF, 0, 0, 0]),
    lambda: Ensemble(2, 2, [[_NAN, 0, 0, 0]]),
    lambda: Ensemble(2, 2, np.ones((2, 3))),
    lambda: Ensemble(2, 2, np.ones(4)),
    lambda: PureState(-2, -2, np.ones(4) / 2),
    lambda: PureState(True, 4, np.ones(4) / 2),
    lambda: PureState(2.0, 2, np.ones(4) / 2),
    lambda: Ensemble(-2, -2, np.ones((1, 4)) / 2),
    lambda: Ensemble(True, 4, np.ones((1, 4)) / 2),
    lambda: Ensemble(2.0, 2, np.ones((1, 4)) / 2),
    lambda: caratheodory_length(1.5, 2),
    lambda: LagrangeMultipliers(np.diag([1.0, _INF])),
    lambda: StiefelPoint(2, 1, [[_INF], [0.0]]),
    lambda: haar_stiefel(16.0, 4, 1),
    lambda: haar_stiefel(16, 2.5, 1),
    lambda: haar_unitary(2.0, 1),
    lambda: sample_energies(_COP, 16.5, 10, 1),
    lambda: sample_energies(_COP, 16, 10.5, 1),
    lambda: z1_mc(_COP, 1.0, LagrangeMultipliers(np.eye(4)), 2.5, 1),
    lambda: estimate_state_density([1.0, 2.0, 3.0], 7.0),
    lambda: haar_unitary(True, 1),
    lambda: sample_energies(_COP, 16, True, 1),
    lambda: energy(np.complex128(1), _COP),
    lambda: constraint_residual(np.ones(3)),
    lambda: constraint_residual(np.ones(())),
    lambda: energy(np.ones((0, 4)), _COP),
    lambda: energy(np.ones((5, 0, 4)), _COP),
    lambda: StiefelPoint(3, 0, np.ones((3, 0))),
    lambda: StiefelPoint(0, 0, np.ones((0, 0))),
    lambda: StiefelPoint(True, 1, [[1.0]]),
    lambda: HMatrixSet(np.ones((2, 2, 2))),
    lambda: HMatrixSet(np.ones((1, 1, 2, 3))),
], ids=["amplitude-count", "haar-d0", "singular-omega", "bins-1", "z1-samples-0",
        "omega-prime-gamma-0", "mc-curve-beta-nan", "mc-curve-beta-inf", "fit-beta-nan",
        "fit-beta-inf", "fit-energy-nan", "z1-beta-nan", "z1-beta-negative",
        "saddle-beta-nan", "saddle-beta-inf", "mc-curve-empty", "mc-curve-energy-nan",
        "mc-curve-energy-inf", "density-empty", "density-energy-nan", "density-energy-inf",
        "stiefel-point-nan", "omega-nan", "caratheodory-nan", "pure-state-nan",
        "pure-state-inf", "ensemble-nan", "ensemble-width", "ensemble-1d",
        "pure-state-negative-dims", "pure-state-bool-dim", "pure-state-float-dim",
        "ensemble-negative-dims", "ensemble-bool-dim", "ensemble-float-dim",
        "caratheodory-fraction", "omega-inf", "stiefel-point-inf", "haar-stiefel-float-n",
        "haar-stiefel-fraction-r", "haar-float-d", "sample-fraction-n",
        "sample-fraction-count", "z1-fraction-samples", "density-float-bins", "haar-bool-d",
        "sample-bool-count", "energy-scalar", "residual-1d", "residual-0d",
        "energy-no-rows", "energy-stack-no-rows", "stiefel-point-r0", "stiefel-point-n0",
        "stiefel-point-bool-n", "h-matrix-set-3d", "h-matrix-set-non-square"])
def test_library_check_raises_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


def test_partial_trace_of_a_non_state_is_a_type_error():
    with pytest.raises(TypeError, match="PureState or DensityMatrix"):
        partial_trace(np.eye(4) / 4, "A")
