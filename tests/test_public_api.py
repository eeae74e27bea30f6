"""The package namespace: exactly the public names, each importable, and
the one-way rule between the library and the test oracles."""
import ast
from pathlib import Path

import pytest

import sepmech

SRC = Path(sepmech.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")

PUBLIC = [
    "ConstraintsUnsatisfiable", "CostOperator", "DensityMatrix", "EigenEnsemble",
    "EquipartitionScan", "HMatrixSet", "LagrangeMultipliers", "McEstimate",
    "OmegaPrime", "PureState", "QuadratureError", "RhoEnsemble", "SaddleResult",
    "ScalingFit", "StateDensityEstimate", "StiefelPoint", "avg_energy_werner",
    "bell_diagonal_h", "caratheodory_length", "concurrence_sq",
    "constraint_residual", "cost_operator", "eigen_ensemble", "energy",
    "ensemble_from_stiefel", "equipartition_scan",
    "estimate_state_density", "fit_energy_scaling", "fit_power_law",
    "grad_log_z1", "h_matrices", "haar_stiefel", "haar_unitary",
    "is_product", "log_z1_quadrature", "mc_energy_curve", "partial_trace",
    "ppt_is_entangled", "saddle_search", "sample_energies", "stiefel_from_gs",
    "werner_eigenensemble", "werner_state", "z1_mc",
]

# alternative formulas and test-only helpers now kept in tests/oracles.py,
# and deleted helpers (tensor_product is np.kron)
REMOVED = ["energy_via_h", "concurrence_sq_skew", "SkewBasis", "skew_basis",
           "det_product_test", "det_m", "grad_log_z1_full", "WernerParams",
           "mc_average_energy", "full_hamiltonian", "tensor_product",
           "weighted_stats", "h_matrix", "energy_closed_form"]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 44
    assert sorted(sepmech.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in sepmech.__all__:
        assert getattr(sepmech, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from sepmech import {name}", {})
    assert not hasattr(sepmech, name)


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
