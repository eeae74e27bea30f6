"""The package namespace: exactly the public names, each importable."""
import pytest

import sepmech

PUBLIC = [
    "ConstraintsUnsatisfiable", "CostOperator", "DensityMatrix", "EigenEnsemble",
    "EquipartitionScan", "HMatrixSet", "LagrangeMultipliers", "McEstimate",
    "OmegaPrime", "PureState", "QuadratureError", "RhoEnsemble", "SaddleResult",
    "ScalingFit", "StateDensityEstimate", "StiefelPoint", "avg_energy_werner",
    "bell_diagonal_h", "caratheodory_length", "concurrence_sq",
    "constraint_residual", "cost_operator", "eigen_ensemble", "energy",
    "energy_closed_form", "ensemble_from_stiefel", "equipartition_scan",
    "estimate_state_density", "fit_energy_scaling", "fit_power_law",
    "grad_log_z1", "h_matrices", "h_matrix", "haar_stiefel", "haar_unitary",
    "is_product", "log_z1_quadrature", "mc_energy_curve", "partial_trace",
    "ppt_is_entangled", "saddle_search", "sample_energies", "stiefel_from_gs",
    "werner_eigenensemble", "werner_state", "z1_mc",
]

# alternative formulas and test-only helpers now kept in tests/oracles.py,
# and deleted helpers (tensor_product is np.kron)
REMOVED = ["energy_via_h", "concurrence_sq_skew", "SkewBasis", "skew_basis",
           "det_product_test", "det_m", "grad_log_z1_full", "WernerParams",
           "mc_average_energy", "full_hamiltonian", "tensor_product",
           "weighted_stats"]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 46
    assert sorted(sepmech.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in sepmech.__all__:
        assert getattr(sepmech, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from sepmech import {name}", {})
    assert not hasattr(sepmech, name)
