"""Separability probing for bipartite quantum states.

The package asks whether a mixed state on C^m (x) C^n admits a product
decomposition by treating the space of its decompositions (a Stiefel
manifold) as a mechanical configuration space: the sum of concurrences
squared is the energy, separability means the constrained ground-state
energy is zero, and canonical averages at large inverse temperature probe
the gap.  A closed-form pipeline for 2x2 Werner and Bell-diagonal states
reduces the one-particle partition function to a one-dimensional integral
with an explicit saddle condition.
"""
from .quantum_core import (DensityMatrix, EigenEnsemble, PureState,
                           eigen_ensemble, haar_unitary, partial_trace,
                           ppt_is_entangled, tensor_product)
from .concurrence import HMatrixSet, concurrence_sq, h_matrices, is_product
from .ensembles import (RhoEnsemble, StiefelPoint, caratheodory_length,
                        constraint_residual, ensemble_from_stiefel,
                        haar_stiefel, stiefel_from_gs)
from .costfn import (CostOperator, LagrangeMultipliers, cost_operator, energy,
                     full_hamiltonian)
from .statmech import (McEstimate, ScalingFit, StateDensityEstimate,
                       estimate_state_density, fit_energy_scaling,
                       fit_power_law, mc_energy_curve, weighted_stats, z1_mc)
from .werner import (ConstraintsUnsatisfiable, EquipartitionScan, OmegaPrime,
                     QuadratureError, SaddleResult, avg_energy_werner,
                     bell_diagonal_h, energy_closed_form, equipartition_scan,
                     grad_log_z1, h_matrix, log_z1_quadrature, saddle_search,
                     werner_eigenensemble, werner_state)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "EigenEnsemble", "PureState", "eigen_ensemble",
    "haar_unitary", "partial_trace", "ppt_is_entangled", "tensor_product",
    "HMatrixSet", "concurrence_sq", "h_matrices", "is_product",
    "RhoEnsemble", "StiefelPoint", "caratheodory_length", "constraint_residual",
    "ensemble_from_stiefel", "haar_stiefel", "stiefel_from_gs",
    "CostOperator", "LagrangeMultipliers", "cost_operator", "energy",
    "full_hamiltonian",
    "McEstimate", "ScalingFit", "StateDensityEstimate",
    "estimate_state_density", "fit_energy_scaling", "fit_power_law",
    "mc_energy_curve", "weighted_stats", "z1_mc",
    "ConstraintsUnsatisfiable", "EquipartitionScan", "OmegaPrime",
    "QuadratureError", "SaddleResult", "avg_energy_werner",
    "bell_diagonal_h", "energy_closed_form", "equipartition_scan",
    "grad_log_z1", "h_matrix", "log_z1_quadrature",
    "saddle_search", "werner_eigenensemble", "werner_state",
]
