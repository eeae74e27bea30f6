"""Separability probing for bipartite quantum states.

The package asks whether a mixed state on C^m (x) C^n admits a product
decomposition by treating the space of its decompositions (a Stiefel
manifold) as a mechanical configuration space: the sum of concurrences
squared is the energy, separability means the constrained ground-state
energy is zero, and canonical averages at large inverse temperature probe
the gap.  A closed-form pipeline for the 2x2 Werner states reduces the
one-particle partition function to a one-dimensional integral with an
explicit saddle condition.
"""
from .quantum_core import (DensityMatrix, Ensemble, PureState, concurrence_sq,
                           eigen_ensemble, ppt_is_entangled)
from .ensembles import (StiefelPoint, caratheodory_length, constraint_residual,
                        ensemble_from_stiefel, haar_stiefel, haar_unitary)
from .costfn import (CostOperator, HMatrixSet, LagrangeMultipliers, cost_operator,
                     energy)
from .statmech import (McEstimate, ScalingFit, StateDensityEstimate,
                       estimate_state_density, fit_energy_scaling,
                       mc_energy_curve, sample_energies, z1_mc)
from .werner import (ConstraintsUnsatisfiable, EquipartitionScan, OmegaPrime,
                     QuadratureError, SaddleResult, avg_energy_werner,
                     equipartition_scan, grad_log_z1, log_z1_quadrature,
                     saddle_search, werner_eigenensemble, werner_state)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "Ensemble", "PureState", "concurrence_sq",
    "eigen_ensemble", "ppt_is_entangled",
    "StiefelPoint", "caratheodory_length", "constraint_residual",
    "ensemble_from_stiefel", "haar_stiefel", "haar_unitary",
    "CostOperator", "HMatrixSet", "LagrangeMultipliers", "cost_operator", "energy",
    "McEstimate", "ScalingFit", "StateDensityEstimate",
    "estimate_state_density", "fit_energy_scaling", "mc_energy_curve",
    "sample_energies", "z1_mc",
    "ConstraintsUnsatisfiable", "EquipartitionScan", "OmegaPrime",
    "QuadratureError", "SaddleResult", "avg_energy_werner",
    "equipartition_scan", "grad_log_z1", "log_z1_quadrature",
    "saddle_search", "werner_eigenensemble", "werner_state",
]
