"""Generalized concurrence of a pure state.

The generalized concurrence squared

    c2(psi) = ||psi||^4 - tr[(tr_B |psi><psi|)^2]

is nonnegative and vanishes exactly on product vectors.  It equals a sum of
squared antisymmetric quadratic forms,

    c2(psi) = 2 * sum_{a,b} |<zeta_a (x) zeta~_b | psi (x) psi>|^2,

where {zeta_a} and {zeta~_b} run over orthonormal bases of the antisymmetric
subspaces of C^m (x) C^m and C^n (x) C^n, and the two copies of psi are
reindexed from (A B A' B') to (A A' B B') order before the inner product.
The prefactor 2 is forced by the projector identity P_antisym = (1 - SWAP)/2,
which gives ||psi||^4 - tr sigma_A^2 = 2 <psi x psi| P_m (x) P_n |psi x psi>.
The package evaluates c2 only in the direct form; the component form is kept
in the test suite as an independent oracle.

In the canonical bases {(|ij> - |ji>)/sqrt(2) : i < j} each component is a
2x2 minor of psi's m x n coefficient matrix C,

    <zeta_a (x) zeta~_b | psi (x) psi> = C_ik C_jl - C_il C_jk
    for a = (i < j), b = (k < l),

so c2(psi) = 2 sum_{i<j, k<l} |C_ik C_jl - C_il C_jk|^2.  This minors
identity is the form in which `costfn.energy` sums c2 over an ensemble.

Worked 2x2 example: for the singlet (|01> - |10>)/sqrt(2) the single
antisymmetric component is <zeta (x) zeta~ | psi (x) psi> = det C(psi) = 1/2,
hence c2 = 2 * (1/4) = 1/2.
"""
from __future__ import annotations

import numpy as np

from .quantum_core import PureState, partial_trace


def concurrence_sq(psi: PureState) -> float:
    """||psi||^4 - tr[(tr_B |psi><psi|)^2], clamped to >= 0.

    Degree-4 homogeneous in the amplitudes; zero iff psi is a product vector.
    """
    n4 = psi.norm() ** 4
    sigma = partial_trace(psi, "A")
    val = n4 - float(np.trace(sigma @ sigma).real)
    return max(val, 0.0)
