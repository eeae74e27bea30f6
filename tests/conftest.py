"""Shared fixtures: seeded generators and random-state factories."""
import numpy as np
import pytest

from sepmech import DensityMatrix, PureState

MASTER_SEED = 20260815


@pytest.fixture
def rng():
    return np.random.default_rng(MASTER_SEED)


def _ginibre(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


@pytest.fixture
def random_density():
    """Factory for full- or fixed-rank random density matrices on C^m (x) C^n."""

    def make(rng, m, n, rank=None):
        d = m * n
        k = rank or d
        g = _ginibre(rng, d, k)
        mat = g @ g.conj().T
        return DensityMatrix(m, n, mat / np.trace(mat).real)

    return make


@pytest.fixture
def random_pure():
    """Factory for Haar-random normalized pure states."""

    def make(rng, m, n):
        v = _ginibre(rng, m * n, 1).ravel()
        return PureState(m, n, v / np.linalg.norm(v))

    return make


@pytest.fixture
def random_product():
    """Factory for random normalized product states a (x) b."""

    def make(rng, m, n):
        a = _ginibre(rng, m, 1).ravel()
        b = _ginibre(rng, n, 1).ravel()
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        return PureState(m, n, v)

    return make
