"""Shared fixtures: seeded generators, random-state factories and
malformed state documents."""
import json

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


_W1 = {"dimA": 2, "dimB": 2, "re": (np.eye(4) / 4).ravel().tolist(), "im": [0.0] * 16}
_W1_ROWS = (np.eye(4) / 4).tolist()  # W(1)'s "re" nested as rows
_MALFORMED = {
    "not-json": "{dimA: 2}",
    "top-level-list": "[1, 2]",
    "top-level-string": '"rho"',
    "list-of-objects": "[{}]",
    "no-re": json.dumps({k: v for k, v in _W1.items() if k != "re"}),
    "no-im": json.dumps({k: v for k, v in _W1.items() if k != "im"}),
    "text-entries": json.dumps({**_W1, "re": ["x"] * 16}),
    "numeric-strings": json.dumps({**_W1, "re": [str(x) for x in _W1["re"]]}),
    "non-square-count": json.dumps({**_W1, "re": _W1["re"][:15], "im": [0.0] * 15}),
    "ragged-re": json.dumps({**_W1, "re": [*_W1_ROWS[:3], _W1_ROWS[3][:3]]}),
    "re-im-shapes-differ": json.dumps({**_W1, "re": _W1_ROWS}),
    "binary": b"\x89PNG\r\n\x1a\n\x00\xff\xfe",
}


@pytest.fixture(params=list(_MALFORMED.values()), ids=list(_MALFORMED))
def malformed_state_document(request):
    """A state file's contents (str, or bytes for a binary file) that is not
    a to_json document; each names W(1) where it names anything, so only
    the document's form is wrong."""
    return request.param
