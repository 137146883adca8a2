import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def dense_solves(monkeypatch):
    """The (name, matrix shape) of every numpy.linalg eigh, eigvalsh and
    solve call the test makes."""
    calls = []
    for name in ("eigh", "eigvalsh", "solve"):
        real = getattr(np.linalg, name)

        def spy(A, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(A)))
            return _real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls
