import collections

import numpy as np
import pytest

from hermgeo import linalg


@pytest.fixture
def counts(monkeypatch):
    """Count eigensolves and the linalg validators while a test runs."""
    seen = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted("eig", getattr(np.linalg, name)))
    for name in ("hermitian", "posdef"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    return seen
