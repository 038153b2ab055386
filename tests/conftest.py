import collections

import numpy as np
import pytest

from hermgeo import linalg, sections


@pytest.fixture
def counts(monkeypatch):
    """Count eigensolves, linalg.hermitian validations and mesh
    constructions while a test runs."""
    seen = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted("eig", getattr(np.linalg, name)))
    monkeypatch.setattr(linalg, "hermitian", counted("hermitian", linalg.hermitian))
    monkeypatch.setattr(sections.QuadratureMesh, "__post_init__",
                        counted("mesh", sections.QuadratureMesh.__post_init__))
    return seen
