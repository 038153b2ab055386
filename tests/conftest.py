import collections

import numpy as np
import pytest

from hermgeo import linalg, sampling, sections


@pytest.fixture
def counts(monkeypatch):
    """Count eigensolves (numpy's eigh and eigvalsh, that is LAPACK calls,
    which linalg's eigensolvers skip on rank 1), linalg.hermitian
    validations, roots built from an eigenpair, mesh constructions and the
    sampler's scaling steps while a test runs."""
    seen = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted("eig", getattr(np.linalg, name)))
    monkeypatch.setattr(linalg, "hermitian", counted("hermitian", linalg.hermitian))
    monkeypatch.setattr(linalg, "_roots_from", counted("roots", linalg._roots_from))
    monkeypatch.setattr(sections.QuadratureMesh, "__post_init__",
                        counted("mesh", sections.QuadratureMesh.__post_init__))
    for name in ("_hermitians", "random_hermitians"):
        monkeypatch.setattr(sampling, name, counted(name, getattr(sampling, name)))
    return seen
