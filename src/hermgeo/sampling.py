"""Seeded random generators for property sweeps and tests.

All randomness flows from one seed through a counter-based Philox
generator, so sweeps reproduce bit-identically across platforms.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import ParameterError
from .fiber import _gram_schmidt_pair
from .sections import (
    GaugeTransform,
    MetricSection,
    QuadratureMesh,
    ScalarField,
    TangentSection,
)


def make_rng(seed) -> np.random.Generator:
    """The Philox generator of a nonnegative integer seed; a bool, a
    non-integer or a negative seed raises ParameterError."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed {seed!r} is not a nonnegative integer")
    return np.random.Generator(np.random.Philox(int(seed)))


def _complex_normal(rng: np.random.Generator, n: int, shape: tuple) -> np.ndarray:
    """n complex Gaussian arrays of the given shape, drawn one after
    another: the real part, then the imaginary part, of each."""
    a = rng.standard_normal((n, 2) + shape)
    return a[:, 0] + 1j * a[:, 1]


def random_hermitian(rng: np.random.Generator, r: int,
                     scale: float = 1.0) -> np.ndarray:
    """One ``random_hermitians`` draw."""
    return random_hermitians(rng, r, 1, scale)[0]


def random_hermitians(rng: np.random.Generator, r: int, n: int,
                      scale=1.0) -> np.ndarray:
    """n random Hermitian matrices with Frobenius norm
    scale * sqrt(r) * U(0.2, 1), scale a float or one per draw, drawn
    one after another: the real and imaginary parts of an r x r
    Gaussian, then the norm's uniform factor, which a draw whose
    Hermitian part has zero norm skips (it is returned unscaled)."""
    a = np.empty((n, r, r), dtype=complex)
    u = np.zeros(n)
    for k in range(n):
        a[k] = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        # the Hermitian part's (0, 0) entry is Re a[0, 0]: unless that is
        # tiny, its square alone keeps the part's norm above zero
        if abs(a[k, 0, 0].real) > 1e-100 or np.linalg.norm(linalg.hermitian_part(a[k])):
            u[k] = rng.uniform(0.2, 1.0)
    a = linalg.hermitian_part(a)
    norm = linalg._norm(a)
    nonzero = norm != 0
    factor = (np.asarray(scale, dtype=float) * u / np.where(nonzero, norm, 1.0)
              * np.sqrt(r))
    a *= np.where(nonzero, factor, 1.0)[:, None, None]
    return a


def random_posdef(rng: np.random.Generator, r: int,
                  spread: float = 1.0) -> np.ndarray:
    """exp of a random Hermitian; spread controls the log-eigenvalue range."""
    return linalg.expm_hermitian(random_hermitian(rng, r, spread))


def random_orthonormal_pair(rng: np.random.Generator, h: np.ndarray,
                            alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Two tangent vectors orthonormal for the inner product at h."""
    u, v = random_hermitians(rng, h.shape[0], 2)
    return _gram_schmidt_pair(h, u, v, alpha)


def _mesh_fields(rng: np.random.Generator, rank: int, n_points: int,
                 alpha: float | None) -> tuple[np.ndarray, np.ndarray]:
    """The weights and alphas of a ``random_mesh``, unvalidated: the
    weights are drawn first, then the alphas unless alpha is given."""
    weights = rng.uniform(0.1, 2.0, n_points)
    if alpha is None:
        return weights, rng.uniform(-1.0 / rank + 1e-3, 1.0, n_points)
    return weights, np.full(n_points, float(alpha))


def random_mesh(rng: np.random.Generator, rank: int, n_points: int,
                alpha: float | None = None) -> QuadratureMesh:
    """Mesh with positive random weights; constant alpha when given,
    otherwise per-point alphas admissible for the rank."""
    weights, alphas = _mesh_fields(rng, rank, n_points, alpha)
    return QuadratureMesh(rank=rank, ids=np.arange(n_points),
                          weights=weights, alphas=alphas)


def random_metric_section(rng: np.random.Generator, mesh: QuadratureMesh) -> MetricSection:
    logs = random_hermitians(rng, mesh.rank, mesh.n_points)
    return MetricSection(mesh, linalg.expm_hermitian(logs))


def random_tangent_section(rng: np.random.Generator, mesh: QuadratureMesh) -> TangentSection:
    return TangentSection(mesh, random_hermitians(rng, mesh.rank, mesh.n_points))


def random_gauge(rng: np.random.Generator, mesh: QuadratureMesh) -> GaugeTransform:
    g = _complex_normal(rng, mesh.n_points, (mesh.rank, mesh.rank))
    g = np.eye(mesh.rank) + 0.5 * g / np.maximum(linalg._norm(g), 1e-12)[:, None, None]
    return GaugeTransform(mesh, g)


def random_scalar_field(rng: np.random.Generator, mesh: QuadratureMesh) -> ScalarField:
    return ScalarField(mesh, rng.standard_normal(mesh.n_points))
