"""Seeded random generators for property sweeps and tests.

All randomness flows from one seed through a counter-based Philox
generator, so sweeps reproduce bit-identically across platforms.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .fiber import _gram_schmidt_pair
from .sections import (
    GaugeTransform,
    MetricSection,
    QuadratureMesh,
    ScalarField,
    TangentSection,
)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def random_hermitian(rng: np.random.Generator, r: int,
                     scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    a = linalg.hermitian_part(a)
    norm = np.linalg.norm(a)
    if norm == 0:
        return a
    return a * (scale * rng.uniform(0.2, 1.0) / norm * np.sqrt(r))


def random_posdef(rng: np.random.Generator, r: int,
                  spread: float = 1.0) -> np.ndarray:
    """exp of a random Hermitian; spread controls the log-eigenvalue range."""
    return linalg.expm_hermitian(random_hermitian(rng, r, spread))


def random_orthonormal_pair(rng: np.random.Generator, h: np.ndarray,
                            alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Two tangent vectors orthonormal for the inner product at h."""
    r = h.shape[0]
    return _gram_schmidt_pair(h, random_hermitian(rng, r),
                              random_hermitian(rng, r), alpha)


def random_mesh(rng: np.random.Generator, rank: int, n_points: int,
                alpha: float | None = None) -> QuadratureMesh:
    """Mesh with positive random weights; constant alpha when given,
    otherwise per-point alphas admissible for the rank."""
    weights = rng.uniform(0.1, 2.0, n_points)
    if alpha is None:
        alphas = rng.uniform(-1.0 / rank + 1e-3, 1.0, n_points)
    else:
        alphas = np.full(n_points, float(alpha))
    return QuadratureMesh(rank=rank, ids=np.arange(n_points),
                          weights=weights, alphas=alphas)


def random_metric_section(rng: np.random.Generator, mesh: QuadratureMesh,
                          spread: float = 1.0) -> MetricSection:
    logs = np.stack([random_hermitian(rng, mesh.rank, spread)
                     for _ in range(mesh.n_points)])
    return MetricSection(mesh, linalg.expm_hermitian(logs))


def random_tangent_section(rng: np.random.Generator, mesh: QuadratureMesh,
                           scale: float = 1.0) -> TangentSection:
    vals = np.stack([random_hermitian(rng, mesh.rank, scale)
                     for _ in range(mesh.n_points)])
    return TangentSection(mesh, vals)


def random_gauge(rng: np.random.Generator, mesh: QuadratureMesh,
                 scale: float = 1.0) -> GaugeTransform:
    r = mesh.rank
    vals = []
    for _ in range(mesh.n_points):
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        vals.append(np.eye(r) + scale * 0.5 * g / max(np.linalg.norm(g), 1e-12))
    return GaugeTransform(mesh, np.stack(vals))


def random_scalar_field(rng: np.random.Generator, mesh: QuadratureMesh,
                        scale: float = 1.0) -> ScalarField:
    return ScalarField(mesh, scale * rng.standard_normal(mesh.n_points))
