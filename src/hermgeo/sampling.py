"""Seeded random generators for property sweeps and tests.

All randomness flows from one seed through a counter-based Philox
generator, so sweeps reproduce bit-identically across platforms.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import check_count, check_floats
from .fiber import _gram_schmidt_pair
from .sections import (
    GaugeTransform,
    MetricSection,
    QuadratureMesh,
    ScalarField,
    TangentSection,
)


def make_rng(seed) -> np.random.Generator:
    """The Philox generator of a seed that ``check_count`` admits (>= 0)."""
    return np.random.Generator(np.random.Philox(check_count(seed, "seed", 0)))


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
    scale * sqrt(r) * U(0.2, 1), scale a float or one per draw: the
    draws of ``_gaussians``, scaled by ``_hermitians``."""
    return _hermitians(*_gaussians(rng, r, n), scale)


def _gaussians(rng: np.random.Generator, r: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of n ``random_hermitians`` matrices, one after another:
    x[k], the real and then the imaginary part of an r x r Gaussian, in
    one fill, and u[k], the norm's U(0.2, 1) factor, which a matrix whose
    Hermitian part has zero norm skips (u[k] stays 0)."""
    x = np.empty((n, 2, r, r))
    u = np.zeros(n)
    for k, block in enumerate(x):
        rng.standard_normal(out=block)
        # the Hermitian part's (0, 0) entry is the real part's: unless that
        # is tiny, its square alone keeps the part's norm above zero
        if abs(block[0, 0, 0]) > 1e-100 or np.linalg.norm(
                linalg.hermitian_part(block[0] + 1j * block[1])):
            # rng.uniform(0.2, 1.0), without its per-call overhead
            u[k] = 0.2 + (1.0 - 0.2) * rng.random()
    return x, u


def _hermitians(x: np.ndarray, u: np.ndarray, scale=1.0) -> np.ndarray:
    """The Hermitian matrices of ``_gaussians`` draws x (..., 2, r, r) and
    u (...): each Hermitian part scaled to Frobenius norm
    scale * sqrt(r) * u, scale broadcast against u; a part of zero norm
    is returned unscaled."""
    a = linalg.hermitian_part(x[..., 0, :, :] + 1j * x[..., 1, :, :])
    norm = linalg._norm(a)
    nonzero = norm != 0
    factor = (check_floats(scale, "scale") * u / np.where(nonzero, norm, 1.0)
              * np.sqrt(x.shape[-1]))
    a *= np.where(nonzero, factor, 1.0)[..., None, None]
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


def _near_identity(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    """n r x r gauge matrices: the identity plus noise of norm 1/2."""
    g = _complex_normal(rng, n, (r, r))
    return np.eye(r) + 0.5 * g / np.maximum(linalg._norm(g), 1e-12)[:, None, None]


def random_gauge(rng: np.random.Generator, mesh: QuadratureMesh) -> GaugeTransform:
    return GaugeTransform(mesh, _near_identity(rng, mesh.n_points, mesh.rank))


def random_scalar_field(rng: np.random.Generator, mesh: QuadratureMesh) -> ScalarField:
    return ScalarField(mesh, rng.standard_normal(mesh.n_points))
