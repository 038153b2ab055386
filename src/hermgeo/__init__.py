"""Numerical engine for the geometry of positive-definite Hermitian
metrics: closed-form fiber geodesics, distances and curvature; weighted
L2 section spaces over quadrature meshes; CAT(0) and completion
experiments; integrability of singular metrics on the unit disk."""

from .fiber import (
    FiberGeodesic,
    alpha_inner,
    curvature_tensor,
    fiber_distance,
    geodesic_eval,
    log_map,
    sectional_curvature,
    spray,
)
from .linalg import (
    eig_hermitian,
    expm_hermitian,
    hermitian,
    logm_posdef,
    posdef,
    relative_spectrum,
    sqrtm_posdef,
)
from .oracle import distance_oracle
from .sections import (
    GaugeTransform,
    MetricSection,
    QuadratureMesh,
    ScalarField,
    TangentSection,
    conformal_distance,
    conformal_scale,
    flat_distance,
    gauge_apply,
    l2_inner,
    section_distance,
    section_geodesic,
    theta_metric,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
