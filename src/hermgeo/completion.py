"""Singular Hermitian metrics at quadrature scale.

L2-integrability reports against a smooth reference, Cauchy-sequence
experiments that exhibit convergence to non-smooth limits in the
completion metric, and CAT(0) comparison-triangle checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import MeasureInconsistencyError, reject
from .sections import (
    MetricSection,
    QuadratureMesh,
    ScalarField,
    _same_mesh,
    conformal_distance,
    conformal_scale,
    section_distance,
    section_geodesic,
)

DEGENERATE = None  # marker value for nullset points


@dataclass(frozen=True)
class SingularSection:
    """Metric section that may degenerate on a weight-zero nullset.

    ``values`` stacks one positive-definite matrix per point, with the
    identity as a placeholder where the mask ``degenerate`` is set: at
    the ``None`` entries of a sequence passed in place of a stack.
    Almost-everywhere equivalence
    collapses, at quadrature scale, to equality on positive-weight
    points; degenerate markers are only admissible where the weight is
    excluded from the modeled measure.
    """

    mesh: QuadratureMesh
    values: np.ndarray
    degenerate: np.ndarray = field(init=False)

    def __post_init__(self):
        vals = self.values
        mask = np.zeros(self.mesh.n_points, dtype=bool)
        if not isinstance(vals, np.ndarray):
            mask = np.array([v is DEGENERATE for v in vals], dtype=bool)
            vals = [np.eye(self.mesh.rank) if m else v for v, m in zip(vals, mask)]
        object.__setattr__(self, "values", MetricSection(self.mesh, vals).values)
        object.__setattr__(self, "degenerate", mask)

    @property
    def degenerate_ids(self):
        return self.mesh.ids[self.degenerate].tolist()

    def check_nullset(self) -> None:
        ids, weights = self.mesh.ids, self.mesh.weights
        reject(self.degenerate & (weights > 0), MeasureInconsistencyError,
               lambda k: f"degenerate point id {ids[k]} has positive weight {weights[k]}")


def singular_from_metric(h: MetricSection) -> SingularSection:
    return SingularSection(h.mesh, h.values)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Quadrature L2 norms of the log-eigenvalue functions of H = h0^{-1} h."""

    l2_log_lambda_min: float
    l2_log_lambda_max: float
    l2_log_det: float
    l2_distance: float
    is_l2: bool
    refinement_trend: float | None = None


def kept_spectrum(sigma: SingularSection, h0: MetricSection) -> np.ndarray:
    """Relative spectrum of h0^{-1} sigma at the points off the nullset,
    after checking that both share a mesh and the nullset has no weight."""
    _same_mesh(sigma, h0)
    sigma.check_nullset()
    keep = ~sigma.degenerate
    return linalg._relative_spectrum(h0.values[keep], sigma.values[keep])


def l2_report(logs: np.ndarray, weights: np.ndarray, alphas) -> IntegrabilityReport:
    """L2 norms of log lambda_min, log lambda_max, log det and the distance
    from ascending log-eigenvalues ``logs`` (n, r), weights and alphas.

    At a fixed quadrature every norm is finite, so ``is_l2`` is True
    here; divergence can only be witnessed by a refinement family (see
    ``refinement_trend``).
    """
    log_det_sq = logs.sum(axis=-1) ** 2

    def l2(f):
        return float(np.sqrt((weights * f).sum()))

    return IntegrabilityReport(
        l2_log_lambda_min=l2(logs[:, 0] ** 2),
        l2_log_lambda_max=l2(logs[:, -1] ** 2),
        l2_log_det=l2(log_det_sq),
        l2_distance=l2((logs * logs).sum(axis=-1) + alphas * log_det_sq),
        is_l2=True,
    )


def integrability_report(sigma: SingularSection,
                         h0: MetricSection) -> IntegrabilityReport:
    """``l2_report`` of the relative endomorphism H = h0^{-1} sigma."""
    keep = ~sigma.degenerate
    return l2_report(np.log(kept_spectrum(sigma, h0)),
                     sigma.mesh.weights[keep], sigma.mesh.alphas[keep])


def refinement_trend(norms, levels) -> float:
    """Fitted growth exponent of a norm against refinement level.

    Least-squares slope of log(norm) vs log(level); a sequence that
    stays bounded under refinement fits an exponent near zero, while a
    genuinely divergent L2 norm grows with the level.
    """
    norms = np.asarray(norms, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if norms.size != levels.size or norms.size < 2:
        raise ValueError("need matching norms/levels with at least 2 entries")
    if np.any(norms <= 0) or np.any(levels <= 0):
        raise ValueError("norms and levels must be positive")
    slope = np.polyfit(np.log(levels), np.log(norms), 1)[0]
    return float(slope)


def family_report(sigmas, h0s, levels,
                  trend_threshold: float = 0.05) -> IntegrabilityReport:
    """Integrability verdict over a refinement family.

    The finest-level norms are reported; ``is_l2`` additionally demands
    that the fitted growth exponents of both extreme log-eigenvalue
    norms stay below ``trend_threshold``.
    """
    reports = [integrability_report(s, h) for s, h in zip(sigmas, h0s)]
    trend = max(
        refinement_trend([r.l2_log_lambda_min for r in reports], levels)
        if all(r.l2_log_lambda_min > 0 for r in reports) else 0.0,
        refinement_trend([r.l2_log_lambda_max for r in reports], levels)
        if all(r.l2_log_lambda_max > 0 for r in reports) else 0.0,
    )
    return replace(reports[-1], is_l2=bool(trend < trend_threshold),
                   refinement_trend=trend)


@dataclass(frozen=True)
class CauchyReport:
    """Distances along a conformal approximating sequence."""

    step_distances: tuple
    partial_sums: tuple
    to_limit: tuple
    to_limit_formula: tuple


def cauchy_experiment(h0: MetricSection, f_sequence, f_limit: ScalarField
                      ) -> CauchyReport:
    """Track the sequence h_k = e^{f_k} h0 toward h = e^{f_limit} h0.

    Reports consecutive distances d(h_k, h_{k+1}), their partial sums
    (summability is the completion hypothesis), and the distances to the
    limit both measured directly and via the conformal closed form.
    """
    h0.mesh.constant_alpha()
    hs = [conformal_scale(h0, f) for f in f_sequence]
    h_lim = conformal_scale(h0, f_limit)
    steps = tuple(section_distance(a, b) for a, b in zip(hs, hs[1:]))
    sums = tuple(np.cumsum(steps).tolist())
    to_limit = tuple(section_distance(h, h_lim) for h in hs)
    formula = tuple(conformal_distance(h0, f, f_limit) for f in f_sequence)
    return CauchyReport(steps, sums, to_limit, formula)


def cat0_check(p: MetricSection, q: MetricSection, r: MetricSection) -> float:
    """CN-inequality slack at the midpoint of [q, r].

    slack = d(p,q)^2/2 + d(p,r)^2/2 - d(q,r)^2/4 - d(p,m)^2 with m the
    geodesic midpoint; nonnegative slack on every triangle is the CAT(0)
    comparison property in its midpoint form.  Degenerate triangles
    (two vertices closer than 1e-12) still produce a slack.
    """
    m = section_geodesic(q, r, 0.5)
    dpq = section_distance(p, q)
    dpr = section_distance(p, r)
    dqr = section_distance(q, r)
    dpm = section_distance(p, m)
    return 0.5 * dpq**2 + 0.5 * dpr**2 - 0.25 * dqr**2 - dpm**2


def cat0_comparison_slack(p: MetricSection, q: MetricSection, r: MetricSection,
                          s: float, t: float) -> float:
    """Two-parameter comparison slack.

    Compares d(gamma_pq(s), gamma_pr(t)) against the distance between
    the corresponding points of the planar comparison triangle built
    from the three side lengths by the law of cosines.  Nonnegative for
    a CAT(0) space.
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError("s and t must lie in [0, 1]")
    a = section_distance(p, q)
    b = section_distance(p, r)
    c = section_distance(q, r)
    xs = section_geodesic(p, q, s)
    xt = section_geodesic(p, r, t)
    actual = section_distance(xs, xt)
    if a < 1e-12 or b < 1e-12:
        # collapsed comparison triangle: both comparison points sit on a segment
        comparison = abs(s * a - t * b)
    else:
        cos_theta = np.clip((a**2 + b**2 - c**2) / (2 * a * b), -1.0, 1.0)
        comparison = np.sqrt(max(
            (s * a) ** 2 + (t * b) ** 2 - 2 * s * t * a * b * cos_theta, 0.0))
    return float(comparison - actual)
