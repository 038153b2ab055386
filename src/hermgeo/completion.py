"""Singular Hermitian metrics at quadrature scale.

The completion identifies metrics up to null sets, and a null set has
no quadrature weight: a singular metric is a ``MetricSection`` on a
mesh that leaves out its singular set (``disk.DiskMesh`` leaves out the
origin).  L2-integrability reports against a smooth reference,
Cauchy-sequence experiments that exhibit convergence to non-smooth
limits in the completion metric, and CAT(0) comparison-triangle checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, check_floats, reject
from .sections import (
    MetricSection,
    ScalarField,
    _relative_spectra,
    _weighted_sum,
    conformal_distance,
    conformal_scale,
    section_distance,
    section_geodesic,
)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Quadrature L2 norms of the log-eigenvalue functions of H = h0^{-1} h."""

    l2_log_lambda_min: float
    l2_log_lambda_max: float
    l2_log_det: float
    l2_distance: float
    is_l2: bool
    refinement_trend: float | None = None


def l2_report(logs: np.ndarray, weights: np.ndarray, alphas) -> IntegrabilityReport:
    """L2 norms of log lambda_min, log lambda_max, log det and the distance
    from ascending log-eigenvalues ``logs`` (n, r), weights and alphas.

    At a fixed quadrature every norm is finite, so ``is_l2`` is True
    here; divergence can only be witnessed by a refinement family (see
    ``refinement_trend``).
    """
    log_det_sq = logs.sum(axis=-1) ** 2

    def l2(f):
        return float(np.sqrt(_weighted_sum(weights, f)))

    return IntegrabilityReport(
        l2_log_lambda_min=l2(logs[:, 0] ** 2),
        l2_log_lambda_max=l2(logs[:, -1] ** 2),
        l2_log_det=l2(log_det_sq),
        l2_distance=l2((logs * logs).sum(axis=-1) + alphas * log_det_sq),
        is_l2=True,
    )


def integrability_report(sigma: MetricSection,
                         h0: MetricSection) -> IntegrabilityReport:
    """``l2_report`` of the relative endomorphism H = h0^{-1} sigma."""
    mesh, lam = _relative_spectra(h0, sigma)
    return l2_report(np.log(lam), mesh.weights, mesh.alphas)


def refinement_trend(norms, levels) -> float:
    """Fitted growth exponent of a norm against refinement level.

    Least-squares slope of log(norm) vs log(level); a sequence that
    stays bounded under refinement fits an exponent near zero, while a
    genuinely divergent L2 norm grows with the level.
    """
    norms, levels = check_floats(norms, "norms"), check_floats(levels, "levels")
    if norms.size != levels.size or np.unique(levels).size < 2:
        raise ParameterError("need matching norms/levels with at least 2 distinct levels")
    if not np.all(np.isfinite(norms) & np.isfinite(levels) & (norms > 0) & (levels > 0)):
        raise ParameterError("norms and levels must be positive and finite")
    slope = np.polyfit(np.log(levels), np.log(norms), 1)[0]
    return float(slope)


TREND_THRESHOLD = 0.05


def family_report(sigmas, h0s, levels) -> IntegrabilityReport:
    """Integrability verdict over a refinement family.

    The finest-level norms are reported; ``is_l2`` additionally demands
    that the fitted growth exponents of both extreme log-eigenvalue
    norms stay below ``TREND_THRESHOLD``.
    """
    reports = [integrability_report(s, h) for s, h in zip(sigmas, h0s)]
    trend = max(
        refinement_trend([r.l2_log_lambda_min for r in reports], levels)
        if all(r.l2_log_lambda_min > 0 for r in reports) else 0.0,
        refinement_trend([r.l2_log_lambda_max for r in reports], levels)
        if all(r.l2_log_lambda_max > 0 for r in reports) else 0.0,
    )
    return replace(reports[-1], is_l2=bool(trend < TREND_THRESHOLD),
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
    hs = [conformal_scale(h0, f) for f in f_sequence]
    h_lim = conformal_scale(h0, f_limit)
    steps = tuple(section_distance(a, b) for a, b in zip(hs, hs[1:]))
    sums = tuple(np.cumsum(steps).tolist())
    to_limit = tuple(section_distance(h, h_lim) for h in hs)
    formula = tuple(conformal_distance(h0, f, f_limit) for f in f_sequence)
    return CauchyReport(steps, sums, to_limit, formula)


def _cat0_slacks(p: MetricSection, q: MetricSection, r: MetricSection,
                 segment: np.ndarray, s=None, t=None):
    """The midpoint slack of each triangle (p, q, r), and its comparison
    slack at (s, t), one value each per triangle, when they are given.

    The sections live on one mesh that holds the triangles' points, one
    triangle after another; ``segment`` gives each point's triangle.
    Squares are taken by libm's pow, as Python floats square, so a
    triangle's slacks do not depend on the batch it is in.
    """
    def dist(x, y):
        return section_distance(x, y, segment=segment)

    def sq(x):
        return np.float_power(x, 2)

    a, b, c = dist(p, q), dist(p, r), dist(q, r)
    midpoint = (0.5 * sq(a) + 0.5 * sq(b) - 0.25 * sq(c)
                - sq(dist(p, section_geodesic(q, r, 0.5))))
    if s is None:
        return midpoint, None
    s, t = check_floats(s, "s"), check_floats(t, "t")
    reject(~((0.0 <= s) & (s <= 1.0) & (0.0 <= t) & (t <= 1.0)), ParameterError,
           lambda k: f"s={s[k]}, t={t[k]}: s and t must lie in [0, 1]")
    actual = dist(section_geodesic(p, q, s[segment]), section_geodesic(p, r, t[segment]))
    # a collapsed comparison triangle puts both comparison points on a segment
    collapsed = (a < 1e-12) | (b < 1e-12)
    cos_theta = np.clip((sq(a) + sq(b) - sq(c)) / np.where(collapsed, 1.0, 2 * a * b),
                        -1.0, 1.0)
    law = np.sqrt(np.maximum(
        sq(s * a) + sq(t * b) - 2 * s * t * a * b * cos_theta, 0.0))
    comparison = np.where(collapsed, np.abs(s * a - t * b), law)
    return midpoint, comparison - actual


def cat0_check(p: MetricSection, q: MetricSection, r: MetricSection) -> float:
    """CN-inequality slack at the midpoint of [q, r].

    slack = d(p,q)^2/2 + d(p,r)^2/2 - d(q,r)^2/4 - d(p,m)^2 with m the
    geodesic midpoint; nonnegative slack on every triangle is the CAT(0)
    comparison property in its midpoint form.  Degenerate triangles
    (two vertices closer than 1e-12) still produce a slack.
    """
    whole = np.zeros(p.mesh.n_points, dtype=int)
    return float(_cat0_slacks(p, q, r, whole)[0][0])


def cat0_comparison_slack(p: MetricSection, q: MetricSection, r: MetricSection,
                          s: float, t: float) -> float:
    """Two-parameter comparison slack.

    Compares d(gamma_pq(s), gamma_pr(t)) against the distance between
    the corresponding points of the planar comparison triangle built
    from the three side lengths by the law of cosines.  Nonnegative for
    a CAT(0) space.
    """
    whole = np.zeros(p.mesh.n_points, dtype=int)
    return float(_cat0_slacks(p, q, r, whole, [s], [t])[1][0])
