"""Seeded property sweeps.

Each suite returns a JSON-ready report with per-property worst-case
slack and a ``passed`` verdict; the CLI ``check`` subcommand and the
acceptance tests both run exactly these functions, so a CI failure is
self-describing down to the tolerance that tripped it.
"""

from __future__ import annotations

from operator import ge, gt, le

import numpy as np

from . import fiber, linalg, sampling, sections
from .completion import cat0_check, cat0_comparison_slack
from .oracle import distance_oracle


def _judge(rep: dict, table, **derived) -> dict:
    """Set ``tolerances`` and ``passed`` from (metric, comparator, bound)
    rows; a metric is a report key or a keyword of ``derived``."""
    values = {**rep, **derived}
    rep["tolerances"] = {metric: bound for metric, _, bound in table}
    rep["passed"] = all(bool(cmp(values[metric], bound))
                        for metric, cmp, bound in table)
    return rep


def run_invariants(seed: int = 42, samples: int = 100) -> dict:
    """Fiber and section invariants: positivity bound, symmetry/scaling of
    the distance, congruence and gauge invariance, geodesic affinity,
    exp/log roundtrip, curvature identities, nonpositive curvature."""
    rng = sampling.make_rng(seed)
    rep: dict = {"suite": "invariants", "seed": seed, "samples": samples}

    worst_jensen = np.inf
    worst_recip = 0.0
    worst_congr = 0.0
    worst_affine = 0.0
    worst_roundtrip = 0.0
    worst_bianchi = 0.0
    worst_antisym = 0.0
    worst_sec = -np.inf
    for _ in range(samples):
        r = int(rng.integers(2, 5))
        alpha = float(rng.uniform(-1.0 / r + 1e-3, 1.0))
        h = sampling.random_posdef(rng, r)
        v = sampling.random_hermitian(rng, r)

        # Jensen positivity bound
        hs = linalg.invsqrtm_posdef(h)
        tr = np.trace(hs @ v @ hs).real
        slack = fiber.alpha_inner(h, v, v, alpha) - (1.0 / r + alpha) * tr**2
        worst_jensen = min(worst_jensen, slack)

        # distance symmetry via reciprocal spectra, and scaling invariance
        p = sampling.random_posdef(rng, r)
        q = sampling.random_posdef(rng, r)
        s1 = linalg.relative_spectrum(p, q)
        s2 = linalg.relative_spectrum(q, p)
        worst_recip = max(worst_recip,
                          float(np.abs(s1 * s2[::-1] - 1.0).max()))
        c = float(rng.uniform(0.1, 10.0))
        worst_recip = max(worst_recip, float(np.abs(
            linalg.relative_spectrum(c * p, c * q) - s1).max() / s1.max()))

        # congruence invariance of the fiber distance
        phi = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        phi += 2.0 * np.eye(r)
        d0 = fiber.fiber_distance(p, q, alpha)
        d1 = fiber.fiber_distance(phi.conj().T @ p @ phi,
                                  phi.conj().T @ q @ phi, alpha)
        worst_congr = max(worst_congr, abs(d1 - d0) / max(d0, 1e-12))

        # geodesic affinity
        s, t = sorted(rng.uniform(0.0, 1.0, 2))
        vel = fiber.log_map(p, q)
        g = fiber.FiberGeodesic(p, vel)
        dst = fiber.fiber_distance(fiber.geodesic_eval(g, s),
                                   fiber.geodesic_eval(g, t), alpha)
        worst_affine = max(worst_affine,
                           abs(dst - (t - s) * d0) / max(d0, 1e-12))

        # exp/log roundtrip
        v10 = sampling.random_hermitian(rng, r, scale=4.0)
        end = fiber.geodesic_eval(fiber.FiberGeodesic(h, v10), 1.0)
        back = fiber.log_map(h, end)
        worst_roundtrip = max(worst_roundtrip,
                              float(np.linalg.norm(back - v10)
                                    / max(np.linalg.norm(v10), 1e-12)))

        # curvature identities
        u3 = sampling.random_hermitian(rng, r)
        v3 = sampling.random_hermitian(rng, r)
        w3 = sampling.random_hermitian(rng, r)
        r_uv = fiber.curvature_tensor(h, u3, v3, w3)
        r_vu = fiber.curvature_tensor(h, v3, u3, w3)
        worst_antisym = max(worst_antisym, float(np.linalg.norm(r_uv + r_vu)))
        bianchi = (fiber.curvature_tensor(h, u3, v3, w3)
                   + fiber.curvature_tensor(h, v3, w3, u3)
                   + fiber.curvature_tensor(h, w3, u3, v3))
        worst_bianchi = max(worst_bianchi, float(np.linalg.norm(bianchi)))

        # nonpositive sectional curvature
        uo, vo = sampling.random_orthonormal_pair(rng, h, alpha)
        worst_sec = max(worst_sec, fiber.sectional_curvature(h, uo, vo, alpha))

    # section-level: gauge invariance, theta bound, conformal identity
    worst_gauge = 0.0
    worst_theta = np.inf
    worst_conformal = 0.0
    for _ in range(max(10, samples // 5)):
        r = int(rng.integers(1, 4))
        mesh = sampling.random_mesh(rng, r, int(rng.integers(1, 8)))
        h = sampling.random_metric_section(rng, mesh)
        h2 = sampling.random_metric_section(rng, mesh)
        v = sampling.random_tangent_section(rng, mesh)
        w = sampling.random_tangent_section(rng, mesh)
        phi = sampling.random_gauge(rng, mesh)
        base = sections.l2_inner(h, v, w)
        moved = sections.l2_inner(sections.gauge_apply(phi, h),
                                  sections.gauge_apply(phi, v),
                                  sections.gauge_apply(phi, w))
        worst_gauge = max(worst_gauge, abs(moved - base) / (1.0 + abs(base)))
        d0 = sections.section_distance(h, h2)
        d1 = sections.section_distance(sections.gauge_apply(phi, h),
                                       sections.gauge_apply(phi, h2))
        worst_gauge = max(worst_gauge, abs(d1 - d0) / max(d0, 1e-12))
        worst_theta = min(worst_theta,
                          d0 - sections.theta_metric(h, h2) / np.sqrt(mesh.volume))

        cmesh = sampling.random_mesh(rng, r, int(rng.integers(1, 8)),
                                     alpha=float(rng.uniform(-1.0 / r + 1e-3, 1.0)))
        ch = sampling.random_metric_section(rng, cmesh)
        f = sampling.random_scalar_field(rng, cmesh)
        g2 = sampling.random_scalar_field(rng, cmesh)
        direct = sections.section_distance(sections.conformal_scale(ch, f),
                                           sections.conformal_scale(ch, g2))
        formula = sections.conformal_distance(ch, f, g2)
        worst_conformal = max(worst_conformal,
                              abs(direct - formula) / max(formula, 1e-12))

    rep.update({
        "jensen_min_slack": float(worst_jensen),
        "reciprocal_spectrum_max_err": float(worst_recip),
        "congruence_max_rel_err": float(worst_congr),
        "affinity_max_rel_err": float(worst_affine),
        "roundtrip_max_rel_err": float(worst_roundtrip),
        "curvature_antisym_max_resid": float(worst_antisym),
        "bianchi_max_resid": float(worst_bianchi),
        "sectional_max": float(worst_sec),
        "gauge_max_rel_err": float(worst_gauge),
        "theta_bound_min_slack": float(worst_theta),
        "conformal_max_rel_err": float(worst_conformal),
    })
    return _judge(rep, (
        ("jensen_min_slack", ge, -1e-10),
        ("reciprocal_spectrum_max_err", le, 1e-9),
        ("congruence_max_rel_err", le, 1e-9),
        ("affinity_max_rel_err", le, 1e-9),
        ("roundtrip_max_rel_err", le, 1e-8),
        ("curvature_antisym_max_resid", le, 1e-12),
        ("bianchi_max_resid", le, 1e-12),
        ("sectional_max", le, 1e-12),
        ("gauge_max_rel_err", le, 1e-9),
        ("theta_bound_min_slack", ge, -1e-10),
        ("conformal_max_rel_err", le, 1e-10),
    ))


def run_cat0(seed: int = 7, samples: int = 200) -> dict:
    """CN-inequality slack over random triangles plus flat (commuting
    diagonal) triangles where the slack must vanish."""
    rng = sampling.make_rng(seed)
    min_slack = np.inf
    for _ in range(samples):
        r = 2 if rng.uniform() < 0.5 else 3
        alpha = float(rng.choice([0.0, 1.0]))
        mesh = sampling.random_mesh(rng, r, int(rng.integers(1, 5)), alpha=alpha)
        p = sampling.random_metric_section(rng, mesh)
        q = sampling.random_metric_section(rng, mesh)
        w = sampling.random_metric_section(rng, mesh)
        min_slack = min(min_slack, cat0_check(p, q, w))
        s, t = rng.uniform(0.0, 1.0, 2)
        min_slack = min(min_slack, cat0_comparison_slack(p, q, w, s, t))

    worst_flat = 0.0
    for _ in range(max(1, samples // 10)):
        r = int(rng.integers(2, 4))
        mesh = sampling.random_mesh(rng, r, int(rng.integers(1, 4)),
                                    alpha=float(rng.uniform(-1.0 / r + 1e-3, 1.0)))
        def diag_section():
            vals = np.stack([np.diag(np.exp(rng.uniform(-1, 1, r))).astype(complex)
                             for _ in range(mesh.n_points)])
            return sections.MetricSection(mesh, vals)
        slack = cat0_check(diag_section(), diag_section(), diag_section())
        worst_flat = max(worst_flat, abs(slack))

    rep = {
        "suite": "cat0", "seed": seed, "samples": samples,
        "min_slack": float(min_slack),
        "flat_max_abs_slack": float(worst_flat),
    }
    return _judge(rep, (("min_slack", ge, -1e-10), ("flat_max_abs_slack", le, 1e-9)))


def run_oracle(seed: int = 1, samples: int = 10, segments: int = 64,
               iterations: int = 500) -> dict:
    """Closed-form fiber distance against the discrete path oracle."""
    rng = sampling.make_rng(seed)
    max_rel_gap = 0.0
    max_below = 0.0
    alphas = [0.0, 1.0, -0.4]
    for k in range(samples):
        alpha = alphas[k % len(alphas)]
        p = sampling.random_posdef(rng, 2, spread=1.2)
        q = sampling.random_posdef(rng, 2, spread=1.2)
        d = fiber.fiber_distance(p, q, alpha)
        o = distance_oracle(p, q, alpha, segments=segments,
                            iterations=iterations, seed=seed + k)
        max_rel_gap = max(max_rel_gap, abs(o - d) / max(d, 1e-12))
        max_below = max(max_below, d - o)
    rep = {
        "suite": "oracle", "seed": seed, "samples": samples,
        "segments": segments, "iterations": iterations,
        "max_rel_gap": float(max_rel_gap),
        "max_below": float(max_below),
    }
    return _judge(rep, (("max_rel_gap", le, 0.01), ("max_below", le, 1e-6)))


def run_appendix(seed: int = 3, samples: int = 100) -> dict:
    """Finite-difference invertibility of the exponential differential."""
    rng = sampling.make_rng(seed)
    min_sv = np.inf
    for _ in range(samples):
        r = int(rng.integers(2, 4))
        h = sampling.random_posdef(rng, r, spread=0.8)
        v = sampling.random_hermitian(rng, r, scale=3.0 / np.sqrt(r))
        min_sv = min(min_sv, fiber.exp_differential_min_singular(h, v))
    at_zero = fiber.exp_differential_min_singular(np.eye(2), np.zeros((2, 2)))
    rep = {
        "suite": "appendix", "seed": seed, "samples": samples,
        "min_singular_value": float(min_sv),
        "identity_value": float(at_zero),
    }
    # the differential at v = 0 is the identity, so its singular value is 1
    return _judge(rep, (("min_singular_value", gt, 1e-3), ("identity_dev", le, 1e-6)),
                  identity_dev=abs(at_zero - 1.0))


SUITES = {
    "invariants": run_invariants,
    "cat0": run_cat0,
    "oracle": run_oracle,
    "appendix": run_appendix,
}
