"""Seeded property sweeps.

Each suite returns a JSON-ready report with per-property worst-case
slack and a ``passed`` verdict; the CLI ``check`` subcommand and the
acceptance tests both run exactly these functions, so a CI failure is
self-describing down to the tolerance that tripped it.

A suite first draws every sample in seed order, as its rank and plain
arrays; then, per rank, it builds each stack, mesh and section once and
evaluates each property in one stacked call.  ``tests/test_suites.py``
keeps the per-sample loops as the reference these runs must reproduce.
"""

from __future__ import annotations

from operator import ge, gt, le

import numpy as np

from . import fiber, linalg, sampling, sections
from .completion import _cat0_slacks
from .errors import ParameterError
from .oracle import distance_oracle


def _judge(rep: dict, table, **derived) -> dict:
    """Set ``tolerances`` and ``passed`` from (metric, comparator, bound)
    rows; a metric is a report key or a keyword of ``derived``."""
    values = {**rep, **derived}
    rep["tolerances"] = {metric: bound for metric, _, bound in table}
    rep["passed"] = all(bool(cmp(values[metric], bound))
                        for metric, cmp, bound in table)
    return rep


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ParameterError(f"samples={samples}: need at least 1")


def _rank_groups(draws):
    """Per-sample draws, (r, {name: value}) pairs, grouped by rank in
    ascending order: (r, {name: the group's values, in seed order})."""
    for r in sorted({r for r, _ in draws}):
        group = [fields for s, fields in draws if s == r]
        yield r, {name: [fields[name] for fields in group] for name in group[0]}


def _fiber_invariants(rng, samples: int) -> dict:
    """Worst case of each fiber property over ``samples`` random points
    of ranks 2-4: a ``*_min_slack`` is a minimum, the rest are maxima."""
    draws = []
    for _ in range(samples):
        r = int(rng.integers(2, 5))
        d = {"alpha": float(rng.uniform(-1.0 / r + 1e-3, 1.0))}
        # logs of h, p and q: exponentiated after the draws
        d["h"], d["v"], d["p"], d["q"] = sampling.random_hermitians(rng, r, 4)
        d["c"] = float(rng.uniform(0.1, 10.0))
        d["phi"] = sampling._complex_normal(rng, 1, (r, r))[0]
        d["st"] = rng.uniform(0.0, 1.0, 2)
        # v10 for the roundtrip, u3, v3, w3 for the curvature identities,
        # then the pair that Gram-Schmidt makes orthonormal for the
        # sectional curvature
        d["v10"], d["u3"], d["v3"], d["w3"], d["uo"], d["vo"] = sampling.random_hermitians(
            rng, r, 6, [4.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        draws.append((r, d))

    found = []
    for r, g in _rank_groups(draws):
        g = {name: np.array(values) for name, values in g.items()}
        alpha = g["alpha"]
        h, p, q = (linalg.expm_hermitian(g[name]) for name in ("h", "p", "q"))
        v = g["v"]
        worst = {}

        # Jensen positivity bound
        hs = linalg.invsqrtm_posdef(h)
        tr = np.trace(hs @ v @ hs, axis1=-2, axis2=-1).real
        worst["jensen_min_slack"] = (fiber.alpha_inner(h, v, v, alpha)
                                     - (1.0 / r + alpha) * tr**2)

        # distance symmetry via reciprocal spectra, and scaling invariance
        s1 = linalg.relative_spectrum(p, q)
        s2 = linalg.relative_spectrum(q, p)
        c = g["c"][:, None, None]
        scaled = linalg.relative_spectrum(c * p, c * q)
        worst["reciprocal_spectrum_max_err"] = np.maximum(
            np.abs(s1 * s2[:, ::-1] - 1.0).max(axis=-1),
            np.abs(scaled - s1).max(axis=-1) / s1.max(axis=-1))

        # congruence invariance of the fiber distance
        phi = g["phi"] + 2.0 * np.eye(r)
        phi_h = np.conj(phi).swapaxes(-1, -2)
        d0 = fiber.fiber_distance(p, q, alpha)
        d1 = fiber.fiber_distance(phi_h @ p @ phi, phi_h @ q @ phi, alpha)
        worst["congruence_max_rel_err"] = np.abs(d1 - d0) / np.maximum(d0, 1e-12)

        # geodesic affinity
        s, t = np.sort(g["st"], axis=-1).T
        geo = fiber.FiberGeodesic(p, fiber.log_map(p, q))
        dst = fiber.fiber_distance(fiber.geodesic_eval(geo, s),
                                   fiber.geodesic_eval(geo, t), alpha)
        worst["affinity_max_rel_err"] = (np.abs(dst - (t - s) * d0)
                                         / np.maximum(d0, 1e-12))

        # exp/log roundtrip
        v10 = g["v10"]
        end = fiber.geodesic_eval(fiber.FiberGeodesic(h, v10), 1.0)
        worst["roundtrip_max_rel_err"] = (linalg._norm(fiber.log_map(h, end) - v10)
                                          / np.maximum(linalg._norm(v10), 1e-12))

        # curvature identities
        u3, v3, w3 = g["u3"], g["v3"], g["w3"]
        r_uv = fiber.curvature_tensor(h, u3, v3, w3)
        r_vu = fiber.curvature_tensor(h, v3, u3, w3)
        worst["curvature_antisym_max_resid"] = linalg._norm(r_uv + r_vu)
        worst["bianchi_max_resid"] = linalg._norm(r_uv + fiber.curvature_tensor(h, v3, w3, u3)
                                                  + fiber.curvature_tensor(h, w3, u3, v3))

        # nonpositive sectional curvature
        uo, vo = fiber._gram_schmidt_pair(h, g["uo"], g["vo"], alpha)
        worst["sectional_max"] = fiber.sectional_curvature(h, uo, vo, alpha)
        found.append(worst)

    values = {name: np.concatenate([w[name] for w in found]) for name in found[0]}
    return {name: float(v.min() if name.endswith("min_slack") else v.max())
            for name, v in values.items()}


def _section_invariants(rng, samples: int) -> dict:
    """Gauge invariance, theta bound and conformal identity, one sample at
    a time, on one random mesh (with varying alpha) per sample."""
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

        f = sampling.random_scalar_field(rng, mesh)
        g2 = sampling.random_scalar_field(rng, mesh)
        direct = sections.section_distance(sections.conformal_scale(h, f),
                                           sections.conformal_scale(h, g2))
        formula = sections.conformal_distance(h, f, g2)
        worst_conformal = max(worst_conformal,
                              abs(direct - formula) / max(formula, 1e-12))
    return {
        "gauge_max_rel_err": float(worst_gauge),
        "theta_bound_min_slack": float(worst_theta),
        "conformal_max_rel_err": float(worst_conformal),
    }


def run_invariants(seed: int = 42, samples: int = 100) -> dict:
    """Fiber and section invariants: positivity bound, symmetry/scaling of
    the distance, congruence and gauge invariance, geodesic affinity,
    exp/log roundtrip, curvature identities, nonpositive curvature."""
    _require_samples(samples)
    rng = sampling.make_rng(seed)
    rep: dict = {"suite": "invariants", "seed": seed, "samples": samples}
    rep.update(_fiber_invariants(rng, samples))
    rep.update(_section_invariants(rng, samples))
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


def _diagonal(logs: np.ndarray) -> np.ndarray:
    """Diagonal matrices with entries exp(logs), logs of shape (..., r)."""
    r = logs.shape[-1]
    out = np.zeros(logs.shape + (r,), dtype=complex)
    out[..., np.arange(r), np.arange(r)] = np.exp(logs)
    return out


def _triangle_slacks(draws, values):
    """Yield ``_cat0_slacks`` of the drawn triangles, one call per rank.

    A draw is a triangle's rank and fields: its mesh's weights and
    alphas, its three vertices' stacks, from which ``values`` makes the
    matrices, and optionally its ``st``.  The triangles of a rank share
    one mesh that holds their points one triangle after another."""
    for rank, g in _rank_groups(draws):
        segment = np.repeat(np.arange(len(g["weights"])), [len(w) for w in g["weights"]])
        mesh = sections.QuadratureMesh(rank=rank, ids=np.arange(segment.size),
                                       weights=np.concatenate(g["weights"]),
                                       alphas=np.concatenate(g["alphas"]))
        p, q, r = (sections.MetricSection(mesh, values(v))
                   for v in np.concatenate(g["vertices"], axis=1))
        st = np.array(g["st"]).T if "st" in g else ()
        yield _cat0_slacks(p, q, r, segment, *st)


def run_cat0(seed: int = 7, samples: int = 200) -> dict:
    """CN-inequality slack over random triangles plus flat (commuting
    diagonal) triangles where the slack must vanish."""
    _require_samples(samples)
    rng = sampling.make_rng(seed)
    draws = []
    for _ in range(samples):
        r = 2 if rng.uniform() < 0.5 else 3
        alpha = float(rng.choice([0.0, 1.0]))
        weights, alphas = sampling._mesh_fields(rng, r, int(rng.integers(1, 5)), alpha)
        # the logs of p, q and r, one vertex after another
        logs = sampling.random_hermitians(rng, r, 3 * len(weights))
        draws.append((r, {"weights": weights, "alphas": alphas,
                          "vertices": logs.reshape(3, -1, r, r),
                          "st": rng.uniform(0.0, 1.0, 2)}))
    flat = []
    for _ in range(max(1, samples // 10)):
        r = int(rng.integers(2, 4))
        weights, alphas = sampling._mesh_fields(rng, r, int(rng.integers(1, 4)),
                                                float(rng.uniform(-1.0 / r + 1e-3, 1.0)))
        # log-eigenvalues of three commuting diagonal vertices
        flat.append((r, {"weights": weights, "alphas": alphas,
                         "vertices": rng.uniform(-1, 1, (3, len(weights), r))}))

    slacks = [x for pair in _triangle_slacks(draws, linalg.expm_hermitian) for x in pair]
    flat_slacks = [midpoint for midpoint, _ in _triangle_slacks(flat, _diagonal)]
    rep = {
        "suite": "cat0", "seed": seed, "samples": samples,
        "min_slack": float(min(x.min() for x in slacks)),
        "flat_max_abs_slack": float(max(np.abs(x).max() for x in flat_slacks)),
    }
    return _judge(rep, (("min_slack", ge, -1e-10), ("flat_max_abs_slack", le, 1e-9)))


def run_oracle(seed: int = 1, samples: int = 10, segments: int = 64,
               iterations: int = 500) -> dict:
    """Closed-form fiber distance against the discrete path oracle."""
    _require_samples(samples)
    rng = sampling.make_rng(seed)
    # the logs of each sample's p and q, in seed order
    p, q = linalg.expm_hermitian(
        sampling.random_hermitians(rng, 2, 2 * samples, 1.2).reshape(samples, 2, 2, 2)
    ).swapaxes(0, 1)
    alpha = np.array([0.0, 1.0, -0.4])[np.arange(samples) % 3]
    d = fiber.fiber_distance(p, q, alpha)
    o = distance_oracle(p, q, alpha, segments=segments, iterations=iterations,
                        seed=[seed + k for k in range(samples)])
    max_rel_gap = max(0.0, (np.abs(o - d) / np.maximum(d, 1e-12)).max())
    max_below = max(0.0, (d - o).max())
    rep = {
        "suite": "oracle", "seed": seed, "samples": samples,
        "segments": segments, "iterations": iterations,
        "max_rel_gap": float(max_rel_gap),
        "max_below": float(max_below),
    }
    return _judge(rep, (("max_rel_gap", le, 0.01), ("max_below", le, 1e-6)))


def run_appendix(seed: int = 3, samples: int = 100) -> dict:
    """Finite-difference invertibility of the exponential differential."""
    _require_samples(samples)
    rng = sampling.make_rng(seed)
    draws = []
    for _ in range(samples):
        r = int(rng.integers(2, 4))
        # the log of h, exponentiated after the draws, then v
        h, v = sampling.random_hermitians(rng, r, 2, [0.8, 3.0 / np.sqrt(r)])
        draws.append((r, {"h": h, "v": v}))
    min_sv = min(fiber.exp_differential_min_singular(
        linalg.expm_hermitian(g["h"]), np.array(g["v"])).min()
        for _, g in _rank_groups(draws))
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
