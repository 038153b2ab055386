"""Seeded property sweeps.

Each suite returns a JSON-ready report with per-property worst-case
slack and a ``passed`` verdict; the CLI ``check`` subcommand and the
acceptance tests both run exactly these functions, so a CI failure is
self-describing down to the tolerance that tripped it.

A suite first draws every sample in seed order, as its rank and plain
arrays (its random Hermitian matrices as ``sampling._gaussians`` draws);
then, per rank, it scales those draws, builds each stack, mesh and
section once and evaluates each property in one stacked call.  ``tests/test_suites.py``
keeps the per-sample loops as the reference these runs must reproduce.
"""

from __future__ import annotations

from operator import ge, gt, le

import numpy as np

from . import fiber, linalg, sampling, sections
from .completion import _cat0_slacks
from .errors import check_count
from .oracle import distance_oracle


def _judge(rep: dict, table, **derived) -> dict:
    """Set ``tolerances`` and ``passed`` from (metric, comparator, bound)
    rows; a metric is a report key or a keyword of ``derived``."""
    values = {**rep, **derived}
    rep["tolerances"] = {metric: bound for metric, _, bound in table}
    rep["passed"] = all(bool(cmp(values[metric], bound))
                        for metric, cmp, bound in table)
    return rep


def _rank_groups(draws):
    """Per-sample draws, (r, {name: value}) pairs, grouped by rank in
    ascending order: (r, {name: the group's values, in seed order})."""
    for r in sorted({r for r, _ in draws}):
        group = [fields for s, fields in draws if s == r]
        yield r, {name: [fields[name] for fields in group] for name in group[0]}


def _worst(found) -> dict:
    """The worst case of each field over ``found``, one dict of per-sample
    arrays per rank: a ``*_min_slack`` is a minimum, the rest are maxima."""
    values = {name: np.concatenate([w[name] for w in found]) for name in found[0]}
    return {name: float(v.min() if name.endswith("min_slack") else v.max())
            for name, v in values.items()}


def _joined_mesh(rank: int, g: dict):
    """A rank group's drawn meshes joined into one, and each point's sample."""
    segment = np.repeat(np.arange(len(g["weights"])), [len(w) for w in g["weights"]])
    return sections.QuadratureMesh(rank=rank, ids=np.arange(segment.size),
                                   weights=np.concatenate(g["weights"]),
                                   alphas=np.concatenate(g["alphas"])), segment


def _joined_hermitians(g: dict) -> np.ndarray:
    """A rank group's Hermitian stacks from its ``_gaussians`` draws,
    k stacks per sample (``x`` (k, n, 2, r, r), ``u`` (k, n)), joined
    along the point axis: (k, points, r, r)."""
    return sampling._hermitians(np.concatenate(g["x"], axis=1),
                                np.concatenate(g["u"], axis=1))


def _fiber_invariants(rng, samples: int) -> dict:
    """Worst case of each fiber property over ``samples`` points of ranks 2-4."""
    draws = []
    for _ in range(samples):
        r = int(rng.integers(2, 5))
        d = {"alpha": float(rng.uniform(-1.0 / r + 1e-3, 1.0))}
        # the draws of the log of h, of v, then of the logs of p and q:
        # made Hermitian and scaled per rank
        d["x4"], d["u4"] = sampling._gaussians(rng, r, 4)
        d["c"] = float(rng.uniform(0.1, 10.0))
        d["phi"] = sampling._complex_normal(rng, 1, (r, r))[0]
        d["st"] = rng.uniform(0.0, 1.0, 2)
        # v10 for the roundtrip, u3, v3, w3 for the curvature identities,
        # then the pair that spans the plane of the sectional curvature
        d["x6"], d["u6"] = sampling._gaussians(rng, r, 6)
        draws.append((r, d))

    found = []
    for r, g in _rank_groups(draws):
        g = {name: np.array(values) for name, values in g.items()}
        alpha = g["alpha"]
        logh, v, logp, logq = sampling._hermitians(g["x4"], g["u4"]).swapaxes(0, 1)
        h, p, q = (linalg.expm_hermitian(x) for x in (logh, logp, logq))
        v10, u3, v3, w3, uo, vo = sampling._hermitians(
            g["x6"], g["u6"], [4.0, 1.0, 1.0, 1.0, 1.0, 1.0]).swapaxes(0, 1)
        # the base stacks, factored once: every property below at h or
        # from p calls a kernel on these eigenpairs
        eig_h, eig_p = linalg._factor(h), linalg._factor(p)
        worst = {}

        # Jensen positivity bound
        vw, = linalg._whiten(eig_h, v)
        worst["jensen_min_slack"] = (fiber._inner(vw, vw, alpha)
                                     - (1.0 / r + alpha) * fiber._trace(vw)**2)

        # distance symmetry via reciprocal spectra, and scaling invariance
        s1 = linalg._relative_spectrum(eig_p, q)
        s2 = linalg._relative_spectrum(linalg._factor(q), p)
        c = g["c"][:, None, None]
        scaled = linalg.relative_spectrum(c * p, c * q)
        worst["reciprocal_spectrum_max_err"] = np.maximum(
            np.abs(s1 * s2[:, ::-1] - 1.0).max(axis=-1),
            np.abs(scaled - s1).max(axis=-1) / s1.max(axis=-1))

        # congruence invariance of the fiber distance
        phi = g["phi"] + 2.0 * np.eye(r)
        phi_h = np.conj(phi).swapaxes(-1, -2)
        d0 = fiber._distance(s1, alpha)
        d1 = fiber._distance(linalg.relative_spectrum(phi_h @ p @ phi, phi_h @ q @ phi), alpha)
        worst["congruence_max_rel_err"] = np.abs(d1 - d0) / np.maximum(d0, 1e-12)

        # geodesic affinity
        s, t = np.sort(g["st"], axis=-1).T
        frame = fiber._frame(eig_p, fiber._log_map(eig_p, q))
        dst = fiber._distance(linalg.relative_spectrum(fiber._geodesic(p, frame, s),
                                                       fiber._geodesic(p, frame, t)), alpha)
        worst["affinity_max_rel_err"] = (np.abs(dst - (t - s) * d0)
                                         / np.maximum(d0, 1e-12))

        # exp/log roundtrip
        end = fiber._geodesic(h, fiber._frame(eig_h, v10), 1.0)
        worst["roundtrip_max_rel_err"] = (linalg._norm(fiber._log_map(eig_h, end) - v10)
                                          / np.maximum(linalg._norm(v10), 1e-12))

        # curvature identities
        r_uv = fiber._curvature(eig_h, u3, v3, w3)
        r_vu = fiber._curvature(eig_h, v3, u3, w3)
        worst["curvature_antisym_max_resid"] = linalg._norm(r_uv + r_vu)
        worst["bianchi_max_resid"] = linalg._norm(r_uv + fiber._curvature(eig_h, v3, w3, u3)
                                                  + fiber._curvature(eig_h, w3, u3, v3))

        # nonpositive sectional curvature
        worst["sectional_max"] = fiber._sectional(eig_h, uo, vo, alpha)
        found.append(worst)
    return _worst(found)


def _section_invariants(rng, samples: int) -> dict:
    """Gauge invariance, theta bound and conformal identity on
    max(10, samples // 5) random meshes, joined into one mesh per rank."""
    draws = []
    for _ in range(max(10, samples // 5)):
        r, n = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        weights, alphas = sampling._mesh_fields(rng, r, n, None)
        # the draws of the logs of h and h2, then of v and w
        x, u = sampling._gaussians(rng, r, 4 * n)
        draws.append((r, {"weights": weights, "alphas": alphas,
                          "x": x.reshape(4, n, 2, r, r), "u": u.reshape(4, n),
                          "phi": sampling._near_identity(rng, n, r),
                          "fg": rng.standard_normal((2, n))}))
    found = []
    for r, g in _rank_groups(draws):
        mesh, segment = _joined_mesh(r, g)
        stacks = _joined_hermitians(g)
        h, h2 = (sections.MetricSection._derived(mesh, *linalg._expm_factored(x))
                 for x in stacks[:2])
        v, w = (sections.TangentSection._derived(mesh, x) for x in stacks[2:])
        f, g2 = (sections.ScalarField(mesh, x) for x in np.concatenate(g["fg"], axis=1))
        phi = sections.GaugeTransform(mesh, np.concatenate(g["phi"]))
        gh, gh2, gv, gw = (sections.gauge_apply(phi, x) for x in (h, h2, v, w))
        base = sections.l2_inner(h, v, w, segment=segment)
        moved = sections.l2_inner(gh, gv, gw, segment=segment)
        # the distance and theta from one set of fiber distances
        d = sections._fiber_distances(h, h2)[1]
        d0 = sections._root(sections._weighted_sum(mesh.weights, d**2, segment=segment))
        d1 = sections.section_distance(gh, gh2, segment=segment)
        theta = (sections._weighted_sum(mesh.weights, d, segment=segment)
                 / np.sqrt(sections._weighted_sum(mesh.weights, segment=segment)))
        direct = sections.section_distance(sections.conformal_scale(h, f),
                                           sections.conformal_scale(h, g2), segment=segment)
        formula = sections.conformal_distance(h, f, g2, segment=segment)
        found.append({
            "gauge_max_rel_err": np.maximum(np.abs(moved - base) / (1.0 + np.abs(base)),
                                            np.abs(d1 - d0) / np.maximum(d0, 1e-12)),
            "theta_bound_min_slack": d0 - theta,
            "conformal_max_rel_err": np.abs(direct - formula) / np.maximum(formula, 1e-12),
        })
    return _worst(found)


def run_invariants(seed: int = 42, samples: int = 100) -> dict:
    """Fiber and section invariants: positivity bound, symmetry/scaling of
    the distance, congruence and gauge invariance, geodesic affinity,
    exp/log roundtrip, curvature identities, nonpositive curvature."""
    samples = check_count(samples, "samples", 1)
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
    """Complex diagonal matrices with entries logs, of shape (..., r)."""
    return logs[..., None] * np.eye(logs.shape[-1], dtype=complex)


def _triangle_slacks(draws, logs):
    """Yield ``_cat0_slacks`` of the drawn triangles, one call per rank.

    A draw is a triangle's rank and fields: its mesh's weights and
    alphas, the draws from which ``logs`` makes the logs of a rank's three
    vertex stacks, and optionally its ``st``.  A rank's triangles share
    one mesh."""
    for rank, g in _rank_groups(draws):
        mesh, segment = _joined_mesh(rank, g)
        p, q, r = (sections.MetricSection._derived(mesh, *linalg._expm_factored(x))
                   for x in logs(g))
        st = np.array(g["st"]).T if "st" in g else ()
        yield _cat0_slacks(p, q, r, segment, *st)


def run_cat0(seed: int = 7, samples: int = 200) -> dict:
    """CN-inequality slack over random triangles plus flat (commuting
    diagonal) triangles where the slack must vanish."""
    samples = check_count(samples, "samples", 1)
    rng = sampling.make_rng(seed)
    draws = []
    for _ in range(samples):
        r = 2 if rng.uniform() < 0.5 else 3
        # rng.choice([0.0, 1.0]), without its per-call overhead
        alpha = (0.0, 1.0)[rng.integers(0, 2)]
        n = int(rng.integers(1, 5))
        weights, alphas = sampling._mesh_fields(rng, r, n, alpha)
        # the draws of the logs of p, q and r, one vertex after another
        x, u = sampling._gaussians(rng, r, 3 * n)
        draws.append((r, {"weights": weights, "alphas": alphas,
                          "x": x.reshape(3, n, 2, r, r), "u": u.reshape(3, n),
                          "st": rng.uniform(0.0, 1.0, 2)}))
    flat = []
    for _ in range(max(1, samples // 10)):
        r = int(rng.integers(2, 4))
        weights, alphas = sampling._mesh_fields(rng, r, int(rng.integers(1, 4)),
                                                float(rng.uniform(-1.0 / r + 1e-3, 1.0)))
        # log-eigenvalues of three commuting diagonal vertices
        flat.append((r, {"weights": weights, "alphas": alphas,
                         "logs": rng.uniform(-1, 1, (3, len(weights), r))}))

    slacks = [x for pair in _triangle_slacks(draws, _joined_hermitians) for x in pair]
    flat_slacks = [midpoint for midpoint, _ in _triangle_slacks(
        flat, lambda g: _diagonal(np.concatenate(g["logs"], axis=1)))]
    rep = {
        "suite": "cat0", "seed": seed, "samples": samples,
        "min_slack": float(min(x.min() for x in slacks)),
        "flat_max_abs_slack": float(max(np.abs(x).max() for x in flat_slacks)),
    }
    return _judge(rep, (("min_slack", ge, -1e-10), ("flat_max_abs_slack", le, 1e-9)))


# the oracle's resolution and descent budget, printed in its report
ORACLE_SEGMENTS = 64
ORACLE_ITERATIONS = 500


def run_oracle(seed: int = 1, samples: int = 10) -> dict:
    """Closed-form fiber distance against the discrete path oracle."""
    samples = check_count(samples, "samples", 1)
    rng = sampling.make_rng(seed)
    # the logs of each sample's p and q, in seed order
    p, q = linalg.expm_hermitian(sampling._hermitians(
        *sampling._gaussians(rng, 2, 2 * samples), 1.2).reshape(samples, 2, 2, 2)
    ).swapaxes(0, 1)
    alpha = np.array([0.0, 1.0, -0.4])[np.arange(samples) % 3]
    d = fiber.fiber_distance(p, q, alpha)
    o = distance_oracle(p, q, alpha, segments=ORACLE_SEGMENTS,
                        iterations=ORACLE_ITERATIONS,
                        seed=[seed + k for k in range(samples)])
    max_rel_gap = max(0.0, (np.abs(o - d) / np.maximum(d, 1e-12)).max())
    max_below = max(0.0, (d - o).max())
    rep = {
        "suite": "oracle", "seed": seed, "samples": samples,
        "segments": ORACLE_SEGMENTS, "iterations": ORACLE_ITERATIONS,
        "max_rel_gap": float(max_rel_gap),
        "max_below": float(max_below),
    }
    return _judge(rep, (("max_rel_gap", le, 0.01), ("max_below", le, 1e-6)))


def run_appendix(seed: int = 3, samples: int = 100) -> dict:
    """Finite-difference invertibility of the exponential differential."""
    samples = check_count(samples, "samples", 1)
    rng = sampling.make_rng(seed)
    draws = []
    for _ in range(samples):
        r = int(rng.integers(2, 4))
        # the draws of the log of h, then of v
        x, u = sampling._gaussians(rng, r, 2)
        draws.append((r, {"x": x, "u": u}))
    min_sv = np.inf
    for r, g in _rank_groups(draws):
        h, v = sampling._hermitians(np.array(g["x"]), np.array(g["u"]),
                                    [0.8, 3.0 / np.sqrt(r)]).swapaxes(0, 1)
        min_sv = min(min_sv, fiber.exp_differential_min_singular(
            linalg.expm_hermitian(h), v).min())
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
