"""The batched check suites against their per-sample reference loops.

A suite draws every sample in seed order, then evaluates each property
in one stacked call per rank.  The loops below are the per-sample form
of the same sweeps: one sample drawn and evaluated at a time through the
single-matrix API.  They are the declared test-side reference: every
report field must match them, at the default seeds, at a bench seed and
at seeds whose verdict is a failure.  A cost model pins each suite's
eigensolves and mesh constructions, which must not grow with the number
of samples.
"""

import numpy as np
import pytest

from hermgeo import fiber, linalg, sampling, sections, suites
from hermgeo.completion import _cat0_slacks, cat0_check, cat0_comparison_slack
from hermgeo.errors import ParameterError
from hermgeo.sections import MetricSection, QuadratureMesh, ScalarField, TangentSection


def reference_invariants(seed, samples):
    rng = sampling.make_rng(seed)
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

        hs = linalg.invsqrtm_posdef(h)
        tr = np.trace(hs @ v @ hs).real
        slack = fiber.alpha_inner(h, v, v, alpha) - (1.0 / r + alpha) * tr**2
        worst_jensen = min(worst_jensen, slack)

        p = sampling.random_posdef(rng, r)
        q = sampling.random_posdef(rng, r)
        s1 = linalg.relative_spectrum(p, q)
        s2 = linalg.relative_spectrum(q, p)
        worst_recip = max(worst_recip,
                          float(np.abs(s1 * s2[::-1] - 1.0).max()))
        c = float(rng.uniform(0.1, 10.0))
        worst_recip = max(worst_recip, float(np.abs(
            linalg.relative_spectrum(c * p, c * q) - s1).max() / s1.max()))

        phi = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        phi += 2.0 * np.eye(r)
        d0 = fiber.fiber_distance(p, q, alpha)
        d1 = fiber.fiber_distance(phi.conj().T @ p @ phi,
                                  phi.conj().T @ q @ phi, alpha)
        worst_congr = max(worst_congr, abs(d1 - d0) / max(d0, 1e-12))

        s, t = sorted(rng.uniform(0.0, 1.0, 2))
        vel = fiber.log_map(p, q)
        g = fiber.FiberGeodesic(p, vel)
        dst = fiber.fiber_distance(fiber.geodesic_eval(g, s),
                                   fiber.geodesic_eval(g, t), alpha)
        worst_affine = max(worst_affine,
                           abs(dst - (t - s) * d0) / max(d0, 1e-12))

        v10 = sampling.random_hermitian(rng, r, scale=4.0)
        end = fiber.geodesic_eval(fiber.FiberGeodesic(h, v10), 1.0)
        back = fiber.log_map(h, end)
        worst_roundtrip = max(worst_roundtrip,
                              float(np.linalg.norm(back - v10)
                                    / max(np.linalg.norm(v10), 1e-12)))

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

        uo, vo = sampling.random_orthonormal_pair(rng, h, alpha)
        worst_sec = max(worst_sec, fiber.sectional_curvature(h, uo, vo, alpha))

    return {
        "suite": "invariants", "seed": seed, "samples": samples,
        "jensen_min_slack": float(worst_jensen),
        "reciprocal_spectrum_max_err": float(worst_recip),
        "congruence_max_rel_err": float(worst_congr),
        "affinity_max_rel_err": float(worst_affine),
        "roundtrip_max_rel_err": float(worst_roundtrip),
        "curvature_antisym_max_resid": float(worst_antisym),
        "bianchi_max_resid": float(worst_bianchi),
        "sectional_max": float(worst_sec),
        # the section block draws after the fiber block
        **reference_section_invariants(rng, samples),
    }


def reference_section_invariants(rng, samples):
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


def reference_cat0(seed, samples):
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
            return MetricSection(mesh, vals)
        slack = cat0_check(diag_section(), diag_section(), diag_section())
        worst_flat = max(worst_flat, abs(slack))

    return {"suite": "cat0", "seed": seed, "samples": samples,
            "min_slack": float(min_slack), "flat_max_abs_slack": float(worst_flat)}


def reference_appendix(seed, samples):
    rng = sampling.make_rng(seed)
    min_sv = np.inf
    for _ in range(samples):
        r = int(rng.integers(2, 4))
        h = sampling.random_posdef(rng, r, spread=0.8)
        v = sampling.random_hermitian(rng, r, scale=3.0 / np.sqrt(r))
        min_sv = min(min_sv, fiber.exp_differential_min_singular(h, v))
    at_zero = fiber.exp_differential_min_singular(np.eye(2), np.zeros((2, 2)))
    return {"suite": "appendix", "seed": seed, "samples": samples,
            "min_singular_value": float(min_sv), "identity_value": float(at_zero)}


REFERENCES = {"invariants": reference_invariants, "cat0": reference_cat0,
              "appendix": reference_appendix}


def _close(got, want):
    if got == want:
        return True
    if isinstance(want, float) and abs(want) < 1e-12:
        return abs(got - want) <= 1e-15
    return isinstance(want, float) and abs(got - want) <= 1e-12 * abs(want)


# (suite, seed, samples, verdict): the run_* defaults, seed 5, the cat0
# seed the bench draws from its seed 1, and two seeds whose verdict fails
EQUIVALENCE_CASES = [
    ("invariants", 42, 100, True),
    ("invariants", 5, 100, True),
    ("invariants", 1295943086, 60, False),
    ("cat0", 7, 200, True),
    ("cat0", 5, 100, True),
    ("cat0", 1016164991, 240, True),
    ("appendix", 3, 100, True),
    ("appendix", 5, 100, False),
    ("appendix", 844783130, 60, False),
]


@pytest.mark.parametrize("suite,seed,samples,verdict", EQUIVALENCE_CASES)
def test_suite_matches_per_sample_reference(suite, seed, samples, verdict):
    rep = suites.SUITES[suite](seed=seed, samples=samples)
    want = REFERENCES[suite](seed, samples)
    assert rep["passed"] is verdict
    assert set(rep) == set(want) | {"tolerances", "passed"}
    for key, value in want.items():
        assert _close(rep[key], value), (key, rep[key], value)


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
@pytest.mark.parametrize("samples", [0, -3])
def test_sample_count_must_be_positive(suite, samples):
    with pytest.raises(ParameterError, match=r"^samples=-?\d+: need an integer of at least 1$"):
        suites.SUITES[suite](seed=1, samples=samples)


# per suite: a seed, three sample counts at which every rank the suite
# draws occurs, and the eigensolves and mesh constructions of one run,
# the same at each count: one stacked evaluation per rank.  The oracle
# descends at most 3 samples here, to keep the run short
COST_CASES = {
    # fiber block, per rank 2-4: exp of h, p and q, h's inverse root, the
    # Jensen inner product, 2 for each of 3 relative spectra and 2
    # distances, 4 for the affinity geodesic and 2 for its distance, 4
    # for the roundtrip, 1 for each of 4 curvature tensors, the
    # Gram-Schmidt pair and the sectional curvature: 31.  Section block,
    # per rank 1-3, on one joined mesh each: exp of h and h2, the roots
    # that validate them and the gauge-moved h and h2 (which the two
    # l2_inner bases reuse), 1 for each of 3 distances and theta, and the
    # roots of the two conformal scalings: 12.  Its 3 joined meshes are
    # the suite's only ones
    "invariants": (42, (30, 60, 240), (3 * 31 + 3 * 12, 3)),
    # per rank: random triangles 3 vertices x (exp + roots), 5 distances
    # x 1 and 3 geodesic points x 2 (endpoint frame, roots of the point)
    # make 17; flat ones 3 roots, 4 distances x 1 and the midpoint's 2
    # make 9.  Each rank's random and flat triangles share one mesh each
    "cat0": (7, (40, 120, 240), (2 * (17 + 9), 4)),
    # rank 2: exp of the p and q stack, their relative spectra and the
    # oracle's straight-line start, clamped to the cone; the oracle checks
    # p and q by Cholesky
    "oracle": (1, (1, 2, 3), (4, 0)),
    # per rank: exp of h, its roots, which also decide its positivity,
    # and one frame of both ends of the central differences; then 2 at
    # v = 0
    "appendix": (3, (40, 120, 240), (2 * 3 + 2, 0)),
}


def test_suite_cost_model(counts):
    for suite, run in suites.SUITES.items():
        seed, sizes, want = COST_CASES[suite]
        for n in sizes:
            counts.clear()
            run(seed=seed, samples=n)
            assert (counts["eig"], counts["mesh"]) == want, (suite, n)


def _triangles(rng, sizes, rank=2):
    """Random triangles on meshes of the given sizes, the same triangles on
    one mesh that holds their points one triangle after another, and each
    point's triangle."""
    meshes = [sampling.random_mesh(rng, rank, n) for n in sizes]
    vertices = [[sampling.random_metric_section(rng, m) for _ in range(3)] for m in meshes]
    mesh = QuadratureMesh(rank=rank, ids=np.arange(sum(sizes)),
                          weights=np.concatenate([m.weights for m in meshes]),
                          alphas=np.concatenate([m.alphas for m in meshes]))
    joined = [MetricSection(mesh, np.concatenate([v[i].values for v in vertices]))
              for i in range(3)]
    return vertices, joined, np.repeat(np.arange(len(sizes)), sizes)


def test_cat0_kernel_matches_one_triangle_wrappers():
    rng = sampling.make_rng(11)
    vertices, (p, q, r), segment = _triangles(rng, [1, 4, 2, 7, 3])
    s, t = rng.uniform(0.0, 1.0, (2, 5))
    midpoint, comparison = _cat0_slacks(p, q, r, segment, s, t)
    # segments below 8 points sum as section_distance does: bitwise equal
    assert midpoint.tolist() == [cat0_check(*v) for v in vertices]
    assert comparison.tolist() == [cat0_comparison_slack(*v, s[k], t[k])
                                   for k, v in enumerate(vertices)]
    d = sections.section_distance(p, q, segment=segment)
    assert d.tolist() == [sections.section_distance(v[0], v[1]) for v in vertices]


def test_segment_sums_of_long_segments():
    # past 8 points numpy's sum is pairwise, the segment sum sequential
    rng = sampling.make_rng(12)
    sizes = [9, 50, 1]
    vertices, (p, q, _), segment = _triangles(rng, sizes)
    n = len(segment)
    v, w = (TangentSection(p.mesh, sampling.random_hermitians(rng, 2, n)) for _ in range(2))
    f, g = (ScalarField(p.mesh, rng.standard_normal(n)) for _ in range(2))
    bounds = np.cumsum([0] + sizes)

    def split(x, k):
        """Segment k of a joined section, on its triangle's own mesh."""
        return type(x)(vertices[k][0].mesh, x.values[bounds[k]:bounds[k + 1]])

    for fn, args in ((sections.section_distance, (p, q)), (sections.theta_metric, (p, q)),
                     (sections.l2_inner, (p, v, w)), (sections.conformal_distance, (p, f, g))):
        want = [fn(*(split(x, k) for x in args)) for k in range(len(sizes))]
        np.testing.assert_allclose(fn(*args, segment=segment), want, rtol=1e-14)


def test_cat0_kernel_rejects_parameters_outside_unit_interval():
    rng = sampling.make_rng(13)
    _, (p, q, r), segment = _triangles(rng, [2, 3, 1])
    with pytest.raises(ParameterError, match=r"^at index 1: s=1\.5, t=0\.5"):
        _cat0_slacks(p, q, r, segment, [0.5, 1.5, 0.5], [0.5, 0.5, 0.5])
    with pytest.raises(ParameterError, match="at index 2"):
        _cat0_slacks(p, q, r, segment, [0.5, 0.5, 0.5], [0.5, 0.5, -0.1])
    with pytest.raises(ParameterError, match="must lie in"):
        cat0_comparison_slack(p, q, r, 0.5, 2.0)


def test_geodesic_takes_one_t_per_matrix():
    rng = np.random.default_rng(14)
    h = np.stack([sampling.random_posdef(sampling.make_rng(k), 3) for k in range(5)])
    v = np.stack([sampling.random_hermitian(sampling.make_rng(10 + k), 3) for k in range(5)])
    t = rng.uniform(-1.0, 2.0, 5)
    t[2] = 0.0
    g = fiber.FiberGeodesic(h, v)
    got = fiber.geodesic_eval(g, t)
    want = [fiber.geodesic_eval(fiber.FiberGeodesic(h[k], v[k]), t[k]) for k in range(5)]
    assert np.array_equal(got, np.stack(want))
    assert np.array_equal(got[2], g.start[2])
    assert fiber.geodesic_eval(g, np.zeros(5)) is g.start
