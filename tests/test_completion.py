import numpy as np
import pytest

from hermgeo import sampling
from hermgeo.completion import (
    cat0_check,
    cat0_comparison_slack,
    cauchy_experiment,
    family_report,
    integrability_report,
    refinement_trend,
)
from hermgeo.sections import (
    MetricSection,
    ScalarField,
    conformal_scale,
    section_distance,
    section_geodesic,
)


def test_integrability_identity():
    rng = sampling.make_rng(60)
    mesh = sampling.random_mesh(rng, 2, 5)
    h0 = sampling.random_metric_section(rng, mesh)
    rep = integrability_report(h0, h0)
    assert rep.l2_log_lambda_min == pytest.approx(0.0, abs=1e-6)
    assert rep.l2_log_lambda_max == pytest.approx(0.0, abs=1e-6)
    assert rep.l2_log_det == pytest.approx(0.0, abs=1e-6)
    assert rep.is_l2


def test_integrability_conformal_rank1():
    rng = sampling.make_rng(61)
    mesh = sampling.random_mesh(rng, 1, 8, alpha=0.3)
    h0 = sampling.random_metric_section(rng, mesh)
    phi = sampling.random_scalar_field(rng, mesh)
    sigma = conformal_scale(h0, phi)
    rep = integrability_report(sigma, h0)
    expect = np.sqrt((mesh.weights * phi.values**2).sum())
    assert rep.l2_log_det == pytest.approx(expect, rel=1e-10)
    assert rep.l2_log_lambda_min == pytest.approx(
        np.sqrt((mesh.weights * np.minimum(phi.values, np.inf) ** 2).sum()),
        rel=1e-9)


def test_integrability_jensen_consistency():
    rng = sampling.make_rng(62)
    for _ in range(10):
        r = int(rng.integers(2, 4))
        mesh = sampling.random_mesh(rng, r, 6)
        h0 = sampling.random_metric_section(rng, mesh)
        sig = sampling.random_metric_section(rng, mesh)
        rep = integrability_report(sig, h0)
        bound = r * r * (rep.l2_log_lambda_min**2 + rep.l2_log_lambda_max**2)
        assert rep.l2_log_det**2 <= bound + 1e-10


def test_refinement_trend():
    levels = [1, 2, 4, 8]
    assert refinement_trend([3.0, 3.0, 3.0, 3.0], levels) \
        == pytest.approx(0.0, abs=1e-12)
    growing = [1.0, 2.0, 4.0, 8.0]
    assert refinement_trend(growing, levels) == pytest.approx(1.0)


def test_family_report_flags_divergence():
    # conformal profiles with L2 norm growing like the level diverge
    rng = sampling.make_rng(63)
    sigmas, h0s = [], []
    levels = [1, 2, 4]
    for lvl in levels:
        mesh = sampling.random_mesh(rng, 1, 6, alpha=0.0)
        h0 = sampling.random_metric_section(rng, mesh)
        phi = ScalarField(mesh, np.full(mesh.n_points, float(lvl)))
        sigmas.append(conformal_scale(h0, phi))
        h0s.append(h0)
    rep = family_report(sigmas, h0s, levels)
    assert not rep.is_l2
    assert rep.refinement_trend > 0.5


def test_cauchy_constant_sequence():
    rng = sampling.make_rng(64)
    mesh = sampling.random_mesh(rng, 2, 4, alpha=0.0)
    h0 = sampling.random_metric_section(rng, mesh)
    f = sampling.random_scalar_field(rng, mesh)
    rep = cauchy_experiment(h0, [f, f, f], f)
    assert all(d == pytest.approx(0.0, abs=1e-12) for d in rep.step_distances)
    assert all(d == pytest.approx(0.0, abs=1e-12) for d in rep.to_limit)


def test_cauchy_geometric_sequence():
    rng = sampling.make_rng(65)
    mesh = sampling.random_mesh(rng, 2, 5, alpha=0.5)
    h0 = sampling.random_metric_section(rng, mesh)
    g = sampling.random_scalar_field(rng, mesh)
    f_lim = sampling.random_scalar_field(rng, mesh)
    f_seq = [ScalarField(mesh, f_lim.values + 2.0**-k * g.values)
             for k in range(1, 11)]
    rep = cauchy_experiment(h0, f_seq, f_lim)
    # each distance-to-limit matches the conformal formula
    for direct, formula in zip(rep.to_limit, rep.to_limit_formula):
        assert direct == pytest.approx(formula, rel=1e-10)
    # steps are geometric with ratio 1/2, so the partial sums match the
    # closed form of the finite geometric series
    c = rep.step_distances[0]
    n = len(rep.step_distances)
    assert rep.partial_sums[-1] == pytest.approx(
        2.0 * c * (1.0 - 2.0**-n), rel=1e-9)
    # triangle inequality along the sequence
    for i in range(len(f_seq) - 2):
        d02 = section_distance(conformal_scale(h0, f_seq[i]),
                               conformal_scale(h0, f_seq[i + 2]))
        assert d02 <= rep.step_distances[i] + rep.step_distances[i + 1] + 1e-10


def test_cat0_point_on_segment():
    rng = sampling.make_rng(66)
    mesh = sampling.random_mesh(rng, 2, 3, alpha=0.0)
    q = sampling.random_metric_section(rng, mesh)
    r = sampling.random_metric_section(rng, mesh)
    p = section_geodesic(q, r, 0.3)
    assert abs(cat0_check(p, q, r)) < 1e-10


def test_cat0_commuting_flat():
    rng = sampling.make_rng(67)
    for _ in range(10):
        rk = int(rng.integers(2, 4))
        mesh = sampling.random_mesh(rng, rk, 3,
                                    alpha=float(rng.uniform(-1.0 / rk + 1e-3, 1.0)))

        def diag_sec():
            vals = np.stack([np.diag(np.exp(rng.uniform(-1, 1, rk))).astype(complex)
                             for _ in range(mesh.n_points)])
            return MetricSection(mesh, vals)

        assert abs(cat0_check(diag_sec(), diag_sec(), diag_sec())) < 1e-9


def test_cat0_random_triangles():
    rng = sampling.make_rng(68)
    for _ in range(50):
        rk = 2 if rng.uniform() < 0.5 else 3
        mesh = sampling.random_mesh(rng, rk, int(rng.integers(1, 4)),
                                    alpha=float(rng.choice([0.0, 1.0])))
        p = sampling.random_metric_section(rng, mesh)
        q = sampling.random_metric_section(rng, mesh)
        r = sampling.random_metric_section(rng, mesh)
        assert cat0_check(p, q, r) >= -1e-10
        s, t = rng.uniform(0, 1, 2)
        assert cat0_comparison_slack(p, q, r, s, t) >= -1e-10


def test_cat0_degenerate_triangle():
    rng = sampling.make_rng(69)
    mesh = sampling.random_mesh(rng, 2, 2, alpha=0.0)
    p = sampling.random_metric_section(rng, mesh)
    q = sampling.random_metric_section(rng, mesh)
    # two coincident vertices: slack is still computed and near zero
    assert abs(cat0_check(p, q, q)) < 1e-9
