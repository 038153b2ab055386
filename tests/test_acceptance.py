"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
in captured output) and asserts the same condition, so the pytest
verdict and the printed line always agree.  All randomness is seeded.
"""

import time

import numpy as np
import pytest

from hermgeo import completion, disk, fiber, linalg, oracle, sampling, sections
from hermgeo.sections import MetricSection, ScalarField


def report(num, label, ok, detail):
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{label}]: {detail}"


def test_criterion_01_oracle_vs_closed_form():
    start = time.perf_counter()
    rng = sampling.make_rng(101)
    worst_rel, worst_below = 0.0, 0.0
    for k in range(10):
        alpha = [0.0, 1.0, -0.4][k % 3]
        p = sampling.random_posdef(rng, 2)
        q = sampling.random_posdef(rng, 2)
        exact = fiber.fiber_distance(p, q, alpha)
        approx = oracle.distance_oracle(p, q, alpha, segments=64,
                                        iterations=500, seed=k)
        worst_rel = max(worst_rel, (approx - exact) / exact)
        worst_below = max(worst_below, exact - approx)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 0.01 and worst_below <= 1e-6 and elapsed < 60.0
    report(1, "oracle distance", ok,
           f"rel gap {worst_rel:.2e}, below {worst_below:.2e}, {elapsed:.1f}s")


def test_criterion_02_geodesic_equation_residual():
    rng = sampling.make_rng(102)
    step = 5e-3
    worst = 0.0
    worst_ratio = np.inf
    for _ in range(20):
        h = sampling.random_posdef(rng, 2, spread=0.5)
        # fix the whitened speed so the O(step^2) truncation term sits
        # well above the roundoff floor and below the 1e-6 ceiling
        a = sampling.random_hermitian(rng, 2)
        a *= rng.uniform(0.2, 0.5) / np.linalg.norm(a)
        s = linalg.sqrtm_posdef(h)
        g = fiber.FiberGeodesic(h, s @ a @ s)
        for t in np.linspace(0.05, 0.95, 10):
            res = fiber.geodesic_residual(g, float(t), step)
            res_half = fiber.geodesic_residual(g, float(t), step / 2)
            worst = max(worst, res)
            worst_ratio = min(worst_ratio, res / res_half)
    ok = worst < 1e-6 and worst_ratio >= 3.0
    report(2, "geodesic residual", ok,
           f"max residual {worst:.2e}, min halving ratio {worst_ratio:.2f}")


def test_criterion_03_exp_log_roundtrip():
    rng = sampling.make_rng(103)
    worst = 0.0
    for _ in range(100):
        h = sampling.random_posdef(rng, 2, spread=0.3)
        v = sampling.random_hermitian(rng, 2)
        v *= 10.0 * rng.uniform() / np.linalg.norm(v)
        q = fiber.geodesic_eval(fiber.FiberGeodesic(h, v), 1.0)
        back = fiber.log_map(h, q)
        worst = max(worst, np.linalg.norm(back - v) / max(1.0, np.linalg.norm(v)))
    ok = worst <= 1e-8
    report(3, "exp/log roundtrip", ok, f"max relative error {worst:.2e}")


def test_criterion_04_nonpositive_sectional_curvature():
    rng = sampling.make_rng(104)
    worst = -np.inf
    for k in range(1000):
        r = 2 + k % 3
        alpha = [0.0, 0.5][(k // 3) % 2]
        h = sampling.random_posdef(rng, r)
        u, v = sampling.random_orthonormal_pair(rng, h, alpha)
        worst = max(worst, fiber.sectional_curvature(h, u, v, alpha))
    worst_comm = 0.0
    for _ in range(100):
        h = np.diag(np.exp(rng.uniform(-1, 1, 2))).astype(complex)
        u = np.diag(rng.normal(size=2)).astype(complex)
        v = np.diag(rng.normal(size=2)).astype(complex)
        u, v = fiber._gram_schmidt_pair(h, u, v, 0.0)
        worst_comm = max(worst_comm, abs(fiber.sectional_curvature(h, u, v, 0.0)))
    ok = worst <= 1e-12 and worst_comm < 1e-12
    report(4, "nonpositive curvature", ok,
           f"max K {worst:.2e}, max |K| commuting {worst_comm:.2e}")


def test_criterion_05_curvature_tensor_identities():
    rng = sampling.make_rng(105)
    worst_anti, worst_bianchi = 0.0, 0.0
    for _ in range(200):
        h = sampling.random_posdef(rng, 3)
        u = sampling.random_hermitian(rng, 3)
        v = sampling.random_hermitian(rng, 3)
        w = sampling.random_hermitian(rng, 3)
        ruv = fiber.curvature_tensor(h, u, v, w)
        rvu = fiber.curvature_tensor(h, v, u, w)
        worst_anti = max(worst_anti, np.linalg.norm(ruv + rvu))
        cyc = (ruv + fiber.curvature_tensor(h, v, w, u)
               + fiber.curvature_tensor(h, w, u, v))
        worst_bianchi = max(worst_bianchi, np.linalg.norm(cyc))
    ok = worst_anti < 1e-12 and worst_bianchi < 1e-12
    report(5, "curvature identities", ok,
           f"antisymmetry {worst_anti:.2e}, Bianchi {worst_bianchi:.2e}")


def test_criterion_06_positivity_bound():
    rng = sampling.make_rng(106)
    worst = np.inf
    for k in range(1000):
        r = 1 + k % 4
        alpha = [0.0, 1.0, -1.0 / r + 1e-3][k % 3]
        h = sampling.random_posdef(rng, r)
        v = sampling.random_hermitian(rng, r)
        quad = fiber.alpha_inner(h, v, v, alpha)
        tr = np.trace(np.linalg.solve(h, v)).real
        worst = min(worst, quad - (1.0 / r + alpha) * tr**2)
    ok = worst >= -1e-10
    report(6, "positivity bound", ok, f"min slack {worst:.2e}")


def test_criterion_07_conformal_identity():
    rng = sampling.make_rng(107)
    worst = 0.0
    for k in range(50):
        r = 1 + k % 3
        alpha = float(rng.uniform(-0.9 / r, 1.0))
        mesh = sampling.random_mesh(rng, r, 1 + int(rng.integers(10)), alpha=alpha)
        h = sampling.random_metric_section(rng, mesh)
        f = sampling.random_scalar_field(rng, mesh)
        g = sampling.random_scalar_field(rng, mesh)
        direct = sections.section_distance(sections.conformal_scale(h, f),
                                           sections.conformal_scale(h, g))
        formula = sections.conformal_distance(h, f, g)
        worst = max(worst, abs(direct - formula) / max(1e-30, formula))
    ok = worst <= 1e-10
    report(7, "conformal identity", ok, f"max relative error {worst:.2e}")


def test_criterion_08_theta_bound():
    rng = sampling.make_rng(108)
    worst = np.inf
    for k in range(100):
        r = 1 + k % 3
        mesh = sampling.random_mesh(rng, r, 1 + int(rng.integers(50)))
        h1 = sampling.random_metric_section(rng, mesh)
        h2 = sampling.random_metric_section(rng, mesh)
        d = sections.section_distance(h1, h2)
        bound = sections.theta_metric(h1, h2) / np.sqrt(mesh.volume)
        worst = min(worst, d - bound)
    ok = worst >= -1e-10
    report(8, "theta bound", ok, f"min slack {worst:.2e}")


def test_criterion_09_cat0():
    rng = sampling.make_rng(109)
    worst = np.inf
    for k in range(200):
        r = 1 + k % 3
        mesh = sampling.random_mesh(rng, r, 1 + int(rng.integers(6)))
        tri = [sampling.random_metric_section(rng, mesh) for _ in range(3)]
        worst = min(worst, completion.cat0_check(*tri))
    worst_flat = 0.0
    for _ in range(20):
        mesh = sampling.random_mesh(rng, 2, 3, alpha=0.0)
        tri = []
        for _ in range(3):
            vals = np.stack([np.diag(np.exp(rng.uniform(-1, 1, 2))).astype(complex)
                             for _ in range(mesh.n_points)])
            tri.append(MetricSection(mesh, vals))
        worst_flat = max(worst_flat, abs(completion.cat0_check(*tri)))
    ok = worst >= -1e-10 and worst_flat < 1e-9
    report(9, "CAT(0)", ok,
           f"min slack {worst:.2e}, max flat |slack| {worst_flat:.2e}")


def test_criterion_10_gauge_invariance():
    rng = sampling.make_rng(110)
    worst = 0.0
    for k in range(100):
        r = 1 + k % 3
        mesh = sampling.random_mesh(rng, r, 1 + int(rng.integers(8)))
        h1 = sampling.random_metric_section(rng, mesh)
        h2 = sampling.random_metric_section(rng, mesh)
        v1 = sampling.random_tangent_section(rng, mesh)
        v2 = sampling.random_tangent_section(rng, mesh)
        phi = sampling.random_gauge(rng, mesh)
        ip = sections.l2_inner(h1, v1, v2)
        ipg = sections.l2_inner(sections.gauge_apply(phi, h1),
                                sections.gauge_apply(phi, v1),
                                sections.gauge_apply(phi, v2))
        worst = max(worst, abs(ip - ipg) / max(1.0, abs(ip)))
        d = sections.section_distance(h1, h2)
        dg = sections.section_distance(sections.gauge_apply(phi, h1),
                                       sections.gauge_apply(phi, h2))
        worst = max(worst, abs(d - dg) / max(1.0, d))
    ok = worst <= 1e-9
    report(10, "gauge invariance", ok, f"max relative drift {worst:.2e}")


def test_criterion_11_disk_integrability():
    start = time.perf_counter()
    target = 8.0 * np.pi
    errors = []
    for n_r in (50, 100, 200, 400):
        rep = disk.raufi_integrability(disk.DiskMesh(n_r, 64))
        errors.append(abs(rep["log_det_sq_integral"] - target))
    final_rel = errors[-1] / target
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    lb = disk.line_bundle_norms(disk.DiskMesh(400, 64))
    lb_rel = abs(lb["phi_sq_integral"] - 2.0 * np.pi) / (2.0 * np.pi)
    elapsed = time.perf_counter() - start
    ok = final_rel <= 0.02 and monotone and lb_rel <= 0.02 and elapsed < 30.0
    report(11, "disk integrability", ok,
           f"log-det^2 rel err {final_rel:.2e} (monotone={monotone}), "
           f"line bundle rel err {lb_rel:.2e}, {elapsed:.1f}s")


def test_criterion_12_completion_experiment():
    mesh = disk.DiskMesh(100, 32)
    rep = disk.log_truncation_experiment(mesh, 0.0, 8)
    worst = max(abs(d - f) / max(1e-30, f)
                for d, f in zip(rep.to_limit, rep.to_limit_formula))

    h0 = disk.identity_reference(mesh, 1, 0.0)
    quad = h0.mesh
    rng = sampling.make_rng(112)
    g = sampling.random_scalar_field(rng, quad)
    f_lim2 = sampling.random_scalar_field(rng, quad)
    seq = [ScalarField(quad, f_lim2.values + 2.0**-k * g.values)
           for k in range(12)]
    rep2 = completion.cauchy_experiment(h0, seq, f_lim2)
    c = rep2.step_distances[0]
    n = len(rep2.step_distances)
    series_err = abs(rep2.partial_sums[-1] - 2.0 * c * (1.0 - 2.0**-n))
    ok = worst <= 1e-10 and series_err <= 1e-9
    report(12, "completion experiment", ok,
           f"max per-step rel err {worst:.2e}, series gap {series_err:.2e}")


def test_criterion_13_exp_differential():
    rng = sampling.make_rng(113)
    worst = np.inf
    for _ in range(100):
        h = sampling.random_posdef(rng, 2, spread=0.8)
        v = sampling.random_hermitian(rng, 2)
        v *= 3.0 * rng.uniform() / np.linalg.norm(v)
        worst = min(worst, fiber.exp_differential_min_singular(h, v))
    h0 = sampling.random_posdef(rng, 2)
    at_zero = fiber.exp_differential_min_singular(h0, np.zeros((2, 2), complex))
    ok = worst > 1e-3 and at_zero == pytest.approx(1.0, abs=1e-6)
    report(13, "exp differential", ok,
           f"min singular value {worst:.4f}, at v=0: {at_zero:.9f}")
