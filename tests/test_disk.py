from decimal import Decimal, localcontext

import numpy as np
import pytest

from hermgeo import disk
from hermgeo.completion import integrability_report
from hermgeo.disk import DiskMesh, GridFunction
from hermgeo.errors import MeshMismatchError


def test_mesh_weight_sum():
    for nr, nth in [(20, 16), (400, 64)]:
        m = DiskMesh(nr, nth)
        assert m.cell_weights().sum() == pytest.approx(np.pi, rel=5e-3)
    assert DiskMesh(400, 64).cell_weights().sum() == pytest.approx(np.pi, rel=1e-12)


def test_mesh_excludes_origin():
    m = DiskMesh(10, 8)
    assert np.abs(m.points()).min() > 0


def test_mesh_points_are_held_read_only():
    for n_r, n_theta in [(1, 1), (3, 5), (400, 64)]:
        m = DiskMesh(n_r, n_theta)
        z = m.points()
        assert m.points() is z
        assert not z.flags.writeable
        want = np.repeat(m.radii, n_theta) * np.exp(1j * np.tile(m.thetas, n_r))
        assert np.array_equal(z, want)
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 0.0
    # the derived arrays take no part in comparisons or the hash, the
    # points none in the repr
    assert DiskMesh(3, 5) == DiskMesh(3, 5) != DiskMesh(3, 4)
    assert hash(DiskMesh(3, 5)) == hash(DiskMesh(3, 5))
    assert repr(DiskMesh(3, 5)).count("array") == 2


def test_raufi_matrix_identities():
    m = DiskMesh(50, 16)
    z = m.points()
    t = np.abs(z) ** 2
    for k in (0, 100, 400):
        mat = disk.raufi_matrix(z[k])
        assert np.linalg.det(mat).real == pytest.approx(t[k] ** 2, rel=1e-10)
        assert np.trace(mat).real == pytest.approx(1.0 + 2.0 * t[k], rel=1e-12)
        lam = np.linalg.eigvalsh(mat)
        assert np.prod(lam) == pytest.approx(t[k] ** 2, rel=1e-8)
    # det at |z| = 1/2 is 1/16
    assert np.linalg.det(disk.raufi_matrix(0.5)).real == pytest.approx(1.0 / 16.0)


def test_raufi_eigenvalues_match_numeric():
    m = DiskMesh(20, 8)
    z = m.points()
    t = np.abs(z) ** 2
    lo, hi = disk.raufi_eigenvalues(t)
    for k in range(0, len(z), 37):
        lam = np.linalg.eigvalsh(disk.raufi_matrix(z[k]))
        assert lam[0] == pytest.approx(lo[k], rel=1e-9, abs=1e-12)
        assert lam[1] == pytest.approx(hi[k], rel=1e-9)


def test_raufi_small_root_is_stable():
    m = DiskMesh(400, 64)
    z = m.points()
    t = np.abs(z) ** 2
    lo, hi = disk.raufi_eigenvalues(t)
    # exact small root at each radius, to 40 digits
    with localcontext() as ctx:
        ctx.prec = 40
        exact = np.array([float((1 + 2 * Decimal(x) - (1 + 4 * Decimal(x)).sqrt()) / 2)
                          for x in t[::m.n_theta]])
    assert np.abs(lo[::m.n_theta] / exact - 1).max() <= 1e-12
    # eigvalsh sees the matrix with 1 + t rounded: its determinant t^2
    # moves by about eps * t, its small eigenvalue by a few eps / t relative
    lam = np.linalg.eigvalsh(disk.raufi_matrix(z))
    eps = np.finfo(float).eps
    assert np.all(np.abs(lo / lam[:, 0] - 1) <= 32 * eps * (1 + t) / t)
    assert np.abs(hi / lam[:, 1] - 1).max() <= 1e-14


@pytest.mark.parametrize("n_r, n_theta", [(50, 16), (100, 32), (400, 64)])
@pytest.mark.parametrize("alpha", [0.0, 0.7, -0.4])
def test_raufi_integrability_matches_eigensolver_route(n_r, n_theta, alpha):
    # cross-check of the closed-form spectrum: the generic report on the
    # section, and a numpy eigensolve with the small root from Vieta
    m = DiskMesh(n_r, n_theta)
    rep = disk.raufi_integrability(m, alpha)
    generic = integrability_report(disk.raufi_section(m, alpha),
                                   disk.identity_reference(m, 2, alpha))
    for key in ("l2_log_lambda_min", "l2_log_lambda_max", "l2_log_det"):
        assert rep[key] == pytest.approx(getattr(generic, key), rel=1e-12, abs=0), key
    assert np.sqrt(rep["distance_sq_integral"]) == pytest.approx(
        generic.l2_distance, rel=1e-12, abs=0)
    z = m.points()
    t = np.abs(z) ** 2
    hi = np.linalg.eigvalsh(disk.raufi_matrix(z))[:, 1]
    logs = np.log(np.stack([t**2 / hi, hi], axis=-1))
    want = (m.cell_weights() * ((logs**2).sum(-1) + alpha * logs.sum(-1) ** 2)).sum()
    assert rep["distance_sq_integral"] == pytest.approx(want, rel=1e-12, abs=0)


def test_raufi_integrability_targets():
    rep = disk.raufi_integrability(DiskMesh(400, 64), 0.0)
    assert rep["log_det_sq_integral"] == pytest.approx(8.0 * np.pi, rel=0.02)
    assert rep["is_l2"]
    assert rep["det_identity_residual"] < 1e-10
    assert np.isfinite(rep["distance_sq_integral"])


def test_raufi_refinement_converges_monotonically():
    errs = []
    for nr in (50, 100, 200, 400):
        rep = disk.raufi_integrability(DiskMesh(nr, 32), 0.0)
        errs.append(abs(rep["log_det_sq_integral"] - 8.0 * np.pi))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_line_bundle_norm():
    rep = disk.line_bundle_norms(DiskMesh(400, 64))
    assert rep["phi_sq_integral"] == pytest.approx(2.0 * np.pi, rel=0.02)


def test_log_truncation_experiment():
    m = DiskMesh(32, 24)
    rep = disk.log_truncation_experiment(m, 0.5, 4)
    phi = np.log(np.abs(m.points()) ** 2)
    # rank 1, constant alpha: d(e^f h0, e^g h0) = sqrt(1 + alpha) ||f - g||_2
    want = [np.sqrt(1.5 * (m.cell_weights() * (np.maximum(phi, -k) - phi) ** 2).sum())
            for k in range(1, 5)]
    assert rep.to_limit == pytest.approx(want, rel=1e-12)
    assert rep.to_limit_formula == pytest.approx(want, rel=1e-12)


def test_boundedness_bound():
    m = DiskMesh(50, 16)
    h0 = disk.identity_reference(m)
    sigma = disk.raufi_section(m)
    bound = disk.boundedness_bound(sigma, h0)
    # top eigenvalue at |z| = 1 is (3 + sqrt 5)/2; mesh tops out just below
    assert bound <= (3.0 + np.sqrt(5.0)) / 2.0 + 1e-9
    assert bound > 2.5
    ident = disk.MetricSection(h0.mesh, tuple(h0.values))
    assert disk.boundedness_bound(ident, h0) == pytest.approx(1.0)
    two = disk.MetricSection(h0.mesh, tuple(2.0 * v for v in h0.values))
    assert disk.boundedness_bound(two, h0) == pytest.approx(2.0)


def test_boundedness_bound_rejects_mesh_mismatch():
    sigma = disk.raufi_section(DiskMesh(10, 8))
    with pytest.raises(MeshMismatchError):
        disk.boundedness_bound(sigma, disk.identity_reference(DiskMesh(10, 9)))


def test_boundedness_implies_extreme_norms_finite():
    # log-det norm finite + bounded top eigenvalue controls both extremes
    for nr in (50, 100, 200):
        m = DiskMesh(nr, 16)
        h0 = disk.identity_reference(m)
        rep = disk.raufi_integrability(m, 0.0)
        c = disk.boundedness_bound(disk.raufi_section(m), h0)
        assert rep["l2_log_lambda_max"] <= np.sqrt(np.pi) * np.log(c) + 1e-9
        # lambda_min >= det/C^(r-1): its log-norm is controlled by log det
        assert rep["l2_log_lambda_min"] \
            <= rep["l2_log_det"] + np.sqrt(np.pi) * np.log(c) + 1e-9


def test_dual_section():
    m = DiskMesh(10, 8)
    h0 = disk.identity_reference(m)
    sigma = disk.raufi_section(m)
    dual = disk.dual_section(sigma)
    # involution
    back = disk.dual_section(dual)
    for a, b in zip(back.values, sigma.values):
        assert np.linalg.norm(a - b) < 1e-12
    # reciprocal reversed spectrum
    from hermgeo import linalg
    for k in (0, 11, 47):
        lam = linalg.relative_spectrum(h0.values[k], sigma.values[k])
        lam_d = linalg.relative_spectrum(h0.values[k], dual.values[k])
        assert np.abs(lam_d - 1.0 / lam[::-1]).max() < 1e-10 * (1.0 / lam).max()
    # diagonal example
    mesh2 = h0.mesh
    diag = disk.MetricSection(
        mesh2, tuple(np.diag([2.0, 5.0]).astype(complex)
                     for _ in range(mesh2.n_points)))
    dd = disk.dual_section(diag)
    assert np.allclose(dd.values[0], np.diag([0.5, 0.2]))


def test_grid_interpolation():
    m = DiskMesh(100, 64)
    u = GridFunction.from_callable(m, lambda z: np.abs(z) ** 2)
    pts = np.array([0.3 + 0.1j, -0.5 + 0.2j, 0.1 - 0.6j])
    got = u.interpolate(pts)
    assert np.allclose(got, np.abs(pts) ** 2, atol=1e-3)


def test_psh_check_subharmonic_passes():
    m = DiskMesh(200, 64)
    u = GridFunction.from_callable(m, lambda z: np.abs(z) ** 2)
    rep = disk.psh_check(u, radii=[0.05, 0.1])
    assert rep.passed
    assert rep.n_centers > 0


def test_psh_check_superharmonic_fails():
    m = DiskMesh(200, 64)
    u = GridFunction.from_callable(m, lambda z: -np.abs(z) ** 2)
    rep = disk.psh_check(u, radii=[0.05, 0.1])
    assert not rep.passed
    assert rep.max_violation > 1e-3


def test_psh_check_log_det_raufi():
    m = DiskMesh(400, 64)
    u = GridFunction.from_callable(m, lambda z: 2.0 * np.log(np.abs(z) ** 2))
    rep = disk.psh_check(u, radii=[0.05, 0.1])
    assert rep.passed


def _psh_all_circles(u, radii):
    """psh_check's sub-mean-value gaps with every circle interpolated and
    the inadmissible ones dropped afterwards."""
    mesh = u.mesh
    z = mesh.points().reshape(mesh.n_r, mesh.n_theta)
    sel = z[::disk.PSH_CENTER_STRIDE, ::disk.PSH_CENTER_STRIDE].ravel()
    centers = sel[np.abs(sel) >= disk.PSH_MIN_CENTER_RADIUS]
    angles = np.exp(2j * np.pi * (np.arange(disk.PSH_ANGLES) + 0.5) / disk.PSH_ANGLES)
    inner_cut = max(mesh.radii[0], 40.0 / mesh.n_r)
    gaps = []
    for rho in radii:
        circles = centers[:, None] + rho * angles
        rr = np.abs(circles)
        used = (rr.min(axis=-1) >= inner_cut) & (rr.max(axis=-1) <= mesh.radii[-1])
        gaps.append((u.interpolate(centers) - u.interpolate(circles).mean(axis=-1))[used])
    gaps = np.concatenate(gaps)
    return float(gaps.max()), gaps.size, centers.size * len(radii) - gaps.size


@pytest.mark.parametrize("n_r,n_theta,circles", [(400, 64, 600), (100, 32, 44)])
def test_psh_check_interpolates_only_admissible_circles(monkeypatch, n_r, n_theta, circles):
    m = DiskMesh(n_r, n_theta)
    for scale in (1.0, 2.0):
        u = GridFunction.from_callable(m, lambda z: scale * np.log(np.abs(z) ** 2))
        want = _psh_all_circles(u, [0.05, 0.1])
        sizes = []
        interpolate = GridFunction.interpolate
        monkeypatch.setattr(GridFunction, "interpolate",
                            lambda self, z: sizes.append(np.shape(z)) or interpolate(self, z))
        rep = disk.psh_check(u, radii=[0.05, 0.1])
        monkeypatch.undo()
        assert (rep.max_violation, rep.n_centers, rep.n_skipped) == want
        assert rep.n_centers == circles
        # the centres once, then each radius's admissible circles
        assert sum(s[0] for s in sizes[1:]) == circles
        assert all(s[1:] == (disk.PSH_ANGLES,) for s in sizes[1:])


def test_psh_radius_too_large_all_skipped():
    m = DiskMesh(50, 16)
    u = GridFunction.from_callable(m, lambda z: np.abs(z) ** 2)
    with pytest.raises(ValueError):
        disk.psh_check(u, radii=[5.0])


def test_grid_function_keeps_a_read_only_copy():
    given = np.array([[1.0, 2.0]])
    u = GridFunction(DiskMesh(1, 2), given)
    given[0, 0] = np.inf
    assert u.values.tolist() == [[1.0, 2.0]]
    with pytest.raises(ValueError, match="read-only"):
        u.values[0, 0] = np.inf
