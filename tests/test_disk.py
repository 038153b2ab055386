import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hermgeo import disk, sampling
from hermgeo.completion import integrability_report, refinement_trend
from hermgeo.disk import DiskMesh, GridFunction
from hermgeo.errors import MeshMismatchError, ParameterError


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


def test_mesh_past_the_point_limit_is_refused_before_allocating():
    # each of these would need gigabytes; the count alone refuses it
    tracemalloc.start()
    try:
        for n_r, n_theta in [(disk.DISK_POINT_LIMIT + 1, 1), (1, disk.DISK_POINT_LIMIT + 1),
                             (10**8, 10**8), (np.int64(2**40), np.int64(2**40))]:
            with pytest.raises(ParameterError, match="need at most"):
                DiskMesh(n_r, n_theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def _interpolate_reference(u, z):
    """GridFunction.interpolate's former route, kept as the reference:
    np.mod of the angle and of the indices, and 2-D gathers."""
    r = np.abs(z)
    th = np.mod(np.angle(z), 2 * np.pi)
    mesh = u.mesh
    fi = r / mesh.dr - 0.5
    i0 = np.clip(np.floor(fi).astype(int), 0, mesh.n_r - 2)
    ti = fi - i0
    fj = th / mesh.dtheta - 0.5
    j0 = np.floor(fj).astype(int)
    tj = fj - j0
    j0 = np.mod(j0, mesh.n_theta)
    j1 = np.mod(j0 + 1, mesh.n_theta)
    v = u.values
    return ((1 - ti) * (1 - tj) * v[i0, j0] + (1 - ti) * tj * v[i0, j1]
            + ti * (1 - tj) * v[i0 + 1, j0] + ti * tj * v[i0 + 1, j1])


def _edge_points(m):
    """Points on the closed disk where the kernel's wraps and clips act."""
    dr, dth = m.dr, m.dtheta
    tiny = np.nextafter(0.0, 1.0)
    z = [complex(-0.5, 0.0), complex(-0.5, -0.0), complex(0.5, -0.0), complex(0.0, -0.0),
         complex(-0.0, 0.0), complex(-0.0, -0.0), 0.0, 1.0, -1.0, 1j, -1j, complex(-1.0, -0.0),
         complex(0.5, -tiny), complex(0.5, tiny), complex(-0.5, -tiny), complex(-0.5, tiny)]
    # the theta seam, and the cell edges and centres in theta and r
    edges = np.concatenate([np.arange(m.n_theta + 1) * dth, (np.arange(m.n_theta) + 0.5) * dth])
    angles = np.concatenate([edges, -edges, np.nextafter(edges, -np.inf), [-np.pi, np.pi]])
    radii = np.concatenate([np.arange(m.n_r + 1) * dr, m.radii,
                            # the innermost and outermost half-cells
                            np.linspace(0.0, dr / 2, 5), np.linspace(1.0 - dr / 2, 1.0, 5)])
    polar = (radii[:, None] * np.exp(1j * angles)).ravel()
    return np.concatenate([np.array(z), polar[np.abs(polar) <= 1.0]])


@pytest.mark.parametrize("n_r,n_theta", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 1), (120, 5),
                                         (400, 64)])
def test_interpolate_is_bit_identical_to_the_reference_route(n_r, n_theta):
    m = DiskMesh(n_r, n_theta)
    rng = np.random.default_rng(n_r * 1000 + n_theta)
    u = GridFunction(m, rng.standard_normal((n_r, n_theta)))
    r = np.sqrt(rng.random(20_000))
    seeded = r * np.exp(1j * rng.uniform(-np.pi, np.pi, r.size))
    for z in (seeded, _edge_points(m), seeded.reshape(100, 200)):
        got, want = u.interpolate(z), _interpolate_reference(u, z)
        # equal bytes: the same doubles, sign bits included
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert u.interpolate(0.5j) == _interpolate_reference(u, 0.5j)


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


def _log_norm(mesh, h, u):
    """log |u|^2_h = log(u^dagger h u) of a constant section u of a metric
    h(z), as a grid function."""
    m = h(mesh.points().reshape(mesh.n_r, mesh.n_theta))
    return GridFunction(mesh, np.log(np.einsum("i,...ij,j->...", np.conj(u), m, u).real))


def _control_metric(z):
    """diag(1, e^{-|z|^2}): log |e_2|^2 = -|z|^2 is superharmonic."""
    one, zero = np.ones_like(z), np.zeros_like(z)
    return np.stack([np.stack([one, zero], axis=-1),
                     np.stack([zero, np.exp(-np.abs(z) ** 2) + 0j], axis=-1)], axis=-2)


# Raufi's h = A^dagger A with A(z) = [[1, z], [z, 0]] holomorphic, so for a
# constant u = (a, b), log |u|^2_h = log(|a + z b|^2 + |z a|^2) is psh:
# Griffiths seminegativity, tested on sections rather than on log det
GRIFFITHS_SECTIONS = sampling._complex_normal(sampling.make_rng(3), 20, (2,))


def test_psh_check_griffiths_constant_sections_of_raufi():
    m = DiskMesh(200, 64)
    reps = [disk.psh_check(_log_norm(m, disk.raufi_matrix, u), [0.05, 0.1])
            for u in GRIFFITHS_SECTIONS]
    assert all(rep.passed for rep in reps)
    assert max(rep.max_violation for rep in reps) < 0.5 * disk.PSH_TOLERANCE
    # the control along e_2 fails by about 1e-2 at this mesh
    control = disk.psh_check(_log_norm(m, _control_metric, np.array([0.0, 1.0])),
                             [0.05, 0.1])
    assert not control.passed
    assert control.max_violation > 5e-3


def test_psh_check_griffiths_violation_falls_under_refinement():
    # the violation is interpolation error: it falls with the mesh, at
    # about second order in the mesh width (slope near -2.7 here)
    levels = [1, 2, 4]
    worst = [max(disk.psh_check(_log_norm(DiskMesh(100 * k, 32 * k), disk.raufi_matrix, u),
                                [0.05, 0.1]).max_violation for u in GRIFFITHS_SECTIONS)
             for k in levels]
    assert all(b < a for a, b in zip(worst, worst[1:]))
    assert refinement_trend(worst, levels) < -1.0


def _psh_all_circles(u, radii):
    """psh_check's sub-mean-value gaps with every circle interpolated by
    the reference route and the inadmissible ones dropped afterwards."""
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
        gaps.append((_interpolate_reference(u, centers)
                     - _interpolate_reference(u, circles).mean(axis=-1))[used])
    gaps = np.concatenate(gaps)
    return float(gaps.max()), gaps.size, centers.size * len(radii) - gaps.size


@pytest.mark.parametrize("n_r,n_theta,radii,centers,circles", [
    pytest.param(400, 64, [0.05, 0.1], 360, 600, id="400-64-600"),
    pytest.param(100, 32, [0.05, 0.1], 44, 44, id="100-32-44"),
    # many blocks; at rho = 0.1 the inner rows of centres, whole blocks
    # of them, are skipped
    pytest.param(1000, 512, [0.05, 0.1], 7168, 12864, id="1000-512-12864"),
    # exactly one full block of centres
    pytest.param(72, 64, [0.05, 0.1], disk.PSH_BLOCK, 40, id="72-64-40"),
    pytest.param(400, 64, [0.02, 0.05, 0.1], 360, 944, id="400-64-944-three-radii"),
])
def test_psh_check_interpolates_only_admissible_circles(monkeypatch, n_r, n_theta, radii,
                                                        centers, circles):
    m = DiskMesh(n_r, n_theta)
    n_blocks = -(-centers // disk.PSH_BLOCK)
    for scale in (1.0, 2.0):
        u = GridFunction.from_callable(m, lambda z: scale * np.log(np.abs(z) ** 2))
        want = _psh_all_circles(u, radii)
        sizes = []
        bilinear = GridFunction._bilinear
        monkeypatch.setattr(GridFunction, "_bilinear",
                            lambda self, r, a: sizes.append(np.shape(r)) or bilinear(self, r, a))
        rep = disk.psh_check(u, radii=radii)
        monkeypatch.undo()
        # the blocked report equals the one over all circles at once, bit for bit
        assert (rep.max_violation, rep.n_centers, rep.n_skipped) == want
        assert rep.n_centers == circles
        # the centres once, then each radius's admissible circles, one
        # call per block of at most PSH_BLOCK centres
        assert sizes[0] == (centers,)
        assert len(sizes) == 1 + len(radii) * n_blocks
        assert sum(s[0] for s in sizes[1:]) == circles
        assert all(s[0] <= disk.PSH_BLOCK and s[1:] == (disk.PSH_ANGLES,) for s in sizes[1:])
    if n_r == 1000:
        assert (0, disk.PSH_ANGLES) in sizes


def test_psh_check_is_bit_identical_off_log_profiles():
    # a profile with no radial symmetry: every corner weight and every
    # gathered value counts in the report's bits
    m = DiskMesh(200, 64)
    u = GridFunction.from_callable(m, lambda z: np.sin(3 * z.real) * np.cos(2 * z.imag))
    radii = [0.02, 0.05, 0.1]
    rep = disk.psh_check(u, radii)
    assert (rep.max_violation, rep.n_centers, rep.n_skipped) == _psh_all_circles(u, radii)
    assert 0 < rep.n_skipped < rep.n_centers


def test_psh_check_is_bit_identical_when_every_circle_is_admissible():
    # no block is compacted, so the kernel consumes psh_check's own moduli
    # and angles: a reused input would show in the report's bits
    m = DiskMesh(447, 64)
    u = GridFunction.from_callable(m, lambda z: np.sin(3 * z.real) * np.cos(2 * z.imag))
    rep = disk.psh_check(u, [0.01])
    assert (rep.max_violation, rep.n_centers, rep.n_skipped) == _psh_all_circles(u, [0.01])
    assert rep.n_skipped == 0 and rep.n_centers > disk.PSH_BLOCK


@pytest.mark.parametrize("mesh,radii", [
    pytest.param(DiskMesh(50, 16), [5.0], id="radius-too-large"),
    # the stride leaves one candidate centre, inside PSH_MIN_CENTER_RADIUS
    pytest.param(DiskMesh(8, 8), [0.05, 0.1], id="no-centres"),
])
def test_psh_radius_too_large_all_skipped(mesh, radii):
    u = GridFunction.from_callable(mesh, lambda z: np.abs(z) ** 2)
    with pytest.raises(ParameterError, match=r"no admissible \(center, radius\) pair"):
        disk.psh_check(u, radii=radii)


def test_psh_check_memory_is_bounded_by_the_block():
    # every circle of every centre at once would peak at 64 MiB here;
    # one block of circles at a time peaks near 1 MiB
    m = DiskMesh(1000, 512)
    u = GridFunction.from_callable(m, lambda z: np.log(np.abs(z) ** 2))
    tracemalloc.start()
    try:
        rep = disk.psh_check(u, radii=[0.05, 0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_centers == 12864
    assert peak < 8 * 2**20


def test_interpolate_keeps_shapes():
    u = GridFunction(DiskMesh(3, 4), np.arange(12.0).reshape(3, 4))
    got = u.interpolate(0.5j)
    assert type(got) is np.float64
    assert u.interpolate(np.empty((0, 3), complex)).shape == (0, 3)
    assert u.interpolate([[0.5, 0.25j]]).shape == (1, 2)


@pytest.mark.parametrize("z,big", [(1e306, False), (5.0, True), ([0.5, 5.0, 2.0j], True)])
def test_interpolate_refuses_points_off_the_disk_before_the_kernel(z, big):
    # the kernel would extrapolate from such points and overflow on the way
    values = np.full((400, 64), 1e306 if big else 1.0)
    u = GridFunction(DiskMesh(400, 64), values)
    with np.errstate(all="raise"), pytest.raises(ParameterError, match="off the closed unit disk"):
        u.interpolate(z)


def test_grid_function_keeps_a_read_only_copy():
    given = np.array([[1.0, 2.0]])
    u = GridFunction(DiskMesh(1, 2), given)
    given[0, 0] = np.inf
    assert u.values.tolist() == [[1.0, 2.0]]
    with pytest.raises(ValueError, match="read-only"):
        u.values[0, 0] = np.inf


@pytest.mark.parametrize("n_r", [1, 2])
@pytest.mark.parametrize("n_theta", [1, 2, 64])
def test_grid_function_buffer_seams(n_r, n_theta):
    given = np.random.default_rng(n_r * 100 + n_theta).standard_normal((n_r, n_theta))
    u = GridFunction(DiskMesh(n_r, n_theta), given)
    assert u.values.shape == (n_r, n_theta)
    assert u.values.tobytes() == given.tobytes()
    assert not u.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        u.values[-1, -1] = 0.0
    # each row wrapped by its last and first angle; row 0 repeats the last row
    padded = u._padded
    assert padded.shape == (n_r + 1, n_theta + 2)
    wrapped = np.concatenate([given[:, -1:], given, given[:, :1]], axis=1)
    assert padded[1:].tobytes() == wrapped.tobytes()
    assert padded[0].tobytes() == wrapped[-1].tobytes()


def test_grid_function_compares_by_identity():
    m = DiskMesh(2, 3)
    u, v = GridFunction(m, np.ones((2, 3))), GridFunction(m, np.ones((2, 3)))
    assert u == u and u != v
    assert hash(u) == hash(u)
    assert len({u, v, u}) == 2
    assert "_padded" not in repr(u)
