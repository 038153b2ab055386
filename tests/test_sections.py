import io
import json

import numpy as np
import pytest

from hermgeo import sampling, sections
from hermgeo.completion import integrability_report
from hermgeo.errors import HermGeoError, MeshMismatchError, NonFiniteError, ParameterError
from hermgeo.sections import (
    MetricSection,
    QuadratureMesh,
    ScalarField,
    TangentSection,
    conformal_distance,
    conformal_scale,
    flat_distance,
    gauge_apply,
    l2_inner,
    section_distance,
    section_geodesic,
    theta_metric,
)


def unit_mesh(rank=2, alpha=0.0, weights=(1.0,)):
    n = len(weights)
    return QuadratureMesh(rank=rank, ids=np.arange(n), weights=np.array(weights),
                          alphas=np.full(n, alpha))


def const_section(mesh, mat):
    return MetricSection(mesh, np.broadcast_to(
        np.asarray(mat, dtype=complex), (mesh.n_points,) + np.shape(mat)))


def test_mesh_validation():
    with pytest.raises(ValueError):
        QuadratureMesh(rank=2, ids=[0, 1], weights=[1.0, -1.0], alphas=[0, 0])
    with pytest.raises(ValueError):
        QuadratureMesh(rank=2, ids=[0, 0], weights=[1.0, 1.0], alphas=[0, 0])
    with pytest.raises(ValueError):
        QuadratureMesh(rank=2, ids=[0], weights=[1.0], alphas=[-0.5])


@pytest.mark.parametrize("kwargs,error,message", [
    ({"weights": [1.0, -1.0]}, ParameterError, "point id 1: quadrature weight"),
    ({"weights": [np.nan, 1.0]}, ParameterError, "point id 0: quadrature weight"),
    ({"weights": [1.0, np.inf]}, ParameterError, "point id 1: quadrature weight"),
    ({"ids": [3, 3]}, ParameterError, "point id 3: duplicate point id"),
    ({"alphas": [0.0, -0.5]}, ParameterError, "point id 1: alpha=-0.5"),
    ({"alphas": [np.inf, 0.0]}, ParameterError, "point id 0: alpha=inf"),
])
def test_mesh_errors_are_typed(kwargs, error, message):
    args = {"rank": 2, "ids": [0, 1], "weights": [1.0, 1.0], "alphas": [0.0, 0.0]}
    with pytest.raises(error, match=message) as info:
        QuadratureMesh(**{**args, **kwargs})
    assert isinstance(info.value, HermGeoError) and isinstance(info.value, ValueError)


def test_mesh_hash_identity():
    m1 = unit_mesh()
    m2 = unit_mesh()
    m3 = unit_mesh(alpha=0.1)
    assert m1.content_hash == m2.content_hash
    assert m1.content_hash != m3.content_hash


def test_mesh_mismatch_raises():
    h1 = const_section(unit_mesh(), np.eye(2))
    h2 = const_section(unit_mesh(alpha=0.1), np.eye(2))
    with pytest.raises(MeshMismatchError):
        section_distance(h1, h2)


def test_l2_inner_examples():
    mesh = unit_mesh()
    h = const_section(mesh, np.eye(2))
    v = TangentSection(mesh, np.stack([np.eye(2, dtype=complex)]))
    assert l2_inner(h, v, v) == pytest.approx(2.0)
    zero = TangentSection(mesh, np.zeros((1, 2, 2)))
    assert l2_inner(h, zero, v) == 0.0
    # weighted sum: fiber inners (1, 1) with weights (2, 3) -> 5
    mesh2 = unit_mesh(rank=1, weights=(2.0, 3.0))
    h2 = const_section(mesh2, [[1.0]])
    v2 = TangentSection(mesh2, np.ones((2, 1, 1)))
    assert l2_inner(h2, v2, v2) == pytest.approx(5.0)


def test_section_distance_pythagorean():
    mesh = unit_mesh(rank=1, weights=(1.0, 1.0))
    h1 = const_section(mesh, [[1.0]])
    h2 = MetricSection(mesh, np.array([np.exp(3.0), np.exp(4.0)]
                                      ).reshape(2, 1, 1).astype(complex))
    # fiber distances are 3 and 4 at alpha=0, rank 1
    assert section_distance(h1, h2) == pytest.approx(5.0, rel=1e-12)
    assert section_distance(h1, h1) == 0.0


def test_section_geodesic_endpoints_and_midpoint():
    rng = sampling.make_rng(50)
    mesh = sampling.random_mesh(rng, 2, 4)
    h1 = sampling.random_metric_section(rng, mesh)
    h2 = sampling.random_metric_section(rng, mesh)
    g0 = section_geodesic(h1, h2, 0.0)
    g1 = section_geodesic(h1, h2, 1.0)
    assert np.allclose(g0.values, h1.values)
    assert np.linalg.norm(g1.values - h2.values) \
        / np.linalg.norm(h2.values) < 1e-8
    mesh_e = unit_mesh()
    a = const_section(mesh_e, np.eye(2))
    b = const_section(mesh_e, np.exp(2.0) * np.eye(2))
    mid = section_geodesic(a, b, 0.5)
    assert np.allclose(mid.values[0], np.e * np.eye(2))


def test_geodesic_affinity():
    rng = sampling.make_rng(51)
    mesh = sampling.random_mesh(rng, 2, 3)
    h1 = sampling.random_metric_section(rng, mesh)
    h2 = sampling.random_metric_section(rng, mesh)
    d = section_distance(h1, h2)
    s, t = 0.2, 0.9
    ds = section_distance(section_geodesic(h1, h2, s),
                          section_geodesic(h1, h2, t))
    assert ds == pytest.approx((t - s) * d, rel=1e-9)


def test_conformal_distance():
    mesh = unit_mesh(rank=2, alpha=0.0)
    h = const_section(mesh, np.eye(2))
    f = ScalarField(mesh, np.array([2.0]))
    g = ScalarField(mesh, np.array([0.0]))
    assert conformal_distance(h, f, g) == pytest.approx(2.0 * np.sqrt(2.0))
    assert conformal_distance(h, f, f) == 0.0
    # rank 1, alpha 0: plain L2 norm of the exponent difference
    mesh1 = unit_mesh(rank=1, weights=(0.5, 1.5))
    h1 = const_section(mesh1, [[2.0]])
    rng = sampling.make_rng(52)
    f1 = sampling.random_scalar_field(rng, mesh1)
    g1 = sampling.random_scalar_field(rng, mesh1)
    diff = f1.values - g1.values
    assert conformal_distance(h1, f1, g1) == pytest.approx(
        np.sqrt((mesh1.weights * diff**2).sum()))


def test_conformal_matches_direct_distance():
    rng = sampling.make_rng(53)
    for _ in range(20):
        r = int(rng.integers(1, 4))
        alpha = float(rng.uniform(-1.0 / r + 1e-3, 1.0))
        mesh = sampling.random_mesh(rng, r, int(rng.integers(1, 6)), alpha=alpha)
        h = sampling.random_metric_section(rng, mesh)
        f = sampling.random_scalar_field(rng, mesh)
        g = sampling.random_scalar_field(rng, mesh)
        direct = section_distance(conformal_scale(h, f), conformal_scale(h, g))
        assert direct == pytest.approx(conformal_distance(h, f, g), rel=1e-10)


def test_conformal_distance_on_varying_alpha_mesh():
    # d(e^f h, e^g h)^2 = sum_i w_i r (1 + alpha_i r) (f_i - g_i)^2 holds
    # point by point, so alpha may vary across the mesh
    rng = sampling.make_rng(153)
    for r in (1, 2, 3):
        for n in (2, 5, 40):
            mesh = sampling.random_mesh(rng, r, n)
            assert np.ptp(mesh.alphas) > 0
            h = sampling.random_metric_section(rng, mesh)
            f = sampling.random_scalar_field(rng, mesh)
            g = sampling.random_scalar_field(rng, mesh)
            direct = section_distance(conformal_scale(h, f), conformal_scale(h, g))
            formula = conformal_distance(h, f, g)
            assert abs(direct - formula) <= 1e-12 * formula


def test_overflowing_weighted_sums_raise():
    # each term, weight 1e308 times a value above 2, overflows
    mesh = unit_mesh(alpha=0.5, weights=(1e308, 1e308))
    h1 = MetricSection(mesh, np.stack([np.eye(2)] * 2))
    h2 = MetricSection(mesh, 10.0 * h1.values)
    v = TangentSection(mesh, h1.values)
    f, g = ScalarField(mesh, [0.0, 1.0]), ScalarField(mesh, [2.0, -1.0])
    # (f - g)^2 itself overflows here
    big, small = ScalarField(mesh, [0.0, 1e200]), ScalarField(mesh, [0.0, -1e200])
    for segment in (None, [0, 1]):
        for call in (lambda: l2_inner(h1, v, v, segment=segment),
                     lambda: section_distance(h1, h2, segment=segment),
                     lambda: theta_metric(h1, h2, segment=segment),
                     lambda: conformal_distance(h1, f, g, segment=segment),
                     lambda: conformal_distance(h1, big, small, segment=segment)):
            with pytest.raises(NonFiniteError, match="overflows"):
                call()
    for call in (lambda: integrability_report(h2, h1), lambda: mesh.volume):
        with pytest.raises(NonFiniteError, match="overflows"):
            call()


def test_overflowing_conformal_factor_names_its_point():
    # exp overflows without a RuntimeWarning, which tier-1 makes an error
    mesh = unit_mesh(weights=(1.0, 1.0))
    h = MetricSection(mesh, np.stack([np.eye(2)] * 2))
    with pytest.raises(NonFiniteError, match="^point id 1: matrix has a non-finite"):
        conformal_scale(h, ScalarField(mesh, [0.0, 800.0]))
    with pytest.raises(NonFiniteError, match="^point id 1: scalar field has a non-finite"):
        ScalarField(mesh, [0.0, np.nan])


def test_gauge_examples():
    rng = sampling.make_rng(54)
    mesh = sampling.random_mesh(rng, 2, 3)
    h = sampling.random_metric_section(rng, mesh)
    ident = sections.GaugeTransform(
        mesh, np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)))
    assert np.allclose(gauge_apply(ident, h).values, h.values)
    c = 2.0 + 1.0j
    scalar = sections.GaugeTransform(
        mesh, np.broadcast_to(c * np.eye(2), (3, 2, 2)))
    assert np.allclose(gauge_apply(scalar, h).values, abs(c) ** 2 * h.values)
    # unitary gauge fixes the identity section
    th = 0.7
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
                 dtype=complex)
    unitary = sections.GaugeTransform(mesh, np.broadcast_to(u, (3, 2, 2)))
    eye_sec = const_section(mesh, np.eye(2))
    assert np.allclose(gauge_apply(unitary, eye_sec).values, eye_sec.values)


def test_gauge_invariance():
    rng = sampling.make_rng(55)
    for _ in range(20):
        r = int(rng.integers(1, 4))
        mesh = sampling.random_mesh(rng, r, int(rng.integers(1, 5)))
        h = sampling.random_metric_section(rng, mesh)
        h2 = sampling.random_metric_section(rng, mesh)
        v = sampling.random_tangent_section(rng, mesh)
        w = sampling.random_tangent_section(rng, mesh)
        phi = sampling.random_gauge(rng, mesh)
        base = l2_inner(h, v, w)
        moved = l2_inner(gauge_apply(phi, h), gauge_apply(phi, v),
                         gauge_apply(phi, w))
        assert abs(moved - base) <= 1e-10 * (1.0 + abs(base))
        d0 = section_distance(h, h2)
        d1 = section_distance(gauge_apply(phi, h), gauge_apply(phi, h2))
        assert d1 == pytest.approx(d0, rel=1e-9)


def test_theta_lower_bound():
    rng = sampling.make_rng(56)
    for _ in range(30):
        r = int(rng.integers(1, 4))
        mesh = sampling.random_mesh(rng, r, int(rng.integers(1, 10)))
        h1 = sampling.random_metric_section(rng, mesh)
        h2 = sampling.random_metric_section(rng, mesh)
        assert section_distance(h1, h2) \
            >= theta_metric(h1, h2) / np.sqrt(mesh.volume) - 1e-10
    # single unit-weight point: theta reduces to the fiber distance
    mesh = unit_mesh()
    a = const_section(mesh, np.eye(2))
    b = const_section(mesh, np.diag([4.0, 0.25]))
    assert theta_metric(a, b) == pytest.approx(np.sqrt(2.0) * np.log(4.0))
    assert theta_metric(a, a) == 0.0


def test_triangle_inequality():
    rng = sampling.make_rng(57)
    for _ in range(100):
        r = int(rng.integers(1, 4))
        mesh = sampling.random_mesh(rng, r, int(rng.integers(1, 5)))
        a = sampling.random_metric_section(rng, mesh)
        b = sampling.random_metric_section(rng, mesh)
        c = sampling.random_metric_section(rng, mesh)
        assert section_distance(a, c) <= section_distance(a, b) \
            + section_distance(b, c) + 1e-10


def test_flat_structure():
    mesh = unit_mesh()
    h0 = const_section(mesh, np.eye(2))
    h1 = const_section(mesh, 2.0 * np.eye(2))
    assert flat_distance(h0, h1, h1) == 0.0
    assert flat_distance(h0, h1, const_section(mesh, np.eye(2))) \
        == pytest.approx(np.sqrt(2.0))
    v = TangentSection(mesh, np.stack([np.eye(2, dtype=complex)]))
    assert l2_inner(h0, v, v) == pytest.approx(2.0)


def test_flat_segment_length():
    # straight segments have flat length equal to the flat distance
    rng = sampling.make_rng(58)
    mesh = sampling.random_mesh(rng, 2, 3)
    h0 = sampling.random_metric_section(rng, mesh)
    h1 = sampling.random_metric_section(rng, mesh)
    h2 = sampling.random_metric_section(rng, mesh)
    n = 50
    length = 0.0
    for k in range(n):
        a = MetricSection(mesh, h1.values + (k / n) * (h2.values - h1.values))
        b = MetricSection(mesh, h1.values + ((k + 1) / n) * (h2.values - h1.values))
        length += flat_distance(h0, a, b)
    assert length == pytest.approx(flat_distance(h0, h1, h2), rel=1e-9)


def test_json_roundtrip():
    rng = sampling.make_rng(59)
    mesh = sampling.random_mesh(rng, 2, 3)
    h = sampling.random_metric_section(rng, mesh)
    obj = sections.section_to_json(h)
    text = json.dumps(obj, sort_keys=True)
    back = sections.section_from_json(json.loads(text))
    assert isinstance(back, MetricSection)
    assert back.mesh.content_hash == h.mesh.content_hash
    assert np.allclose(back.values, h.values)
    assert json.dumps(sections.section_to_json(back), sort_keys=True) == text

    v = sampling.random_tangent_section(rng, mesh)
    assert isinstance(
        sections.section_from_json(sections.section_to_json(v)),
        TangentSection)


def test_geodesic_csv():
    mesh = unit_mesh()
    a = const_section(mesh, np.eye(2))
    b = const_section(mesh, np.exp(2.0) * np.eye(2))
    buf = io.StringIO()
    sections.write_geodesic_csv(a, b, 3, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 1 + 3 * mesh.n_points
    header = lines[0].split(",")
    assert header[:2] == ["t", "point_id"]
    assert len(header) == 2 + 2 * 4
    mid = lines[2].split(",")
    assert float(mid[0]) == 0.5
    assert float(mid[2]) == pytest.approx(np.e)


STACK_MAKERS = {
    MetricSection: lambda rng, r: sampling.random_posdef(rng, r),
    TangentSection: lambda rng, r: sampling.random_hermitian(rng, r),
    sections.GaugeTransform:
        lambda rng, r: np.eye(r) + 0.1 * sampling.random_hermitian(rng, r),
    ScalarField: lambda rng, r: rng.uniform(-1.0, 1.0),
}


@pytest.mark.parametrize("cls", list(STACK_MAKERS), ids=lambda c: c.__name__)
def test_validated_stacks_are_read_only_copies(cls):
    # section ops trust what the constructors checked, so the stored
    # stacks must not change afterwards, and the caller's arrays must
    # stay the caller's
    rng = sampling.make_rng(5)
    ids, weights, alphas = np.array([1, 0]), np.array([1.0, 2.0]), np.array([0.0, 0.5])
    mesh = QuadratureMesh(rank=2, ids=ids, weights=weights, alphas=alphas)
    vals = np.stack([STACK_MAKERS[cls](rng, 2) for _ in range(2)])
    section = cls(mesh, vals)
    # a metric section's roots as well
    for stored in (section.values, mesh.ids, mesh.weights, mesh.alphas,
                   *getattr(section, "roots", ())):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = stored[1]
    for given in (vals, ids, weights, alphas):
        assert given.flags.writeable
    vals[0] = vals[1]
    assert not np.array_equal(section.values[0], section.values[1])
