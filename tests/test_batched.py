"""Stacked section operations against per-point loops of single-matrix calls.

The section ops hand whole (n, r, r) stacks to the fiber and linalg
functions; a single matrix is the empty-batch case of the same code.
These tests pin the stacked results to a Python loop over the points at
1e-12 relative, on seeded data with condition numbers up to 1e12 and
exp arguments near the overflow guard, and check that an error about
one matrix of a stack names its mesh point id.  Section ops call the
unvalidated kernels on their validated stacks: a cost model pins their
eigensolve and validation counts per call, and a fuzz drives them past
every guard.  The geodesic's endpoint frame is gated against the
log-then-exp route it replaced, kept here in plain numpy, and against a
40-digit mpmath reference.
"""

import csv
import io

import mpmath
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hermgeo import disk, fiber, linalg
from hermgeo.completion import integrability_report
from hermgeo.errors import (
    HermGeoError,
    NonFiniteError,
    NotHermitianError,
    NotPositiveDefiniteError,
    OverflowGuardError,
)
from hermgeo.sections import (
    GaugeTransform,
    MetricSection,
    QuadratureMesh,
    TangentSection,
    gauge_apply,
    l2_inner,
    section_distance,
    section_geodesic,
    theta_metric,
    write_geodesic_csv,
)

REL = 1e-12
MAX_COND = 1e12
NEAR_GUARD = linalg.EXP_OVERFLOW_GUARD - 10.0
RANKS = (1, 2, 4, 8)
SIZES = (1, 50)


def _dagger(a):
    return np.conj(a).swapaxes(-1, -2)


def _from_spectrum(u, w):
    m = (u * w[..., None, :]) @ _dagger(u)
    return (m + _dagger(m)) / 2


def _unitary(rng, n, r):
    g = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    return np.linalg.qr(g)[0]


def _hermitian(rng, n, r, scale=1.0):
    g = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    return scale * (g + _dagger(g)) / 2


# (largest condition number of p, centre of the log-spectrum of S)
REGIMES = {"ill": (MAX_COND, 0.0), "guard": (1e2, NEAR_GUARD), "mild": (1e4, 0.0)}


def _case(rank, n, seed, regime):
    """Seeded mesh and sections with plain-numpy construction.

    ``p`` has log-condition numbers spread up to that of the regime
    (point 0 sits exactly at it when rank > 1); ``q = p^{1/2} e^S
    p^{1/2}``, where the eigenvalues of S lie within 5 of the regime's
    centre: just below the exp guard in the "guard" regime.
    """
    max_cond, centre = REGIMES[regime]
    rng = np.random.default_rng(seed)
    spread = rng.uniform(0.0, np.log(max_cond), n)
    spread[0] = np.log(max_cond)
    x = np.sort(rng.uniform(-0.5, 0.5, (n, rank)), axis=-1)
    x[:, 0], x[:, -1] = -0.5, 0.5
    logs = spread[:, None] * x
    u = _unitary(rng, n, rank)
    p = _from_spectrum(u, np.exp(logs))
    p_half = _from_spectrum(u, np.exp(logs / 2))
    s = centre + rng.uniform(-5.0, 5.0, (n, rank))
    e = _from_spectrum(_unitary(rng, n, rank), np.exp(s))
    q = p_half @ e @ p_half
    q = (q + _dagger(q)) / 2
    mesh = QuadratureMesh(rank=rank, ids=np.arange(n),
                          weights=rng.uniform(0.1, 2.0, n),
                          alphas=rng.uniform(-1.0 / rank + 0.01, 1.0, n))
    return mesh, p, q, rng


def _assert_scalar(got, want, scale):
    assert abs(got - want) <= REL * scale


def _assert_stack(got, want):
    # largest entries, not Frobenius norms, which overflow near the exp guard
    err = np.abs(got - want).max(axis=(-2, -1))
    assert np.all(err <= REL * np.abs(want).max(axis=(-2, -1)))


cases = pytest.mark.parametrize("rank,n,regime", [
    (r, n, regime) for r in RANKS for n in SIZES for regime in ("ill", "guard")])


@cases
def test_distance_and_theta_match_point_loop(rank, n, regime):
    mesh, p, q, _ = _case(rank, n, 10 * rank + n, regime)
    d = np.array([fiber.fiber_distance(p[i], q[i], mesh.alphas[i]) for i in range(n)])
    h1, h2 = MetricSection(mesh, p), MetricSection(mesh, q)
    want = np.sqrt((mesh.weights * d**2).sum())
    _assert_scalar(section_distance(h1, h2), want, want)
    want = (mesh.weights * d).sum()
    _assert_scalar(theta_metric(h1, h2), want, want)


@cases
def test_l2_inner_matches_point_loop(rank, n, regime):
    mesh, p, _, rng = _case(rank, n, 20 * rank + n, regime)
    v, w = _hermitian(rng, n, rank), _hermitian(rng, n, rank)
    terms = mesh.weights * np.array(
        [fiber.alpha_inner(p[i], v[i], w[i], mesh.alphas[i]) for i in range(n)])
    got = l2_inner(MetricSection(mesh, p), TangentSection(mesh, v),
                   TangentSection(mesh, w))
    _assert_scalar(got, terms.sum(), np.abs(terms).sum())


@cases
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_section_geodesic_matches_point_loop(rank, n, regime, t):
    mesh, p, q, _ = _case(rank, n, 30 * rank + n, regime)
    want = np.stack([fiber._geodesic(
        p[i], fiber._frame(linalg._roots(p[i]), q[i], endpoint=True), t) for i in range(n)])
    got = section_geodesic(MetricSection(mesh, p), MetricSection(mesh, q), t)
    _assert_stack(got.values, want)


def _old_route(p, q, t):
    """The geodesic route the endpoint frame replaced, in plain numpy: the
    log map a = p^{1/2} log(p^{-1/2} q p^{-1/2}) p^{1/2}, whitened again
    and exponentiated at t, p^{1/2} exp(t p^{-1/2} a p^{-1/2}) p^{1/2}."""
    w, u = np.linalg.eigh(p)
    ps, psi = _from_spectrum(u, np.sqrt(w)), _from_spectrum(u, 1.0 / np.sqrt(w))
    w, u = np.linalg.eigh(_hermitian_part(psi @ q @ psi))
    a = _hermitian_part(ps @ _from_spectrum(u, np.log(w)) @ ps)
    w, u = np.linalg.eigh(t * _hermitian_part(psi @ a @ psi))
    return _hermitian_part(ps @ _from_spectrum(u, np.exp(w)) @ ps)


def _hermitian_part(a):
    return (a + _dagger(a)) / 2


ROUTE_TIMES = (0.25, 0.5, 0.75)


@pytest.mark.parametrize("rank", RANKS)
def test_frame_route_matches_old_route(rank):
    mesh, p, q, _ = _case(rank, 50, 110 + rank, "mild")
    h1, h2 = MetricSection(mesh, p), MetricSection(mesh, q)
    for t in ROUTE_TIMES:
        _assert_stack(section_geodesic(h1, h2, t).values, _old_route(p, q, t))


def _mp_geodesic(hs, m, t):
    """hs m^t hs in 40 digits, from the float64 matrices hs and m."""
    with mpmath.workdps(40):
        mu, u = mpmath.eighe(mpmath.matrix(m.tolist()))
        hs = mpmath.matrix(hs.tolist())
        g = hs * u * mpmath.diag([x ** mpmath.mpf(t) for x in mu]) * u.transpose_conj() * hs
        return np.array(g.tolist(), dtype=complex)


@pytest.mark.parametrize("regime", ["ill", "guard"])
@pytest.mark.parametrize("rank", [2, 4])
def test_frame_route_no_further_from_reference(rank, regime):
    # Both routes first form p^{1/2}, p^{-1/2} and the whitened endpoint
    # m = p^{-1/2} q p^{-1/2}, bit for bit alike, and part after m.  The
    # rounding of those shared steps (up to cond(p) eps, about 1e-4 in the
    # "ill" regime) is the same for both and would swamp their difference,
    # so the reference takes them as exact and follows p^{1/2} m^t p^{1/2}
    # from there in 40 digits.
    mesh, p, q, _ = _case(rank, 4, 120 + rank, regime)
    h1, h2 = MetricSection(mesh, p), MetricSection(mesh, q)
    hs, hsi = linalg._roots(p)
    m = linalg.hermitian_part(hsi @ q @ hsi)
    errors = {"frame": [], "old": []}
    for t in ROUTE_TIMES:
        want = np.stack([_mp_geodesic(hs[i], m[i], t) for i in range(len(p))])
        scale = np.abs(want).max(axis=(-2, -1))
        for route, got in (("frame", section_geodesic(h1, h2, t).values),
                           ("old", _old_route(p, q, t))):
            errors[route].append(np.abs(got - want).max(axis=(-2, -1)) / scale)
    assert np.max(errors["frame"]) <= np.max(errors["old"])


@cases
def test_gauge_apply_matches_point_loop(rank, n, regime):
    mesh, p, _, rng = _case(rank, n, 40 * rank + n, regime)
    g = rng.standard_normal((n, rank, rank)) + 1j * rng.standard_normal((n, rank, rank))
    phi = np.eye(rank) + 0.5 * g / np.linalg.norm(g, axis=(-2, -1))[:, None, None]
    want = np.stack([linalg.hermitian(phi[i].conj().T @ p[i] @ phi[i])
                     for i in range(n)])
    got = gauge_apply(GaugeTransform(mesh, phi), MetricSection(mesh, p))
    _assert_stack(got.values, want)


@cases
def test_integrability_and_boundedness_match_point_loop(rank, n, regime):
    mesh, p, q, _ = _case(rank, n, 50 * rank + n, regime)
    logs = np.log(np.stack([linalg.relative_spectrum(p[i], q[i]) for i in range(n)]))
    w = mesh.weights
    det_sq = logs.sum(axis=-1) ** 2
    sigma = MetricSection(mesh, tuple(q))
    rep = integrability_report(sigma, MetricSection(mesh, p))
    for got, f in ((rep.l2_log_lambda_min, logs[:, 0] ** 2),
                   (rep.l2_log_lambda_max, logs[:, -1] ** 2),
                   (rep.l2_log_det, det_sq),
                   (rep.l2_distance, (logs**2).sum(axis=-1) + mesh.alphas * det_sq)):
        want = np.sqrt((w * f).sum())
        _assert_scalar(got, want, want)
    top = max(linalg.relative_spectrum(p[i], q[i])[-1] for i in range(n))
    _assert_scalar(disk.boundedness_bound(sigma, MetricSection(mesh, p)), top, top)


@cases
def test_dual_section_matches_point_loop(rank, n, regime):
    # the inverse of a matrix loses about cond * eps of its symmetry, so
    # the dual of the ill-conditioned p would fail the Hermitian check
    mesh, p, _, _ = _case(rank, n, 60 * rank + n, "mild" if regime == "ill" else regime)
    want = np.stack([np.linalg.inv(p[i]).T for i in range(n)])
    got = disk.dual_section(MetricSection(mesh, p))
    _assert_stack(got.values, want)


@pytest.mark.parametrize("rank", RANKS)
def test_section_distance_matches_plain_numpy_reference(rank):
    mesh, p, q, _ = _case(rank, 50, 70 + rank, "mild")
    lam = np.linalg.eigvals(np.linalg.solve(p, q)).real
    logs = np.log(lam)
    want = np.sqrt((mesh.weights * ((logs**2).sum(axis=-1)
                                    + mesh.alphas * logs.sum(axis=-1) ** 2)).sum())
    got = section_distance(MetricSection(mesh, p), MetricSection(mesh, q))
    assert got == pytest.approx(want, rel=1e-9)


def _spoil(kind, m):
    """Make one matrix non-Hermitian, indefinite or non-finite."""
    m = m.copy()
    if kind == "hermitian":
        m[0, -1] += 1.0 + 1j if m.shape[-1] > 1 else 1j
    elif kind == "posdef":
        m[:] = -np.eye(m.shape[-1])
    else:
        m[0, 0] = np.nan
    return m


ERRORS = {"hermitian": NotHermitianError, "posdef": NotPositiveDefiniteError,
          "finite": NonFiniteError}


@pytest.mark.parametrize("kind", sorted(ERRORS))
@pytest.mark.parametrize("rank,n,k", [(1, 1, 0), (2, 50, 17), (4, 50, 49), (8, 50, 0)])
def test_bad_matrix_error_names_its_point(kind, rank, n, k):
    mesh, p, _, _ = _case(rank, n, 80 + rank, "mild")
    p[k] = _spoil(kind, p[k])
    with pytest.raises(ERRORS[kind], match=f"^point id {k}: "):
        MetricSection(mesh, p)
    # the linalg route the constructor takes: hermitian, then the roots
    with pytest.raises(ERRORS[kind]) as info:
        linalg.sqrtm_posdef(p)
    assert info.value.index == k and str(info.value).startswith(f"at index {k}: ")
    with pytest.raises(ERRORS[kind]) as info:
        linalg.sqrtm_posdef(p[k])
    assert info.value.index is None


def test_stacked_guard_names_its_point():
    mesh, p, _, _ = _case(2, 50, 90, "mild")
    far = p.copy()
    far[23] = p[23] * np.exp(400.0)
    h1, h2 = MetricSection(mesh, p), MetricSection(mesh, far)
    section_geodesic(h1, h2, 1.0)
    # extrapolating to t = 2 doubles the exp argument past the guard
    with pytest.raises(OverflowGuardError, match="^point id 23: eigenvalue magnitude"):
        section_geodesic(h1, h2, 2.0)


def _eigvalsh_sees_nonpositive(seed=0):
    """A rank-3 matrix near condition 1e16 that eigh, which the roots use,
    accepts but on which eigvalsh, which the relative spectrum uses, finds
    a nonpositive eigenvalue: the first hit of the construction that
    tests/test_linalg.py searches."""
    rng = np.random.default_rng(seed)
    while True:
        w = np.array([10.0 ** rng.uniform(-17.5, -15.5), *rng.uniform(0.5, 2.0, 2)])
        p = _from_spectrum(_unitary(rng, 1, 3)[0], w)
        if np.linalg.eigh(p)[0][0] > 0 >= np.linalg.eigvalsh(p)[0]:
            return p


@pytest.mark.parametrize("op", [integrability_report, disk.boundedness_bound])
def test_relative_spectrum_error_names_its_point(op):
    # the section accepts the matrix; the spectrum relative to the
    # identity base is its eigvalsh spectrum, which rejects it
    mesh = QuadratureMesh(rank=3, ids=[10, 20, 30], weights=[1.0] * 3, alphas=[0.0] * 3)
    eye = np.broadcast_to(np.eye(3, dtype=complex), (3, 3, 3))
    sigma = MetricSection(mesh, np.stack([eye[0], _eigvalsh_sees_nonpositive(), eye[0]]))
    with pytest.raises(NotPositiveDefiniteError,
                       match="^point id 20: relative spectrum has nonpositive value"):
        op(sigma, MetricSection(mesh, eye))


@pytest.mark.parametrize("n", SIZES)
def test_section_ops_cost_model(counts, n):
    # per call, whatever the mesh size: a metric section's construction
    # validates it and factors its roots, which every op then reuses;
    # only the geodesic point, a computed result, is validated again
    mesh, p, q, _ = _case(2, n, 100 + n, "mild")
    counts.clear()
    h1 = MetricSection(mesh, p)
    assert counts == {"eig": 1, "hermitian": 1}
    h2 = MetricSection(mesh, q)
    counts.clear()
    section_distance(h1, h2)
    assert counts == {"eig": 1}
    v, w = TangentSection(mesh, q), TangentSection(mesh, p)
    counts.clear()
    l2_inner(h1, v, w)
    assert counts == {}
    counts.clear()
    # the endpoint frame, then the roots of the result
    section_geodesic(h1, h2, 0.5)
    assert counts == {"eig": 2, "hermitian": 1}
    # the endpoint frame, whatever the step count
    for steps in (2, 11):
        counts.clear()
        write_geodesic_csv(h1, h2, steps, io.StringIO())
        assert counts == {"eig": 1}


def test_raufi_integrability_cost_model(counts):
    # the disk example's spectrum is in closed form: no eigensolve and no
    # validation, whatever the mesh size
    disk.raufi_integrability(disk.DiskMesh(100, 32), 0.7)
    assert counts == {}


LOG_COND_GUARD = np.log(linalg.COND_GUARD)


@st.composite
def _metric_pair(draw):
    """Seeded stacks of ranks 1-4 on 1-4 points.  Each matrix's
    log-spectrum spreads up to 1.2 times log(COND_GUARD); its centre lies
    within half the exp guard for p and within the whole guard for q, so
    log(p^{-1} q) reaches the guard at t in [0, 1] and crosses it at
    t in [-2, 3], and some q overflow before they reach the boundary."""
    rank, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mesh = QuadratureMesh(rank=rank, ids=np.arange(n), weights=rng.uniform(0.1, 2.0, n),
                          alphas=rng.uniform(-1.0 / rank + 0.01, 1.0, n))
    stacks = []
    for reach in (0.5, 1.0):
        centre = rng.uniform(-reach, reach) * linalg.EXP_OVERFLOW_GUARD
        spread = rng.uniform(0.0, 1.2) * LOG_COND_GUARD
        x = np.sort(rng.uniform(-0.5, 0.5, (n, rank)), axis=-1)
        if rank > 1:
            x[:, 0], x[:, -1] = -0.5, 0.5
        stacks.append(_from_spectrum(_unitary(rng, n, rank), np.exp(centre + spread * x)))
    return mesh, stacks[0], stacks[1]


def _csv_numbers(h1, h2):
    out = io.StringIO()
    write_geodesic_csv(h1, h2, 5, out)
    rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
    return np.array([float(x) for row in rows for x in row[2:]])


FUZZ_OPS = {
    "distance": lambda h1, h2, t: section_distance(h1, h2),
    "geodesic": lambda h1, h2, t: section_geodesic(h1, h2, t).values,
    "csv": lambda h1, h2, t: _csv_numbers(h1, h2),
}


# numpy warns about the overflows these inputs are built to cause
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("op", sorted(FUZZ_OPS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pair=_metric_pair(), t=st.floats(-2.0, 3.0))
def test_guards_hold_on_the_unvalidated_path(op, pair, t):
    mesh, p, q = pair
    try:
        out = FUZZ_OPS[op](MetricSection(mesh, p), MetricSection(mesh, q), t)
    except HermGeoError as exc:
        event(type(exc).__name__)  # shown by pytest --hypothesis-show-statistics
        return
    assert np.all(np.isfinite(out))
