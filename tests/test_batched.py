"""Stacked section operations against per-point loops of single-matrix calls.

The section ops hand whole (n, r, r) stacks to the fiber and linalg
functions; a single matrix is the empty-batch case of the same code.
These tests pin the stacked results to a Python loop over the points at
1e-12 relative, on seeded data with condition numbers up to 1e12 and
exp arguments near the overflow guard, and check that an error about
one matrix of a stack names its mesh point id.  Section ops call the
unvalidated kernels on their validated stacks: a cost model pins their
eigensolve and validation counts per call, and a fuzz drives them past
every guard.
"""

import collections
import csv
import io

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hermgeo import disk, fiber, linalg
from hermgeo.completion import SingularSection, integrability_report
from hermgeo.errors import (
    HermGeoError,
    MeasureInconsistencyError,
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
    want = np.stack([fiber.geodesic_eval(
        fiber.FiberGeodesic(p[i], fiber.log_map(p[i], q[i])), t) for i in range(n)])
    got = section_geodesic(MetricSection(mesh, p), MetricSection(mesh, q), t)
    _assert_stack(got.values, want)


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
    sigma = SingularSection(mesh, tuple(q))
    rep = integrability_report(sigma, MetricSection(mesh, p))
    for got, f in ((rep.l2_log_lambda_min, logs[:, 0] ** 2),
                   (rep.l2_log_lambda_max, logs[:, -1] ** 2),
                   (rep.l2_log_det, det_sq),
                   (rep.l2_distance, (logs**2).sum(axis=-1) + mesh.alphas * det_sq)):
        want = np.sqrt((w * f).sum())
        _assert_scalar(got, want, want)
    top = max(linalg.relative_spectrum(p[i], q[i])[-1] for i in range(n))
    _assert_scalar(disk.boundedness_bound(sigma, MetricSection(mesh, p)), top, top)


def test_boundedness_rejects_weighted_degenerate_points():
    # as integrability_report does: a degenerate point with positive
    # weight is not on the nullset, so it is not skipped
    mesh, p, q, _ = _case(2, 5, 7, "ill")
    sigma = SingularSection(mesh, (None,) + tuple(q[1:]))
    assert sigma.degenerate_ids == [0]
    with pytest.raises(MeasureInconsistencyError, match="degenerate point id 0"):
        disk.boundedness_bound(sigma, MetricSection(mesh, p))


@cases
def test_dual_section_matches_point_loop(rank, n, regime):
    # the inverse of a matrix loses about cond * eps of its symmetry, so
    # the dual of the ill-conditioned p would fail the Hermitian check
    mesh, p, _, _ = _case(rank, n, 60 * rank + n, "mild" if regime == "ill" else regime)
    want = np.stack([np.linalg.inv(p[i]).T for i in range(n)])
    got = disk.dual_section(SingularSection(mesh, p))
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
    with pytest.raises(ERRORS[kind]) as info:
        linalg.posdef(p)
    assert info.value.index == k and str(info.value).startswith(f"at index {k}: ")
    with pytest.raises(ERRORS[kind]) as info:
        linalg.posdef(p[k])
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


@pytest.fixture
def counts(monkeypatch):
    """Count eigensolves and the linalg validators while a test runs."""
    seen = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted("eig", getattr(np.linalg, name)))
    for name in ("hermitian", "posdef"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    return seen


@pytest.mark.parametrize("n", SIZES)
def test_section_ops_cost_model(counts, n):
    # per call, whatever the mesh size: only the geodesic point, a
    # computed result, is validated again
    mesh, p, q, _ = _case(2, n, 100 + n, "mild")
    h1, h2 = MetricSection(mesh, p), MetricSection(mesh, q)
    counts.clear()
    section_distance(h1, h2)
    assert counts == {"eig": 2}
    counts.clear()
    section_geodesic(h1, h2, 0.5)
    assert counts == {"eig": 4, "hermitian": 1, "posdef": 1}
    for steps in (2, 11):
        counts.clear()
        write_geodesic_csv(h1, h2, steps, io.StringIO())
        assert counts == {"eig": steps + 1}


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
