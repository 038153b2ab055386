"""The linear algebra kernel, and an accuracy table of the ops built on it;
the references (wide pairs, roots route, 40 digits) are tests/reference.py's."""

import numpy as np
import pytest
import reference

from hermgeo import fiber, linalg
from hermgeo.errors import (
    DimensionError,
    HermGeoError,
    IllConditionedError,
    NonFiniteError,
    NotHermitianError,
    NotPositiveDefiniteError,
    OverflowGuardError,
)
from hermgeo.sections import (
    MetricSection,
    QuadratureMesh,
    TangentSection,
    _relative_spectra,
    l2_inner,
    section_distance,
    section_geodesic,
    write_geodesic_csv,
)


def test_hermitian_validation():
    a = linalg.hermitian([[2, 1j], [-1j, 2]])
    assert np.allclose(a, a.conj().T)
    with pytest.raises(NotHermitianError):
        linalg.hermitian([[0, 1], [0, 0]])
    with pytest.raises(DimensionError):
        linalg.hermitian(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        linalg.hermitian(np.eye(65))


def test_hermitian_entries_near_the_float_limit():
    # each diagonal entry is halved before the two halves are added
    big = np.diag([1e308, 1.0]) + 0j
    assert np.array_equal(linalg.hermitian(big), big)
    with pytest.raises(NotHermitianError, match="asymmetry 1.000e"):
        linalg.hermitian([[1e308, 1e308], [-1e308, 1.0]])
    # an entry whose modulus overflows leaves no finite matrix to check
    z = 1.5e308 + 1.5e308j
    with pytest.raises(NonFiniteError, match="modulus overflows"):
        linalg.hermitian([[1.0, z], [np.conj(z), 1.0]])


def test_hermitian_part_sums_halves_near_the_float_limit():
    # the two entries' sum overflows, the sum of their halves does not
    a = np.array([[1.0, 1.7e308], [1.7e308, 1.0]], dtype=complex)
    assert np.array_equal(linalg.hermitian_part(a), a)
    assert np.array_equal(linalg.hermitian(a), a)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("r", [1, 2, 3, 8])
def test_hermitian_part_is_the_half_sum_bit_for_bit(r, scale):
    rng = np.random.default_rng(r)
    a = scale * (rng.standard_normal((6, r, r)) + 1j * rng.standard_normal((6, r, r)))
    got = linalg.hermitian_part(a)
    assert got.tobytes() == ((a + np.conj(a).swapaxes(-1, -2)) / 2).tobytes()
    # oracle._dots views a Hermitian part as floats, which needs this layout
    assert got.flags.c_contiguous


def test_posdef_rejects_indefinite():
    # the roots decide positivity, for linalg and a metric section alike
    mesh = QuadratureMesh(rank=2, ids=[5], weights=[1.0], alphas=[0.0])
    for check in (linalg.sqrtm_posdef, lambda p: MetricSection(mesh, p[None])):
        with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue"):
            check(np.diag([1.0, -1.0]))


def test_eig_diagonal():
    w, u = linalg.eig_hermitian(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(u), [[0, 1], [1, 0]])


def test_eig_offdiagonal():
    w, _ = linalg.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_complex_hand_solved():
    # char poly lam^2 - 4 lam + 3 = 0 -> (1, 3)
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    w, u = linalg.eig_hermitian(a)
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)
    recon = (u * w) @ u.conj().T
    assert np.linalg.norm(recon - a) / np.linalg.norm(a) < 1e-10
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-10


def test_eig_trace_det_consistency():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(20):
        r = int(rng.integers(2, 7))
        a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        a = reference.hermitian_part(a)
        w, _ = linalg.eig_hermitian(a)
        assert abs(w.sum() - np.trace(a).real) <= 1e-10 * max(1, abs(w).sum())
        det = np.linalg.det(a).real
        assert abs(np.prod(w) - det) <= 1e-10 * max(1, abs(det))


def test_sqrtm():
    assert np.allclose(linalg.sqrtm_posdef(np.eye(3)), np.eye(3))
    assert np.allclose(linalg.sqrtm_posdef(np.diag([4.0, 9.0])),
                       np.diag([2.0, 3.0]))
    p = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = linalg.sqrtm_posdef(p)
    assert np.linalg.norm(root @ root - p) / np.linalg.norm(p) < 1e-10


def test_expm():
    assert np.allclose(linalg.expm_hermitian(np.zeros((2, 2))), np.eye(2))
    assert np.allclose(linalg.expm_hermitian(np.diag([1.0, -1.0])),
                       np.diag([np.e, 1 / np.e]))
    t = 0.7
    a = np.array([[0.0, t], [t, 0.0]])
    expect = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    assert np.allclose(linalg.expm_hermitian(a), expect, atol=1e-12)


def test_expm_series_oracle():
    rng = np.random.Generator(np.random.Philox(12))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = reference.hermitian_part(a)
    series = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        series = series + term
    assert np.linalg.norm(linalg.expm_hermitian(a) - series) < 1e-12 * np.linalg.norm(series)


def test_expm_overflow_guard():
    with pytest.raises(OverflowGuardError):
        linalg.expm_hermitian(np.diag([701.0, 0.0]))


def test_logm():
    assert np.allclose(linalg.logm_posdef(np.eye(2)), np.zeros((2, 2)))
    assert np.allclose(linalg.logm_posdef(np.diag([np.e**2, np.e**-1])),
                       np.diag([2.0, -1.0]))


def test_logm_condition_guard():
    with pytest.raises(IllConditionedError):
        linalg.logm_posdef(np.diag([1e15, 1e-15]))


def test_exp_log_roundtrip():
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(20):
        r = int(rng.integers(2, 6))
        a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        a = reference.hermitian_part(a)
        a *= min(1.0, 50.0 / np.linalg.norm(a))
        back = linalg.logm_posdef(linalg.expm_hermitian(a))
        assert np.linalg.norm(back - a) / max(np.linalg.norm(a), 1) < 1e-9


def test_relative_spectrum_values():
    p = np.diag([1.0, 4.0])
    assert np.allclose(linalg.relative_spectrum(p, p), [1.0, 1.0])
    assert np.allclose(linalg.relative_spectrum(np.eye(2), np.diag([4.0, 0.25])),
                       [0.25, 4.0])
    assert np.allclose(linalg.relative_spectrum(np.diag([1.0, 4.0]),
                                                np.diag([1.0, 8.0])),
                       [1.0, 2.0])
    with pytest.raises(DimensionError):
        linalg.relative_spectrum(np.eye(2), np.eye(3))


def test_relative_spectrum_det_and_reciprocity():
    rng = np.random.Generator(np.random.Philox(14))
    for _ in range(20):
        r = int(rng.integers(2, 5))
        p = linalg.expm_hermitian(reference.hermitian_part(
            rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))))
        q = linalg.expm_hermitian(reference.hermitian_part(
            rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))))
        lam = linalg.relative_spectrum(p, q)
        ratio = np.linalg.det(q).real / np.linalg.det(p).real
        assert abs(np.prod(lam) - ratio) <= 1e-9 * abs(ratio)
        rev = linalg.relative_spectrum(q, p)
        assert np.abs(lam * rev[::-1] - 1).max() < 1e-9
        c = float(rng.uniform(0.2, 5.0))
        assert np.abs(linalg.relative_spectrum(c * p, c * q) - lam).max() \
            <= 1e-12 * lam.max()


def test_matrix_json_roundtrip():
    a = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, 4.0]])
    back = linalg.matrix_from_json(linalg.matrix_to_json(a))
    assert np.array_equal(a, back)


def test_non_finite_entries_rejected():
    for bad in ([[np.inf, 0], [0, 1]], [[1, np.nan], [np.nan, 1]]):
        with pytest.raises(NonFiniteError):
            linalg.sqrtm_posdef(bad)
        with pytest.raises(NonFiniteError):
            linalg.hermitian(bad)


def test_overflowed_relative_spectrum_rejected():
    # p^{-1/2} q p^{-1/2} overflows although p and q are finite; a geodesic
    # frame, endpoint or velocity, scans that product before its eigh
    for op in (linalg.relative_spectrum, fiber.log_map, fiber.FiberGeodesic):
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            op(np.diag([1e-200, 1.0]), np.diag([1e200, 1.0]))


def test_relative_spectrum_of_a_base_with_a_subnormal_eigenvalue():
    # p^{-1} q = diag(1e-305, 1e5) is representable although 1/w_0 = 1e310
    # is not: the scaling never forms the product of two factors
    p, q = np.diag([1e-310, 1.0]), 1e-305 * np.eye(2)
    assert np.allclose(linalg.relative_spectrum(p, q), [1e-305, 1e5], rtol=1e-12, atol=0)
    assert fiber.fiber_distance(p, q, 0.0) == pytest.approx(
        np.hypot(305.0, 5.0) * np.log(10.0), rel=1e-12)


def test_factor_rejects_nonpositive_eigenvalue():
    with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue"):
        linalg._factor(np.diag([-1e-17, 1.0]).astype(complex))


def _near_singular_draws(n=20000, seed=0):
    """Seeded search for matrices near condition 1e16: rank 2-4, smallest
    eigenvalue 10^-17.5 to 10^-15.5, the others in [0.5, 2]; one stack
    per rank."""
    rng = np.random.default_rng(seed)
    ranks = rng.integers(2, 5, n)
    stacks = []
    for r in (2, 3, 4):
        k = int((ranks == r).sum())
        g = rng.standard_normal((k, r, r)) + 1j * rng.standard_normal((k, r, r))
        u = np.linalg.qr(g)[0]
        w = rng.uniform(0.5, 2.0, (k, r))
        w[:, 0] = 10.0 ** rng.uniform(-17.5, -15.5, k)
        stacks.append(reference.from_spectrum(u, w))
    return stacks


# public ops whose only use of the draw's spectrum is its roots
ROOT_OPS = {
    "sqrtm_posdef": linalg.sqrtm_posdef,
    "invsqrtm_posdef": linalg.invsqrtm_posdef,
    "alpha_inner": lambda h: fiber.alpha_inner(h, h, h, 0.5),
    "curvature_tensor": lambda h: fiber.curvature_tensor(h, h, h, h),
    # the frame's arrays (h^{1/2}, U, lam), not its endpoint flag
    "FiberGeodesic":
        lambda h: np.concatenate([x.ravel() for x in fiber.FiberGeodesic(h, h).frame[:3]]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_near_singular_input_raises_or_stays_finite():
    # Each op validates with hermitian, which leaves these draws as they
    # are (they are Hermitian as drawn), and the eigh that gives the roots
    # decides positivity.  So on every draw an op either raises a typed
    # error or returns finite values: finite on each draw eigh accepts
    # (a stacked call is finite only if it is on each of its matrices),
    # NotPositiveDefiniteError on each draw it rejects.  eigvalsh, a
    # second check, disagrees with eigh on many draws (splits).
    splits = 0
    for stack in _near_singular_draws():
        accepted = np.linalg.eigh(stack)[0][:, 0] > 0
        splits += (accepted != (np.linalg.eigvalsh(stack)[:, 0] > 0)).sum()
        for name, op in ROOT_OPS.items():
            assert np.isfinite(op(stack[accepted])).all(), name
        # off the rejected draws, the spectrum of p^{-1} spans up to 1e17
        # and its own positivity check may fire; on them p's eigh fails first
        ops = [*ROOT_OPS.values(), lambda p: linalg.relative_spectrum(p, np.eye(len(p)))]
        for p in stack[~accepted]:
            for op in ops:
                assert "smallest eigenvalue" in _error(NotPositiveDefiniteError, op, p)
    assert splits > 1000


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_near_singular_sections_raise_at_construction_or_stay_finite():
    # A metric section keeps the roots whose eigh decided its positivity,
    # so no op rejects an accepted draw a second time: on each draw either
    # the construction raises, or each op returns finite values or raises
    # a typed error, and every error names the point.
    accepted = 0
    for stack in _near_singular_draws():
        r = stack.shape[-1]
        mesh = QuadratureMesh(rank=r, ids=[7], weights=[1.0], alphas=[0.5])
        eye = MetricSection(mesh, np.eye(r)[None])
        v = TangentSection(mesh, np.eye(r)[None])
        for p in stack:
            try:
                h = MetricSection(mesh, p[None])
            except NotPositiveDefiniteError as exc:
                assert str(exc).startswith("point id 7: "), exc
                continue
            accepted += 1
            for op in (lambda: l2_inner(h, v, v), lambda: section_distance(h, eye),
                       lambda: section_geodesic(h, eye, 0.5).values):
                try:
                    assert np.isfinite(op()).all()
                except HermGeoError as exc:
                    assert str(exc).startswith("point id 7: "), exc
    assert accepted > 10000


def _rel_err(lam, want):
    """The largest relative error over the eigenvalues of each spectrum."""
    return (np.abs(lam - want) / want).max(axis=-1)


SPREADS = (3.0, 6.0, 9.0, 13.0)
# exp at h and the eigenvalues need a 40-digit eigh of their own per pair,
# so they take the first pairs only, and the table adds under 2 s to
# tier-1; the other ops take all 60, which share wide_reference's eigh
OWN_EIGH_PAIRS = {"exp_at_h": 6, "eigenvalues": 10}


def _geodesic_point(p, q):
    """The midpoint of the geodesic from p to q, by the endpoint frame that
    section_geodesic and the CSV take."""
    return fiber._geodesic(p, fiber._frame(linalg._factor(p), q, endpoint=True), 0.5)


def _exp_case(p, q, frame):
    """The reference log map v, rounded to float64, and exp at p of v."""
    v = reference.hermitian_part(reference.mp_apply(*frame, reference.log))
    l, (m,) = reference.mp_whiten(p, v)
    return v, reference.mp_apply(l, *reference.mp_eigh(m), reference.exp)


# op: (the package's op on (p, x); per pair, the input x and the 40-digit
# answer, from the pair and its reference frame (L, mu, U))
ACCURACY_OPS = {
    "relative_spectrum": (linalg.relative_spectrum,
                          lambda p, q, f: (q, reference.floats(f[1]))),
    "fiber_distance": (lambda p, q: fiber.fiber_distance(p, q, 0.0),
                       lambda p, q, f: (q, reference.mp_distance(f[1]))),
    "log_map": (fiber.log_map, lambda p, q, f: (q, reference.mp_apply(*f, reference.log))),
    "geodesic_point": (_geodesic_point,
                       lambda p, q, f: (q, reference.mp_apply(*f, reference.power(0.5)))),
    "exp_at_h": (lambda p, v: fiber.geodesic_eval(fiber.FiberGeodesic(p, v), 1.0), _exp_case),
    "eigenvalues": (lambda p, q: linalg.eig_hermitian(q)[0],
                    lambda p, q, f: (q, reference.floats(reference.mp_eigh(q)[0]))),
}

# ACCURACY_BOUNDS[op][rank][s] = (largest error, median error, refused
# pairs) over the wide pairs of that rank and log-spread s.  Each error
# bound is three times the one measured, rounded up to one digit; the
# refusals are those measured.  The rank-4 relative spectrum row is the
# one its eigenbasis route has kept since it replaced the roots route
# (test_relative_spectrum_matches_a_40_digit_reference).  The frames of
# the log map, the geodesic point and exp at h whiten by the dense roots:
# theirs are the largest errors (1.4e-3 for the geodesic point at rank 3,
# s = 9), and the log map and the geodesic point refuse 1, 13 and 26
# pairs at ranks 2, 3 and 4, s = 13
ACCURACY_BOUNDS = {
    "relative_spectrum": {
        2: {3.0: (6e-14, 2e-15, 0), 6.0: (8e-12, 8e-15, 0),
            9.0: (2e-9, 2e-13, 0), 13.0: (6e-6, 2e-12, 0)},
        3: {3.0: (2e-13, 1e-14, 0), 6.0: (5e-11, 3e-13, 0),
            9.0: (8e-9, 1e-11, 0), 13.0: (3e-5, 2e-9, 0)},
        4: {3.0: (2e-13, 2e-14, 0), 6.0: (4e-11, 1e-12, 0),
            9.0: (1e-8, 1e-10, 0), 13.0: (3e-5, 3e-8, 0)},
    },
    "fiber_distance": {
        2: {3.0: (2e-14, 6e-16, 0), 6.0: (7e-13, 7e-16, 0),
            9.0: (5e-11, 5e-15, 0), 13.0: (3e-7, 9e-14, 0)},
        3: {3.0: (4e-14, 2e-15, 0), 6.0: (4e-12, 2e-14, 0),
            9.0: (4e-10, 4e-13, 0), 13.0: (5e-7, 5e-11, 0)},
        4: {3.0: (3e-14, 2e-15, 0), 6.0: (2e-12, 4e-14, 0),
            9.0: (4e-10, 2e-12, 0), 13.0: (4e-7, 4e-10, 0)},
    },
    "log_map": {
        2: {3.0: (1e-13, 3e-15, 0), 6.0: (2e-11, 7e-15, 0),
            9.0: (2e-7, 2e-13, 0), 13.0: (2e-3, 1e-11, 1)},
        3: {3.0: (4e-13, 2e-14, 0), 6.0: (2e-8, 2e-12, 0),
            9.0: (3e-3, 6e-10, 0), 13.0: (6e-4, 5e-8, 13)},
        4: {3.0: (5e-13, 3e-14, 0), 6.0: (3e-9, 7e-12, 0),
            9.0: (2e-5, 1e-8, 0), 13.0: (5e-4, 3e-7, 26)},
    },
    "geodesic_point": {
        2: {3.0: (5e-14, 3e-15, 0), 6.0: (7e-12, 6e-15, 0),
            9.0: (4e-7, 2e-13, 0), 13.0: (3e-5, 6e-12, 1)},
        3: {3.0: (3e-13, 8e-15, 0), 6.0: (3e-8, 2e-12, 0),
            9.0: (5e-3, 5e-10, 0), 13.0: (3e-4, 2e-8, 13)},
        4: {3.0: (7e-13, 2e-14, 0), 6.0: (2e-9, 5e-12, 0),
            9.0: (4e-5, 8e-9, 0), 13.0: (2e-3, 2e-7, 26)},
    },
    "exp_at_h": {
        2: {3.0: (7e-14, 2e-14, 0), 6.0: (2e-11, 3e-13, 0),
            9.0: (2e-8, 9e-12, 0), 13.0: (2e-4, 2e-8, 0)},
        3: {3.0: (3e-14, 2e-14, 0), 6.0: (9e-12, 2e-12, 0),
            9.0: (2e-9, 9e-11, 0), 13.0: (1e-5, 3e-8, 0)},
        4: {3.0: (9e-14, 2e-14, 0), 6.0: (2e-11, 7e-13, 0),
            9.0: (5e-8, 3e-11, 0), 13.0: (2e-4, 2e-8, 0)},
    },
    "eigenvalues": {
        2: {3.0: (6e-14, 8e-16, 0), 6.0: (9e-12, 4e-15, 0),
            9.0: (1e-9, 3e-14, 0), 13.0: (6e-7, 4e-14, 0)},
        3: {3.0: (4e-14, 5e-15, 0), 6.0: (4e-11, 2e-13, 0),
            9.0: (3e-8, 7e-12, 0), 13.0: (1e-5, 3e-10, 0)},
        4: {3.0: (9e-14, 4e-15, 0), 6.0: (2e-11, 3e-13, 0),
            9.0: (3e-9, 1e-11, 0), 13.0: (2e-6, 3e-10, 0)},
    },
}


def _accuracy_err(got, want):
    """The relative Frobenius error of a matrix; the largest entry-relative
    error of a spectrum or a distance."""
    if np.ndim(want) == 2:
        return np.linalg.norm(got - want) / np.linalg.norm(want)
    return np.max(np.abs(got - want) / want)


@pytest.mark.parametrize("spread", SPREADS)
@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("op", sorted(ACCURACY_OPS))
def test_accuracy_against_a_40_digit_reference(op, rank, spread):
    # on the wide pairs of each rank and log-spread: the largest and the
    # median error over the pairs the op answers, and the number of pairs
    # it judges beyond float64 resolution
    fn, case = ACCURACY_OPS[op]
    p, q, _, frames = reference.wide_reference(rank, spread)
    errors, refused = [], 0
    for k in range(OWN_EIGH_PAIRS.get(op, len(p))):
        x, want = case(p[k], q[k], frames[k])
        try:
            errors.append(_accuracy_err(fn(p[k], x), want))
        except IllConditionedError:
            refused += 1
    top, mid, most = ACCURACY_BOUNDS[op][rank][spread]
    assert max(errors) <= top and np.median(errors) <= mid and refused <= most


@pytest.mark.parametrize("spread", SPREADS)
def test_relative_spectrum_matches_a_40_digit_reference(spread):
    # a diagonal scaling in p's eigenbasis keeps the relative accuracy that
    # the recomposed root p^{-1/2} loses to the mixing of p's scales
    p, q, want, _ = reference.wide_reference(4, spread)
    err = _rel_err(linalg.relative_spectrum(p, q), want)
    top, mid, _ = ACCURACY_BOUNDS["relative_spectrum"][4][spread]
    assert err.max() <= top and np.median(err) <= mid
    # the route this package took before: the eigenvalues of
    # p^{-1/2} q p^{-1/2}, whitened by the recomposed root: errs up to 8.9e-5
    # at s = 9 and 8.7 at s = 13, where it refuses 6 pairs
    psi = reference.roots(p)[1]
    old = np.linalg.eigvalsh(reference.hermitian_part(psi @ q @ psi))
    answered = old[:, 0] > 0
    old_err = _rel_err(old[answered], want[answered])
    assert err[answered].max() <= old_err.max()
    assert np.median(err[answered]) <= np.median(old_err)


@pytest.mark.parametrize("name", ["fiber_distance", "log_map", "relative_spectrum"])
def test_positive_definite_pairs_are_never_called_indefinite(name):
    # pair 12's spectrum, whitened by the roots, reaches -1.559e-08 in
    # eigvalsh (-4.560e-09 in the log map's eigh) although q's smallest
    # eigenvalue is 2.8e-05; the spectra, taken in p's eigenbasis, are all
    # positive and within the rank-4 bounds of the reference.  The log map
    # keeps the roots and judges pair 12 beyond float64 resolution
    op, case = ACCURACY_OPS[name]
    p, q, _, frames = reference.wide_reference(4, 13.0)
    if name == "log_map":
        refused = []
        for k in range(len(p)):
            try:
                assert np.isfinite(op(p[k], q[k])).all()
            except IllConditionedError:
                refused.append(k)
        assert 12 in refused
        with pytest.raises(IllConditionedError, match="^at index 12: relative spectrum reaches"):
            op(p, q)
    else:
        top = ACCURACY_BOUNDS["relative_spectrum"][4][13.0][0]
        want = np.array([case(p[k], q[k], frames[k])[1] for k in range(len(p))])
        for got in (op(p, q), np.array([op(p[k], q[k]) for k in range(len(p))])):
            assert np.all(got > 0)
            assert np.all(np.abs(got - want) <= top * want)
    with pytest.raises(NotPositiveDefiniteError, match="^smallest eigenvalue -5.000e-01 <= 0$"):
        op(np.eye(2), np.diag([1.0, -0.5]))
    # a stack is judged at its first nonpositive point
    with pytest.raises(NotPositiveDefiniteError, match="^at index 0: smallest eigenvalue"):
        op(np.stack([np.eye(4), p[12]]), np.stack([np.diag([1.0, 1.0, 1.0, -0.5]), q[12]]))


def _wide_sections():
    p, q, want, frames = reference.wide_reference(4, 13.0)
    mesh = QuadratureMesh(rank=4, ids=np.arange(60), weights=np.ones(60), alphas=np.zeros(60))
    return MetricSection(mesh, p), MetricSection(mesh, q), want, frames


@pytest.mark.parametrize("op", [
    lambda h1, h2: section_geodesic(h1, h2, 0.5),
    lambda h1, h2: write_geodesic_csv(h1, h2, 3, _RefuseWrites()),
], ids=["section_geodesic", "write_geodesic_csv"])
def test_sections_of_wide_pairs_are_refused_as_ill_conditioned(op):
    # both constructions decide that their matrices are positive definite;
    # the geodesic frames, whitened by the roots, judge pair 12 beyond
    # float64 resolution, and nothing contradicts the constructions
    h1, h2, _, _ = _wide_sections()
    with pytest.raises(IllConditionedError, match="^point id 12: relative spectrum reaches"):
        op(h1, h2)


def test_section_distance_of_wide_pairs_matches_the_reference():
    # the spectra from h1's eigenpair: every pair answered, none refused
    h1, h2, want, frames = _wide_sections()
    top = ACCURACY_BOUNDS["relative_spectrum"][4][13.0][0]
    lam = _relative_spectra(h1, h2)[1]
    assert np.all(lam > 0) and np.all(np.abs(lam - want) <= top * want)
    d = np.array([reference.mp_distance(mu) for _, mu, _ in frames])
    assert section_distance(h1, h2) == pytest.approx(np.sqrt((d**2).sum()), rel=top)


RANK1_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e-300, -1e-300, 1e300, -1e300,
                 1.0, -2.5]


@pytest.mark.parametrize("shape", [(7, 1, 1), (3, 7, 1, 1), (0, 1, 1), (1, 1)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_rank1_eigensolvers_return_what_lapack_returns(shape, dtype):
    # the LAPACK call is skipped on rank 1, its answer kept bit for bit,
    # the sign of a zero included
    rng = np.random.default_rng(17)
    for draw in range(20):
        if draw % 2:
            re, im = rng.choice(RANK1_ENTRIES, (2, *shape))
        else:
            re, im = rng.standard_normal((2, *shape)) * 10.0 ** rng.integers(-300, 300, (2, *shape))
        a = (re + 1j * im if dtype is np.complex128 else re).astype(dtype)
        for got, want in zip((*linalg._eigh(a), linalg._eigvalsh(a)),
                             (*np.linalg.eigh(a), np.linalg.eigvalsh(a))):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class _RefuseWrites:
    def write(self, text):
        raise AssertionError(f"wrote {text!r}")


def _error(cls, op, *args) -> str:
    """The message of the ``cls`` error that ``op(*args)`` raises."""
    try:
        op(*args)
    except cls as exc:
        return str(exc)
    raise AssertionError(f"no {cls.__name__}")
