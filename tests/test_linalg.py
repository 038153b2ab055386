import numpy as np
import pytest

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
    l2_inner,
    section_distance,
    section_geodesic,
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
        a = (a + a.conj().T) / 2
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
    a = (a + a.conj().T) / 2
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
        a = (a + a.conj().T) / 2
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
        p = linalg.expm_hermitian((lambda m: (m + m.conj().T) / 2)(
            rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))))
        q = linalg.expm_hermitian((lambda m: (m + m.conj().T) / 2)(
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
    # p^{-1/2} q p^{-1/2} overflows although p and q are finite
    with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
        linalg.relative_spectrum(np.diag([1e-200, 1.0]), np.diag([1e200, 1.0]))


def test_roots_reject_nonpositive_eigenvalue():
    with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue"):
        linalg._roots(np.diag([-1e-17, 1.0]).astype(complex))


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
        stacks.append(linalg.hermitian_part((u * w[:, None, :]) @ np.conj(u).swapaxes(-1, -2)))
    return stacks


# public ops whose only use of the draw's spectrum is its roots
ROOT_OPS = {
    "sqrtm_posdef": linalg.sqrtm_posdef,
    "invsqrtm_posdef": linalg.invsqrtm_posdef,
    "alpha_inner": lambda h: fiber.alpha_inner(h, h, h, 0.5),
    "curvature_tensor": lambda h: fiber.curvature_tensor(h, h, h, h),
    "FiberGeodesic":
        lambda h: np.concatenate([x.ravel() for x in fiber.FiberGeodesic(h, h).frame]),
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
        # and its own positivity check may fire; on them the roots fail first
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


def _error(cls, op, *args) -> str:
    """The message of the ``cls`` error that ``op(*args)`` raises."""
    try:
        op(*args)
    except cls as exc:
        return str(exc)
    raise AssertionError(f"no {cls.__name__}")
