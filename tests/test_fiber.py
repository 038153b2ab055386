import numpy as np
import pytest

from hermgeo import fiber, linalg, sampling
from hermgeo.errors import DegeneratePlaneError, DimensionError

I2 = np.eye(2, dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_alpha_admissibility():
    fiber.check_alpha(-0.49, 2)
    with pytest.raises(ValueError):
        fiber.check_alpha(-0.5, 2)


def test_alpha_inner_examples():
    assert fiber.alpha_inner(I2, I2, I2, 0.0) == pytest.approx(2.0)
    assert fiber.alpha_inner(I2, SZ, I2, 0.8) == pytest.approx(0.0, abs=1e-14)
    h = np.diag([2.0, 2.0]).astype(complex)
    assert fiber.alpha_inner(h, h, h, 1.0) == pytest.approx(6.0)


def test_alpha_inner_bilinear_symmetric():
    rng = sampling.make_rng(21)
    h = sampling.random_posdef(rng, 3)
    v = sampling.random_hermitian(rng, 3)
    w = sampling.random_hermitian(rng, 3)
    u = sampling.random_hermitian(rng, 3)
    a = 0.3
    assert fiber.alpha_inner(h, v, w, a) == pytest.approx(
        fiber.alpha_inner(h, w, v, a))
    assert fiber.alpha_inner(h, 2.0 * v + u, w, a) == pytest.approx(
        2.0 * fiber.alpha_inner(h, v, w, a) + fiber.alpha_inner(h, u, w, a))


def test_jensen_positivity_bound():
    rng = sampling.make_rng(22)
    for _ in range(200):
        r = int(rng.integers(2, 5))
        alpha = float(rng.uniform(-1.0 / r + 1e-3, 2.0))
        h = sampling.random_posdef(rng, r)
        v = sampling.random_hermitian(rng, r)
        hs = linalg.invsqrtm_posdef(h)
        tr = np.trace(hs @ v @ hs).real
        assert fiber.alpha_inner(h, v, v, alpha) \
            >= (1.0 / r + alpha) * tr**2 - 1e-10


def test_definiteness():
    rng = sampling.make_rng(23)
    for _ in range(50):
        r = int(rng.integers(2, 5))
        alpha = float(rng.uniform(-1.0 / r + 1e-3, 1.0))
        h = sampling.random_posdef(rng, r)
        v = sampling.random_hermitian(rng, r)
        if fiber.alpha_inner(h, v, v, alpha) == 0.0:
            assert np.linalg.norm(v) < 1e-8


def test_spray_examples():
    d = np.diag([1.0, 2.0]).astype(complex)
    assert np.allclose(fiber.spray(I2, d, d), np.diag([1.0, 4.0]))
    rng = sampling.make_rng(24)
    h = sampling.random_posdef(rng, 2)
    v = sampling.random_hermitian(rng, 2)
    assert np.allclose(fiber.spray(h, v, np.zeros((2, 2))), 0.0)
    assert np.allclose(
        fiber.spray(np.diag([1.0, 2.0]), np.diag([2.0, 2.0]).astype(complex),
                    np.diag([2.0, 2.0]).astype(complex)),
        np.diag([4.0, 2.0]))


def test_spray_symmetric_bilinear():
    rng = sampling.make_rng(25)
    h = sampling.random_posdef(rng, 3)
    v = sampling.random_hermitian(rng, 3)
    w = sampling.random_hermitian(rng, 3)
    assert np.allclose(fiber.spray(h, v, w), fiber.spray(h, w, v))


def test_curvature_examples():
    assert np.allclose(
        fiber.curvature_tensor(np.diag([2.0, 3.0]), np.diag([1.0, 2.0]).astype(complex),
                               np.diag([3.0, 1.0]).astype(complex),
                               np.diag([1.0, 1.0]).astype(complex)),
        0.0, atol=1e-14)
    assert np.allclose(fiber.curvature_tensor(I2, SZ, SX, SX), -SZ, atol=1e-13)


def test_curvature_antisymmetry_and_bianchi():
    rng = sampling.make_rng(26)
    for _ in range(50):
        r = int(rng.integers(2, 5))
        h = sampling.random_posdef(rng, r)
        u = sampling.random_hermitian(rng, r)
        v = sampling.random_hermitian(rng, r)
        w = sampling.random_hermitian(rng, r)
        assert np.linalg.norm(fiber.curvature_tensor(h, u, v, w)
                              + fiber.curvature_tensor(h, v, u, w)) < 1e-12
        total = (fiber.curvature_tensor(h, u, v, w)
                 + fiber.curvature_tensor(h, v, w, u)
                 + fiber.curvature_tensor(h, w, u, v))
        assert np.linalg.norm(total) < 1e-12


def test_sectional_curvature_examples():
    s = 1.0 / np.sqrt(2.0)
    assert fiber.sectional_curvature(I2, s * SZ, s * SX, 0.0) \
        == pytest.approx(-0.5, abs=1e-12)
    # commuting pair
    h = np.diag([1.0, 2.0, 3.0])
    rng = sampling.make_rng(27)
    u = np.diag(rng.standard_normal(3)).astype(complex)
    v = np.diag(rng.standard_normal(3)).astype(complex)
    u, v = fiber._gram_schmidt_pair(h, u, v, 0.2)
    assert fiber.sectional_curvature(h, u, v, 0.2) == pytest.approx(0.0, abs=1e-12)


def test_sectional_curvature_nonpositive_and_gs_fallback():
    rng = sampling.make_rng(28)
    for _ in range(100):
        r = int(rng.integers(2, 5))
        alpha = float(rng.uniform(-1.0 / r + 1e-3, 1.0))
        h = sampling.random_posdef(rng, r)
        u, v = sampling.random_orthonormal_pair(rng, h, alpha)
        assert fiber.sectional_curvature(h, u, v, alpha) <= 1e-12
    with pytest.warns(UserWarning):
        fiber.sectional_curvature(I2, SZ, SX, 0.0)  # not normalized
    with pytest.raises(DegeneratePlaneError):
        fiber.sectional_curvature(I2, SZ, 2.0 * SZ, 0.0)


def test_geodesic_eval():
    g = fiber.FiberGeodesic(I2, SZ)
    assert np.allclose(fiber.geodesic_eval(g, 0.0), I2)
    assert np.allclose(fiber.geodesic_eval(g, 0.5),
                       np.diag([np.exp(0.5), np.exp(-0.5)]))
    const = fiber.FiberGeodesic(np.diag([2.0, 5.0]), np.zeros((2, 2)))
    assert np.allclose(fiber.geodesic_eval(const, 3.7), np.diag([2.0, 5.0]))


def test_fiber_distance_examples():
    p = np.diag([1.0, 3.0])
    assert fiber.fiber_distance(p, p, 0.3) == pytest.approx(0.0, abs=1e-12)
    assert fiber.fiber_distance(I2, np.exp(2.0) * I2, 0.0) \
        == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)
    # alpha-independent on determinant-preserving pairs
    for alpha in (0.0, 1.0, -0.3):
        assert fiber.fiber_distance(I2, np.diag([4.0, 0.25]), alpha) \
            == pytest.approx(np.sqrt(2.0) * np.log(4.0), rel=1e-12)


def test_fiber_distance_conformal_crosscheck():
    # d(I, e^2 I) from the scalar closed form sqrt(r(1 + alpha r)) * 2
    for alpha in (0.0, 0.5):
        expect = np.sqrt(2.0 * (1.0 + alpha * 2.0)) * 2.0
        assert fiber.fiber_distance(I2, np.exp(2.0) * I2, alpha) \
            == pytest.approx(expect, rel=1e-12)


def test_log_map_examples():
    p = np.diag([1.0, 4.0])
    assert np.allclose(fiber.log_map(p, p), 0.0, atol=1e-12)
    assert np.allclose(fiber.log_map(I2, np.diag([np.e**2, np.e**-1])),
                       np.diag([2.0, -1.0]))
    assert np.allclose(fiber.log_map(np.diag([1.0, 4.0]), np.diag([1.0, 8.0])),
                       np.diag([0.0, 4.0 * np.log(2.0)]))


def test_log_map_contract():
    rng = sampling.make_rng(29)
    for _ in range(30):
        r = int(rng.integers(2, 5))
        alpha = float(rng.uniform(-1.0 / r + 1e-3, 1.0))
        p = sampling.random_posdef(rng, r)
        q = sampling.random_posdef(rng, r)
        a = fiber.log_map(p, q)
        end = fiber.geodesic_eval(fiber.FiberGeodesic(p, a), 1.0)
        assert np.linalg.norm(end - q) / np.linalg.norm(q) < 1e-8
        speed = np.sqrt(fiber.alpha_inner(p, a, a, alpha))
        assert speed == pytest.approx(fiber.fiber_distance(p, q, alpha), rel=1e-9)


def test_geodesic_residual():
    const = fiber.FiberGeodesic(np.diag([2.0, 5.0]), np.zeros((2, 2)))
    assert fiber.geodesic_residual(const, 0.4, 1e-3) < 1e-12
    g = fiber.FiberGeodesic(I2, SZ)
    res = fiber.geodesic_residual(g, 0.3, 1e-3)
    assert res < 1e-6
    res_half = fiber.geodesic_residual(g, 0.3, 5e-4)
    assert res_half <= res  # shrinks with the step


def test_geodesic_residual_order():
    rng = sampling.make_rng(30)
    h = sampling.random_posdef(rng, 2)
    v = sampling.random_hermitian(rng, 2)
    g = fiber.FiberGeodesic(h, v)
    r1 = fiber.geodesic_residual(g, 0.2, 2e-2)
    r2 = fiber.geodesic_residual(g, 0.2, 1e-2)
    assert r2 < r1 / 3.0  # ~O(step^2)


def test_exp_differential():
    assert fiber.exp_differential_min_singular(I2, np.zeros((2, 2))) \
        == pytest.approx(1.0, abs=1e-6)
    val = fiber.exp_differential_min_singular(I2, np.diag([5.0, -5.0]))
    assert val > 0.0


def test_exp_log_roundtrip_property():
    rng = sampling.make_rng(31)
    for _ in range(30):
        r = int(rng.integers(2, 5))
        h = sampling.random_posdef(rng, r)
        v = sampling.random_hermitian(rng, r, scale=10.0 / np.sqrt(r))
        assert np.linalg.norm(v) <= 10.0 + 1e-9
        end = fiber.geodesic_eval(fiber.FiberGeodesic(h, v), 1.0)
        back = fiber.log_map(h, end)
        assert np.linalg.norm(back - v) / max(np.linalg.norm(v), 1e-12) < 1e-8


def test_dimension_errors():
    with pytest.raises(DimensionError):
        fiber.alpha_inner(I2, np.eye(3), np.eye(3), 0.0)
    with pytest.raises(DimensionError):
        fiber.fiber_distance(I2, np.eye(3), 0.0)


# eigensolves per call: one that gives a base point's roots, which also
# decides its positivity, plus what the formula needs (the relative
# spectrum, a geodesic's frame, the logarithm); a geodesic point needs
# none beyond its frame
EIGENSOLVES = {
    "relative_spectrum": 2, "fiber_distance": 2, "log_map": 2,
    "alpha_inner": 1, "spray": 1, "curvature_tensor": 1,
    "sectional_curvature": 1, "sectional_curvature (Gram-Schmidt)": 1,
    "sqrtm_posdef": 1, "invsqrtm_posdef": 1, "logm_posdef": 1,
    "FiberGeodesic": 2, "geodesic_eval": 0, "_gram_schmidt_pair": 1,
    "exp_differential_min_singular": 2,
}


@pytest.mark.filterwarnings("ignore:input pair deviated")
def test_fiber_cost_model(counts):
    rng = sampling.make_rng(31)
    h, q = sampling.random_posdef(rng, 3), sampling.random_posdef(rng, 3)
    u, v = sampling.random_orthonormal_pair(rng, h, 0.3)
    g = fiber.FiberGeodesic(h, v)
    calls = {
        "relative_spectrum": lambda: linalg.relative_spectrum(h, q),
        "fiber_distance": lambda: fiber.fiber_distance(h, q, 0.3),
        "log_map": lambda: fiber.log_map(h, q),
        "alpha_inner": lambda: fiber.alpha_inner(h, u, v, 0.3),
        "spray": lambda: fiber.spray(h, u, v),
        "curvature_tensor": lambda: fiber.curvature_tensor(h, u, v, q),
        "sectional_curvature": lambda: fiber.sectional_curvature(h, u, v, 0.3),
        "sectional_curvature (Gram-Schmidt)":
            lambda: fiber.sectional_curvature(h, u + v, v, 0.3),
        "sqrtm_posdef": lambda: linalg.sqrtm_posdef(h),
        "invsqrtm_posdef": lambda: linalg.invsqrtm_posdef(h),
        "logm_posdef": lambda: linalg.logm_posdef(h),
        "FiberGeodesic": lambda: fiber.FiberGeodesic(h, v),
        "geodesic_eval": lambda: fiber.geodesic_eval(g, 0.5),
        "_gram_schmidt_pair": lambda: fiber._gram_schmidt_pair(h, u + v, v, 0.3),
        "exp_differential_min_singular": lambda: fiber.exp_differential_min_singular(h, v),
    }
    seen = {}
    for name, call in calls.items():
        counts.clear()
        call()
        seen[name] = counts["eig"]
    assert seen == EIGENSOLVES
