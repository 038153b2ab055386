"""Kernels that whiten in the base point's eigenbasis, against the
dense-roots route they replaced.

``linalg._whiten`` takes the eigenpair h = V diag(w) V^dagger that decided
h and scales V^dagger v V by D^{-1/2} = diag(w)^{-1/2} on both sides.  The
route it replaced recomposed the dense root h^{-1/2} and formed
h^{-1/2} v h^{-1/2}; it is kept here in plain numpy as the reference, on
the roots of ``tests/reference.py``.  On seeded stacks of ranks 2-4 whose
log-spectra spread from 3 up to the condition guard, each moved kernel
agrees with it within ``AGREEMENT`` times cond(h) eps, on a scale stated
per kernel.  Against the 40-digit inner product of ``tests/reference.py``,
the two routes' largest and median errors agree.
"""

import numpy as np
import pytest
from reference import from_spectrum, hermitian_part, mp_inner, roots

from hermgeo import fiber, linalg
from hermgeo.sections import MetricSection, QuadratureMesh, TangentSection, l2_inner

EPS = np.finfo(float).eps
# log-spreads s: each base's log-eigenvalues lie in +-s, with the first
# base's at both ends, so cond(h) reaches e^{2s}.  The last puts that
# base at 0.98 of the condition guard, 7.2e13
SPREADS = (3.0, 6.0, 9.0, 13.0, 0.99 * np.log(linalg.COND_GUARD) / 2)
# the largest |moved - replaced| / (cond(h) eps scale) is 3.1 over these
# stacks and 3.9 over like draws at 20 further seeds, both for the inner
# product
AGREEMENT = 16.0


def _trace(a):
    return np.trace(a, axis1=-2, axis2=-1).real


def _draw(rank, spread, n, seed):
    """n bases with Haar eigenvectors and log-eigenvalues uniform in
    +-spread, four Gaussian Hermitian stacks and admissible alphas."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank, rank)) + 1j * rng.standard_normal((n, rank, rank))
    u = np.linalg.qr(g)[0]
    logs = rng.uniform(-spread, spread, (n, rank))
    logs[0, 0], logs[0, -1] = -spread, spread
    h = from_spectrum(u, np.exp(logs))
    g = rng.standard_normal((4, n, rank, rank)) + 1j * rng.standard_normal((4, n, rank, rank))
    alpha = rng.uniform(-1.0 / rank + 0.01, 1.0, n)
    return h, hermitian_part(g), alpha


def _inner(vw, ww, alpha):
    return _trace(vw @ ww) + alpha * _trace(vw) * _trace(ww)


def _roots_inner(h, v, w, alpha):
    hsi = roots(h)[1]
    return _inner(hermitian_part(hsi @ v @ hsi), hermitian_part(hsi @ w @ hsi), alpha)


def _roots_curvature(h, u, v, w):
    hs, hsi = roots(h)
    up, vp, wp = (hermitian_part(hsi @ x @ hsi) for x in (u, v, w))
    k = up @ vp - vp @ up
    return hermitian_part(-0.25 * (hs @ (k @ wp - wp @ k) @ hs))


def _roots_sectional(h, u, v, alpha):
    hsi = roots(h)[1]
    up, vp = hermitian_part(hsi @ u @ hsi), hermitian_part(hsi @ v @ hsi)
    uu = _inner(up, up, alpha)
    wp = vp - (_inner(up, vp, alpha) / uu)[..., None, None] * up
    up = up / np.sqrt(uu)[..., None, None]
    wp = wp / np.sqrt(_inner(wp, wp, alpha))[..., None, None]
    k = up @ wp - wp @ up
    return -0.25 * np.linalg.norm(k, axis=(-2, -1)) ** 2


def _roots_spray(h, v, w):
    hsi = roots(h)[1]
    return hermitian_part(v @ hsi @ hsi @ w)


def _norm(a):
    return np.linalg.norm(a, axis=(-2, -1))


@pytest.mark.parametrize("spread", SPREADS)
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_eigenbasis_kernels_agree_with_the_roots_route(rank, spread):
    n = 50
    h, (u, v, w, _), alpha = _draw(rank, spread, n, 1000 * rank + int(spread))
    lam = np.linalg.eigvalsh(h)
    bound = AGREEMENT * EPS * lam[:, -1] / lam[:, 0]
    # the norms |x|_h = |h^{-1/2} x h^{-1/2}|_F of the inputs set each scale
    uh, vh, wh = (_norm(m) for m in linalg._whiten(linalg._factor(h), u, v, w))

    got = fiber.alpha_inner(h, v, w, alpha)
    scale = vh * wh * (1.0 + np.abs(alpha) * rank)
    assert np.all(np.abs(got - _roots_inner(h, v, w, alpha)) <= bound * scale)

    mesh = QuadratureMesh(rank=rank, ids=np.arange(n), weights=np.linspace(0.5, 2.0, n),
                          alphas=alpha)
    got = l2_inner(MetricSection(mesh, h), TangentSection(mesh, v), TangentSection(mesh, w))
    want = (mesh.weights * _roots_inner(h, v, w, alpha)).sum()
    assert abs(got - want) <= bound.max() * (mesh.weights * scale).sum()

    got = fiber.curvature_tensor(h, u, v, w)
    assert np.all(_norm(got - _roots_curvature(h, u, v, w))
                  <= bound * lam[:, -1] * uh * vh * wh)

    # the curvature of a plane is the commutator of a unit pair: scale 1
    got = fiber.sectional_curvature(h, u, v, alpha)
    assert np.all(np.abs(got - _roots_sectional(h, u, v, alpha)) <= bound)

    got = fiber.spray(h, v, w)
    assert np.all(_norm(got - _roots_spray(h, v, w)) <= bound * _norm(v) * _norm(w) / lam[:, 0])


# the two routes share h's eigendecomposition, whose rounding sets the
# error; they part only in the last digits, so the eigenbasis route's max
# and median may exceed the roots route's by at most this factor.  The
# largest ratio seen here is 1.0001 (the median at s = 9), and 1.06 over
# like draws at three other seeds; at s = 13 both routes err by 7.7e-6 at
# most and by 2.0e-9 in the median
MP_FACTOR = 1.1


@pytest.mark.parametrize("spread", SPREADS[:4])
def test_alpha_inner_matches_a_40_digit_reference(spread):
    h, (_, v, w, _), alpha = _draw(4, spread, 60, 113)
    want, scale = np.array([mp_inner(*x) for x in zip(h, v, w, alpha)]).T
    err = np.abs(fiber.alpha_inner(h, v, w, alpha) - want) / scale
    old = np.abs(_roots_inner(h, v, w, alpha) - want) / scale
    assert err.max() <= MP_FACTOR * old.max()
    assert np.median(err) <= MP_FACTOR * np.median(old)
