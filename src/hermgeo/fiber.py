"""Riemannian geometry of a single fiber of positive-definite Hermitian
matrices with the one-parameter family of invariant metrics

    <v, w>_h = tr(h^{-1} v h^{-1} w) + alpha tr(h^{-1} v) tr(h^{-1} w),

admissible for alpha > -1/r.  Closed-form geodesics, distance, curvature
and exponential/log maps all live here; a sectional curvature belongs to
its plane and takes any basis of it.

Expressions of the form h^{-1} v are never evaluated as an explicit
inverse times a matrix: v is whitened at h, and a whitened result m goes
back to h by one congruence, ``linalg._congruence``: b m b^dagger, with
b = V diag(w^{1/2}) from h's eigenpair (w, V) or h^{1/2} in a frame,
made Hermitian, and refused if it leaves float64.  Every function also
takes (..., r, r) stacks, with alpha one value per matrix.  It validates
its arguments once, factors its base point once into its eigenpair (the
eigendecomposition that decides positivity), then calls an unvalidated
kernel that takes the eigenpair: ``_alpha_inner``, ``_curvature``,
``_sectional``, ``_frame`` and ``_log_map``.  ``linalg._whiten`` whitens
by a diagonal scaling in the eigenbasis; ``_project`` takes a whitened
pair, ``_geodesic`` a frame and ``_distance`` a relative spectrum.  Only
a frame builds the dense roots, from the eigenpair, and whitens by
b = h^{-1/2}; a geodesic is one frame, whose points and log map need no
eigh.  Section ops and the check suites call the kernels on stacks they
validated and factored once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegeneratePlaneError, ParameterError, check_count, check_floats, reject

__all__ = [
    "check_alpha",
    "alpha_inner",
    "spray",
    "curvature_tensor",
    "sectional_curvature",
    "FiberGeodesic",
    "geodesic_eval",
    "fiber_distance",
    "log_map",
    "geodesic_residual",
    "hermitian_basis",
    "exp_differential_min_singular",
]


def check_alpha(alpha, rank: int, batch: tuple = ()):
    """Validate the metric parameter (a float or per-matrix array):
    finite and alpha > -1/rank, strictly, with a shape that broadcasts
    against the ``batch`` shape of the matrix stacks."""
    a = check_floats(alpha, "alpha")
    rank = check_count(rank, "rank", 1)
    linalg._broadcast(a.shape, batch, what="alpha and batch shapes")
    reject(~(np.isfinite(a) & (a > -1.0 / rank)), ParameterError,
           lambda k: f"alpha={a[k]} not admissible for rank {rank}: "
                     f"need alpha > {-1.0 / rank}")
    return float(a) if a.ndim == 0 else a


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1).real


def _inner(vw: np.ndarray, ww: np.ndarray, alpha) -> np.ndarray:
    """The inner product at the identity, applied to whitened vectors."""
    return _trace(vw @ ww) + alpha * _trace(vw) * _trace(ww)


def _checked(alpha, **mats):
    """``linalg._checked`` of the named matrices, then check_alpha."""
    mats, r, batch = linalg._checked(**mats)
    return mats, check_alpha(alpha, r, batch)


def alpha_inner(h: np.ndarray, v: np.ndarray, w: np.ndarray, alpha):
    """The invariant inner product of tangent vectors v, w at the point h."""
    (h, v, w), alpha = _checked(alpha, h=h, v=v, w=w)
    return _alpha_inner(linalg._factor(h), v, w, alpha)


def _alpha_inner(eig, v, w, alpha):
    """``alpha_inner`` at the point whose eigenpair is eig."""
    return _inner(*linalg._whiten(eig, v, w), alpha)


def spray(h: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Metric spray B_h(v, w) = (v h^{-1} w + w h^{-1} v) / 2.

    Independent of alpha: one spray serves the whole metric family.  It
    maps the whitened product v' w' back to h.
    """
    (h, v, w), _, _ = linalg._checked(h=h, v=v, w=w)
    eig = linalg._factor(h)
    vp, wp = linalg._whiten(eig, v, w)
    return linalg._congruence(eig[1] * np.sqrt(eig[0])[..., None, :], vp @ wp)


def curvature_tensor(h: np.ndarray, u: np.ndarray, v: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Curvature R_h(u, v)w as a Hermitian form.

    With U = h^{-1}u etc. the endomorphism form is -[[U, V], W]/4;
    mapping back through v -> h^{-1} v gives the Hermitian result
    -h^{1/2} [[U', V'], W'] h^{1/2} / 4 in whitened coordinates.
    """
    (h, u, v, w), _, _ = linalg._checked(h=h, u=u, v=v, w=w)
    return _curvature(linalg._factor(h), u, v, w)


def _curvature(eig, u, v, w):
    """``curvature_tensor`` at the point whose eigenpair eig = (w, V) maps
    whitened forms back by the congruence B = V diag(w^{1/2}) = h^{1/2} V."""
    up, vp, wp = linalg._whiten(eig, u, v, w)
    k = up @ vp - vp @ up
    # -1/4 scales exactly either way; taken first, the congruence's products are 4x smaller
    dbl = -0.25 * (k @ wp - wp @ k)
    return linalg._congruence(eig[1] * np.sqrt(eig[0])[..., None, :], dbl)


def _gram_schmidt_pair(h, u, v, alpha):
    """Orthonormalize (u, v), Hermitian, for the inner product at the
    Hermitian h; its eigendecomposition decides that it is positive definite."""
    c, nu, nw = _project(*linalg._whiten(linalg._factor(h), u, v), alpha)
    return u / nu, (v - c * u) / nw


def _project(up, vp, alpha):
    """(c, |u|, |w|) for the whitened pair (up, vp), where w = v - c u with
    c = <u, v>/<u, u> is the part of v orthogonal to u: u/|u|, w/|w| is an
    orthonormal basis of their plane.  The pair spans no plane where <u, u>
    is not positive or |w| <= 1e-12 |v|, a test that no scale changes."""
    uu = _inner(up, up, alpha)
    reject(~(uu > 0), DegeneratePlaneError, lambda k: "first vector has vanishing norm")
    c = (_inner(up, vp, alpha) / uu)[..., None, None]
    wp = vp - c * up
    nw = np.sqrt(_inner(wp, wp, alpha))
    reject(~(nw > 1e-12 * np.sqrt(_inner(vp, vp, alpha))), DegeneratePlaneError,
           lambda k: "vectors are linearly dependent")
    return c, np.sqrt(uu)[..., None, None], nw[..., None, None]


def sectional_curvature(h: np.ndarray, u: np.ndarray, v: np.ndarray, alpha):
    """Sectional curvature of the plane spanned by u, v at h, from any
    basis (u, v) of it.

    Equals tr([U, W]^2)/4 for the orthonormal basis U, W of the plane in
    whitened coordinates (see ``_project``); the commutator is
    skew-Hermitian, so the value is computed as -||[U, W]||_F^2 / 4,
    which is nonpositive by construction.  U and W have unit length, so
    the value stays representable for a pair of any scale from 1e-150
    to 1e150.
    """
    (h, u, v), alpha = _checked(alpha, h=h, u=u, v=v)
    return _sectional(linalg._factor(h), u, v, alpha)


def _sectional(eig, u, v, alpha):
    """``sectional_curvature`` at the point whose eigenpair is eig."""
    up, vp = linalg._whiten(eig, u, v)
    c, nu, nw = _project(up, vp, alpha)
    up, wp = up / nu, (vp - c * up) / nw
    k = up @ wp - wp @ up
    return -0.25 * np.linalg.norm(k, axis=(-2, -1)) ** 2


@dataclass(frozen=True, eq=False)
class FiberGeodesic:
    """Geodesic t -> H^{1/2} exp(t H^{-1/2} A H^{-1/2}) H^{1/2}; ``frame``
    is its spectral frame (see ``_frame``), factored once at construction."""

    start: np.ndarray
    velocity: np.ndarray
    frame: tuple = field(init=False, repr=False)

    def __post_init__(self):
        (h, v), _, _ = linalg._checked(start=self.start, velocity=self.velocity)
        object.__setattr__(self, "start", h)
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "frame", _frame(linalg._factor(h), v))


def _frame(eig, m: np.ndarray, endpoint: bool = False) -> tuple:
    """The geodesic frame (h^{1/2}, U, lam, endpoint) at the point whose
    eigenpair is eig, from the roots h^{1/2}, h^{-1/2} it gives and
    h^{-1/2} m h^{-1/2} = U diag(mu) U^dagger: lam = mu for a velocity m, and
    lam = log mu for an endpoint m, whose positivity and condition this
    decides.  This dense whitening, the congruence by h^{-1/2}, not
    ``linalg._whiten``, keeps the exp/log roundtrip's rounding."""
    hs, hsi = linalg._roots_from(*eig)
    mu, u = linalg._eigh(linalg._congruence(hsi, m, linalg.OVERFLOW_DETAIL))
    return hs, u, linalg._log(mu, m) if endpoint else mu, endpoint


def _geodesic(h: np.ndarray, frame, t) -> np.ndarray:
    """The geodesic point h^{1/2} U e^{t lam} U^dagger h^{1/2} at a finite t,
    a scalar or one value per matrix; where t is 0 the point is h itself."""
    t = check_floats(t, "t")
    linalg._broadcast(t.shape, h.shape[:-2], what="t and batch shapes")
    reject(~np.isfinite(t), ParameterError, lambda k: f"t={t[k]} is not finite")
    if not t.any():
        return h
    hs, u, lam, endpoint = frame
    # between the ends of an endpoint frame, t lam lies between 0 and
    # log mu, mu finite: such a point is bounded by its ends
    # (p #_t q <= (1 - t) p + t q), so only the others meet the exp guard
    guard = ~(endpoint & (t >= 0.0) & (t <= 1.0))
    g = linalg._congruence(hs, linalg._recompose(u, linalg._exp(t[..., None] * lam, guard)))
    return g if t.all() else np.where(t[..., None, None] == 0.0, h, g)


def geodesic_eval(g: FiberGeodesic, t) -> np.ndarray:
    """Evaluate the geodesic with start H and initial velocity A at time t,
    a scalar or one value per matrix of a stack."""
    return _geodesic(g.start, g.frame, t)


def fiber_distance(p: np.ndarray, q: np.ndarray, alpha):
    """Geodesic distance sqrt(sum (log lam_i)^2 + alpha (log prod lam_i)^2),

    where lam_i are the eigenvalues of p^{-1} q.
    """
    lam = linalg.relative_spectrum(p, q)
    return _distance(lam, check_alpha(alpha, lam.shape[-1], lam.shape[:-1]))


def _distance(lam: np.ndarray, alpha) -> np.ndarray:
    """The distance from the relative spectrum lam and an admissible alpha."""
    logs = np.log(lam)
    # row @ column sums like np.dot of two vectors, per matrix of a stack
    sq = (logs[..., None, :] @ logs[..., :, None])[..., 0, 0]
    return np.sqrt(sq + alpha * logs.sum(axis=-1) ** 2)


def log_map(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The unique Hermitian A with geodesic_eval({p, A}, 1) = q.

    Realized as p^{1/2} U diag(lam) U^dagger p^{1/2} in the endpoint frame
    of q; p's eigendecomposition decides that p is positive definite, the
    frame that q is.
    """
    (p, q), _, _ = linalg._checked(p=p, q=q)
    return _log_map(linalg._factor(p), q)


def _log_map(eig, q: np.ndarray) -> np.ndarray:
    """``log_map`` from the point whose eigenpair is eig."""
    ps, u, lam, _ = _frame(eig, q, endpoint=True)
    return linalg._congruence(ps, linalg._recompose(u, lam))


def geodesic_residual(g: FiberGeodesic, t: float, step: float):
    """Central-difference residual of d/dt(gamma^{-1} gamma-dot) at t.

    Uses the product-rule form g^{-1} g-ddot - (g^{-1} g-dot)^2 with both
    derivatives replaced by central differences, which carries a genuine
    O(step^2) truncation term.  (Nesting the differences instead cancels
    exactly along one-parameter subgroups and only measures roundoff.)
    Zero up to that truncation error exactly when g satisfies the
    geodesic equation; convention-free check of the spray sign.
    """
    t, step = check_floats(t, "t"), check_floats(step, "step")
    reject(~((step > 0) & (step < np.inf)), ParameterError,
           lambda k: f"step={step[k]} must be positive and finite")
    gm = geodesic_eval(g, t)
    gp = geodesic_eval(g, t + step)
    gn = geodesic_eval(g, t - step)
    gdot = (gp - gn) / (2 * step)
    gddot = (gp - 2 * gm + gn) / step**2
    q = np.linalg.solve(gm, gdot)
    return np.linalg.norm(np.linalg.solve(gm, gddot) - q @ q, axis=(-2, -1))


def hermitian_basis(r: int) -> np.ndarray:
    """Orthonormal real basis of the r x r Hermitian matrices (Frobenius):
    a stack of the diagonal units, then real and imaginary units per i < j.
    A rank above ``linalg.RANK_LIMIT`` is refused before the r^4 entries
    are allocated."""
    r = check_count(r, "r", 1)
    if r > linalg.RANK_LIMIT:
        raise ParameterError(f"r={r}: need at most {linalg.RANK_LIMIT}")
    i, j = np.triu_indices(r, 1)
    k = r + 2 * np.arange(len(i))
    basis = np.zeros((r * r, r, r), dtype=np.complex128)
    basis[np.arange(r), np.arange(r), np.arange(r)] = 1.0
    s = 1.0 / np.sqrt(2.0)
    basis[k, i, j] = basis[k, j, i] = s
    basis[k + 1, i, j], basis[k + 1, j, i] = 1j * s, -1j * s
    return basis


EXP_FD_STEP = 1e-5


def exp_differential_min_singular(h: np.ndarray, v: np.ndarray):
    """Smallest singular value of the differential of the exponential map.

    The map v -> geodesic_eval({h, v}, 1) is differentiated by central
    differences of step ``EXP_FD_STEP`` over an orthonormal coordinate
    system of the real r^2-dimensional space of Hermitian matrices; a
    strictly positive result certifies local invertibility at v.
    """
    (h, v), r, _ = linalg._checked(h=h, v=v)
    basis = hermitian_basis(r)
    steps, h, v = EXP_FD_STEP * basis, h[..., None, :, :], v[..., None, :, :]
    frame = _frame(linalg._factor(h), np.stack([v + steps, v - steps]))
    plus, minus = _geodesic(h, frame, 1.0)
    # jac[i, j]: coordinate i of the derivative along basis direction j
    jac = _trace(basis[:, None] @ ((plus - minus) / (2 * EXP_FD_STEP))[..., None, :, :, :])
    return np.linalg.svd(jac, compute_uv=False)[..., -1]
