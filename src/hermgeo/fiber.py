"""Riemannian geometry of a single fiber of positive-definite Hermitian
matrices with the one-parameter family of invariant metrics

    <v, w>_h = tr(h^{-1} v h^{-1} w) + alpha tr(h^{-1} v) tr(h^{-1} w),

admissible for alpha > -1/r.  Closed-form geodesics, distance, curvature
and exponential/log maps all live here.

Expressions of the form h^{-1} v are never evaluated as an explicit
inverse times a matrix: they go through the congruence
h^{-1/2} (h^{-1/2} v h^{-1/2}) h^{1/2}, whose middle factor is Hermitian,
so Hermiticity survives roundoff.  Every function also takes (..., r, r)
stacks, with alpha one value per matrix, and validates arguments once,
then calls an unvalidated kernel (``_distance``, ``_frame``, ``_geodesic``);
section ops call those kernels directly on the stacks their constructors
validated, with the roots a metric section holds.  A base point is checked
Hermitian; the eigendecomposition that gives its roots decides positivity.
A geodesic is one spectral frame: its points and log map need no eigh.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegeneratePlaneError, ParameterError, reject

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
    a = np.asarray(alpha, dtype=float)
    linalg._broadcast(a.shape, batch, what="alpha and batch shapes")
    reject(~(np.isfinite(a) & (a > -1.0 / rank)), ParameterError,
           lambda k: f"alpha={a[k]} not admissible for rank {rank}: "
                     f"need alpha > {-1.0 / rank}")
    return float(a) if a.ndim == 0 else a


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1).real


def _whiten(hsi: np.ndarray, *vs: np.ndarray) -> list[np.ndarray]:
    """Return hsi v hsi for each v; with hsi = h^{-1/2} each is Hermitian."""
    return [linalg.hermitian_part(hsi @ v @ hsi) for v in vs]


def _inner(vw: np.ndarray, ww: np.ndarray, alpha) -> np.ndarray:
    """The inner product at the identity, applied to whitened vectors."""
    return _trace(vw @ ww) + alpha * _trace(vw) * _trace(ww)


def _checked_alpha(alpha, *mats: np.ndarray):
    """check_alpha at the common rank of ``mats``, against the broadcast of
    their batch shapes."""
    return check_alpha(alpha, linalg.same_rank(*mats),
                       linalg._broadcast(*(m.shape[:-2] for m in mats)))


def alpha_inner(h: np.ndarray, v: np.ndarray, w: np.ndarray, alpha):
    """The invariant inner product of tangent vectors v, w at the point h."""
    h, v, w = (linalg.hermitian(x) for x in (h, v, w))
    alpha = _checked_alpha(alpha, h, v, w)
    return _inner(*_whiten(linalg._roots(h)[1], v, w), alpha)


def spray(h: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Metric spray B_h(v, w) = (v h^{-1} w + w h^{-1} v) / 2.

    Independent of alpha: one spray serves the whole metric family.
    """
    h, v, w = (linalg.hermitian(x) for x in (h, v, w))
    linalg.same_rank(h, v, w)
    hsi = linalg._roots(h)[1]
    return linalg.hermitian_part(v @ hsi @ hsi @ w)


def curvature_tensor(h: np.ndarray, u: np.ndarray, v: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Curvature R_h(u, v)w as a Hermitian form.

    With U = h^{-1}u etc. the endomorphism form is -[[U, V], W]/4;
    mapping back through v -> h^{-1} v gives the Hermitian result
    -h^{1/2} [[U', V'], W'] h^{1/2} / 4 in whitened coordinates.
    """
    h, u, v, w = (linalg.hermitian(x) for x in (h, u, v, w))
    linalg.same_rank(h, u, v, w)
    hs, hsi = linalg._roots(h)
    up, vp, wp = _whiten(hsi, u, v, w)
    k = up @ vp - vp @ up
    dbl = k @ wp - wp @ k
    return linalg.hermitian_part(-0.25 * (hs @ dbl @ hs))


def _gram_schmidt_pair(h, u, v, alpha):
    """Orthonormalize (u, v), Hermitian, for the inner product at the
    Hermitian h; the roots of h decide that it is positive definite."""
    return _orthonormalize(linalg._roots(h)[1], u, v, alpha)


def _orthonormalize(hsi, u, v, alpha):
    """``_gram_schmidt_pair`` at the point whose h^{-1/2} is hsi."""
    nu = np.sqrt(_inner(*_whiten(hsi, u, u), alpha))
    reject(nu < 1e-14, DegeneratePlaneError,
           lambda k: "first vector has vanishing norm")
    u = u / nu[..., None, None]
    v = v - _inner(*_whiten(hsi, u, v), alpha)[..., None, None] * u
    nv = np.sqrt(_inner(*_whiten(hsi, v, v), alpha))
    reject(nv < 1e-12, DegeneratePlaneError,
           lambda k: "vectors are linearly dependent")
    return u, v / nv[..., None, None]


def sectional_curvature(h: np.ndarray, u: np.ndarray, v: np.ndarray, alpha):
    """Sectional curvature of the plane spanned by u, v at h.

    Equals tr([U, V]^2)/4 for an orthonormal pair; the commutator of the
    whitened vectors is skew-Hermitian, so the value is computed as
    -||[U', V']||_F^2 / 4, which is nonpositive by construction.
    Pairs that fail the orthonormality check (tolerance 1e-8) are
    re-orthonormalized by Gram-Schmidt and a warning is issued.
    """
    h, u, v = (linalg.hermitian(x) for x in (h, u, v))
    alpha = _checked_alpha(alpha, h, u, v)
    hsi = linalg._roots(h)[1]
    up, vp = _whiten(hsi, u, v)
    dev = np.max([abs(_inner(up, up, alpha) - 1.0),
                  abs(_inner(vp, vp, alpha) - 1.0),
                  abs(_inner(up, vp, alpha))], axis=0)
    if np.any(dev > 1e-8):
        u, v = _orthonormalize(hsi, u, v, alpha)
        up, vp = _whiten(hsi, u, v)
        warnings.warn(
            f"input pair deviated from orthonormality by {np.max(dev):.3e}; "
            "re-orthonormalized via Gram-Schmidt", stacklevel=2)
    k = up @ vp - vp @ up
    return -0.25 * np.linalg.norm(k, axis=(-2, -1)) ** 2


@dataclass(frozen=True)
class FiberGeodesic:
    """Geodesic t -> H^{1/2} exp(t H^{-1/2} A H^{-1/2}) H^{1/2}; ``frame``
    is its spectral frame (see ``_frame``), factored once at construction."""

    start: np.ndarray
    velocity: np.ndarray
    frame: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start", linalg.hermitian(self.start))
        object.__setattr__(self, "velocity", linalg.hermitian(self.velocity))
        linalg.same_rank(self.start, self.velocity)
        object.__setattr__(self, "frame", _frame(linalg._roots(self.start), self.velocity))

    def __call__(self, t) -> np.ndarray:
        return geodesic_eval(self, t)


def _frame(roots, m: np.ndarray, endpoint: bool = False) -> tuple:
    """The geodesic frame (h^{1/2}, U, lam) from roots = (h^{1/2}, h^{-1/2}) and
    h^{-1/2} m h^{-1/2} = U diag(mu) U^dagger: lam = mu for a velocity m, and
    lam = log mu for an endpoint m, whose positivity and condition this decides."""
    mu, u = linalg._eigh(_whiten(roots[1], m)[0])
    return roots[0], u, linalg._log(mu) if endpoint else mu


def _geodesic(h: np.ndarray, frame, t) -> np.ndarray:
    """The geodesic point h^{1/2} U e^{t lam} U^dagger h^{1/2} at a finite t,
    a scalar or one value per matrix; where t is 0 the point is h itself."""
    t = np.asarray(t, dtype=float)
    linalg._broadcast(t.shape, h.shape[:-2], what="t and batch shapes")
    reject(~np.isfinite(t), ParameterError, lambda k: f"t={t[k]} is not finite")
    if not t.any():
        return h
    hs, u, lam = frame
    g = hs @ linalg._recompose(u, linalg._exp(t[..., None] * lam)) @ hs
    g = linalg._finite(linalg.hermitian_part(g))
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
    of q; the roots decide that p is positive definite, the frame that q is.
    """
    p = linalg.hermitian(p)
    q = linalg.hermitian(q)
    linalg.same_rank(p, q)
    ps, u, lam = _frame(linalg._roots(p), q, endpoint=True)
    return linalg.hermitian_part(ps @ linalg._recompose(u, lam) @ ps)


def geodesic_residual(g: FiberGeodesic, t: float, step: float):
    """Central-difference residual of d/dt(gamma^{-1} gamma-dot) at t.

    Uses the product-rule form g^{-1} g-ddot - (g^{-1} g-dot)^2 with both
    derivatives replaced by central differences, which carries a genuine
    O(step^2) truncation term.  (Nesting the differences instead cancels
    exactly along one-parameter subgroups and only measures roundoff.)
    Zero up to that truncation error exactly when g satisfies the
    geodesic equation; convention-free check of the spray sign.
    """
    if not 0 < step < np.inf:
        raise ParameterError(f"step={step!r} must be positive and finite")
    gm = geodesic_eval(g, t)
    gp = geodesic_eval(g, t + step)
    gn = geodesic_eval(g, t - step)
    gdot = (gp - gn) / (2 * step)
    gddot = (gp - 2 * gm + gn) / step**2
    q = np.linalg.solve(gm, gdot)
    return np.linalg.norm(np.linalg.solve(gm, gddot) - q @ q, axis=(-2, -1))


def hermitian_basis(r: int) -> np.ndarray:
    """Orthonormal real basis of the r x r Hermitian matrices (Frobenius):
    a stack of the diagonal units, then real and imaginary units per i < j."""
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
    h = linalg.hermitian(h)
    v = linalg.hermitian(v)
    basis = hermitian_basis(linalg.same_rank(h, v))
    steps, h, v = EXP_FD_STEP * basis, h[..., None, :, :], v[..., None, :, :]
    frame = _frame(linalg._roots(h), np.stack([v + steps, v - steps]))
    plus, minus = _geodesic(h, frame, 1.0)
    # jac[i, j]: coordinate i of the derivative along basis direction j
    jac = _trace(basis[:, None] @ ((plus - minus) / (2 * EXP_FD_STEP))[..., None, :, :, :])
    return np.linalg.svd(jac, compute_uv=False)[..., -1]
