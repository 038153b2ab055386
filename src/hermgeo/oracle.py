"""Brute-force distance oracle on a fiber.

Independent check of the closed-form geodesic distance: a discrete path
between two positive-definite matrices is optimized by descent over its
interior nodes, and the discrete length of the optimized path is
reported.  Nothing here touches the closed-form distance, geodesics or
matrix logarithms, so agreement between the two routes is evidence, not
tautology.

Per-segment lengths use two-point Gauss quadrature of the metric speed
along the straight chord.  The midpoint rule's O(N^-2) systematic
underestimate of segment lengths would violate the oracle's lower-bound
contract at 64 segments; Gauss-2 keeps the quadrature bias orders of
magnitude below the 1e-6 floor.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import OracleFailureError, ParameterError
from .fiber import check_alpha

# Gauss-Legendre nodes on [0, 1], weights 1/2 each.
_GAUSS_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _segment_bases(path: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chord differences and Gauss-point base matrices for every segment."""
    delta = path[1:] - path[:-1]                      # (N, r, r)
    base = path[:-1, None] + _GAUSS_T[None, :, None, None] * delta[:, None]
    return delta, base


def _speed_sq(delta: np.ndarray, base: np.ndarray, alpha: float) -> np.ndarray:
    """Squared metric speed ||delta||^2 at each (segment, gauss) base."""
    binv = np.linalg.inv(base)                        # (N, 2, r, r)
    m = binv @ delta[:, None]                         # B^{-1} delta
    tr_mm = np.einsum("sgij,sgji->sg", m, m).real
    tr_m = np.einsum("sgii->sg", m).real
    return tr_mm + alpha * tr_m**2


def discrete_length(path: np.ndarray, alpha: float) -> float:
    """Gauss-2 length of the piecewise-straight path."""
    delta, base = _segment_bases(path)
    sq = np.maximum(_speed_sq(delta, base, alpha), 0.0)
    return float((0.5 * np.sqrt(sq)).sum())


def _energy_and_grad(path: np.ndarray, alpha: float):
    """Discrete path energy N * sum_k avg_g ||delta_k||^2_B and its gradient
    with respect to the interior nodes."""
    n_seg = path.shape[0] - 1
    delta, base = _segment_bases(path)
    binv = np.linalg.inv(base)
    m = binv @ delta[:, None]                         # (N, 2, r, r)
    tr_mm = np.einsum("sgij,sgji->sg", m, m).real
    tr_m = np.einsum("sgii->sg", m).real
    energy = float(n_seg * (0.5 * (tr_mm + alpha * tr_m**2)).sum())

    mb = m @ binv                                     # B^{-1} delta B^{-1}
    mmb = m @ mb                                      # B^{-1} d B^{-1} d B^{-1}
    g_delta = 2.0 * mb + 2.0 * alpha * tr_m[..., None, None] * binv
    g_base = -2.0 * mmb - 2.0 * alpha * tr_m[..., None, None] * mb
    g_delta = (g_delta + np.swapaxes(g_delta, -1, -2).conj()) / 2
    g_base = (g_base + np.swapaxes(g_base, -1, -2).conj()) / 2

    # Node k feels segment k through (-d/dx of delta, (1-t_g) of base) and
    # segment k-1 through (+delta, t_g of base).
    w = 0.5 * n_seg
    seg_from_delta = w * g_delta.sum(axis=1)          # (N, r, r)
    seg_from_base_lo = w * ((1.0 - _GAUSS_T)[None, :, None, None] * g_base).sum(axis=1)
    seg_from_base_hi = w * (_GAUSS_T[None, :, None, None] * g_base).sum(axis=1)

    grad = np.zeros_like(path)
    grad[:-1] += -seg_from_delta + seg_from_base_lo
    grad[1:] += seg_from_delta + seg_from_base_hi
    grad[0] = 0.0
    grad[-1] = 0.0
    return energy, grad


def _clamp_posdef(a: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    w, u = np.linalg.eigh((a + np.swapaxes(a, -1, -2).conj()) / 2)
    w = np.maximum(w, floor)
    out = (u * w[..., None, :]) @ np.swapaxes(u, -1, -2).conj()
    return (out + np.swapaxes(out, -1, -2).conj()) / 2


def _initial_path(p: np.ndarray, q: np.ndarray, segments: int) -> np.ndarray:
    """Straight-line interpolation in matrix entries, clamped to the cone.

    Deliberately geodesic-agnostic so the optimizer does not start at
    the answer.
    """
    t = np.linspace(0.0, 1.0, segments + 1)
    path = p[None] + t[:, None, None] * (q - p)[None]
    return _clamp_posdef(path)


def _is_posdef(path: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(path)
        return True
    except np.linalg.LinAlgError:
        return False


def _descend(path: np.ndarray, alpha: float, iterations: int) -> np.ndarray:
    """Gradient descent on the path energy with Barzilai-Borwein steps.

    Steps that leave the positive cone or raise the energy are rejected
    and halved; persistent rejection near the cone boundary aborts.
    """
    energy, grad = _energy_and_grad(path, alpha)
    gnorm = np.linalg.norm(grad)
    if gnorm == 0.0:
        return path
    eta = 0.05 * np.linalg.norm(path) / (gnorm + 1e-30)
    prev_path = prev_grad = None
    rejects = 0
    for _ in range(iterations):
        if prev_path is not None:
            dx = path - prev_path
            dg = grad - prev_grad
            denom = np.vdot(dg, dg).real
            if denom > 1e-300:
                bb = abs(np.vdot(dx, dg).real) / denom
                if np.isfinite(bb) and bb > 0:
                    eta = bb
        trial = path - eta * grad
        if not _is_posdef(trial[1:-1]):
            eta *= 0.5
            prev_path = prev_grad = None
            rejects += 1
            if rejects > 200:
                raise OracleFailureError(
                    "descent could not stay inside the positive cone")
            continue
        e_trial, g_trial = _energy_and_grad(trial, alpha)
        if e_trial < energy:
            prev_path, prev_grad = path, grad
            path, energy, grad = trial, e_trial, g_trial
            rejects = 0
        else:
            eta *= 0.5
            prev_path = prev_grad = None
            rejects += 1
            if rejects > 200:
                break
    return path


def _refine(path: np.ndarray) -> np.ndarray:
    """Double the segment count by inserting arithmetic midpoints."""
    mids = (path[:-1] + path[1:]) / 2
    out = np.empty((2 * (path.shape[0] - 1) + 1,) + path.shape[1:],
                   dtype=path.dtype)
    out[0::2] = path
    out[1::2] = mids
    return out


def distance_oracle(p: np.ndarray, q: np.ndarray, alpha: float,
                    segments: int = 64, iterations: int = 500,
                    seed: int = 0) -> float:
    """Length of a descent-optimized discrete path from p to q.

    Coarse-to-fine: the path is first optimized at a low segment count
    (low-frequency shape converges cheaply there), then midpoint-refined
    up to the requested resolution, spending the iteration budget across
    levels.  Deterministic for fixed (inputs, seed); the seed only
    perturbs the initial interior nodes by ~1e-8 to break symmetry.
    """
    p = linalg.posdef(p)
    q = linalg.posdef(q)
    r = linalg.same_rank(p, q)
    alpha = check_alpha(alpha, r)
    if segments < 8:
        raise ParameterError("need at least 8 segments")

    levels = [segments]
    while levels[-1] > 8 and levels[-1] % 2 == 0:
        levels.append(levels[-1] // 2)
    levels.reverse()

    path = _initial_path(p, q, levels[0])
    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.standard_normal(path.shape) + 1j * rng.standard_normal(path.shape)
    noise = (noise + np.swapaxes(noise, -1, -2).conj()) / 2
    scale = 1e-8 * max(np.linalg.norm(p), np.linalg.norm(q))
    path[1:-1] += scale * noise[1:-1]

    per_level = max(50, iterations // len(levels))
    for i, n_seg in enumerate(levels):
        if path.shape[0] - 1 != n_seg:
            path = _refine(path)
        budget = iterations - (len(levels) - 1) * per_level \
            if i == len(levels) - 1 else per_level
        path = _descend(path, alpha, max(budget, per_level))
    return discrete_length(path, alpha)
