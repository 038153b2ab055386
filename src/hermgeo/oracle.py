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

Each interior node h steps along the gradient of the path energy in the
metric at h itself, g_h(A, B) = tr(h^{-1}A h^{-1}B) + alpha tr(h^{-1}A)
tr(h^{-1}B), not along the Euclidean gradient: the metric tensor alone
rescales the step to the node's own eigenvalues (no log, exp or
geodesic).  A sample's descent at one refinement level stops once its
energy has fallen by less than STOP_TOL of itself over its last
STOP_WIN accepted steps, or when the level's share of the iteration cap
runs out.

The descent runs over an (S, N + 1, r, r) stack of paths, one per
sample, with the refinement levels in lockstep: each sample keeps its
own step, energies, rejection count and stop flag as Python scalars,
and only the energy evaluations, the step-size products and the cone
check are stacked.  While every sample runs and accepts, the stack
moves by rebinding its current and previous buffers; rows are indexed
out only when some sample has stopped or is rejected.  Each sample's p
and q are first brought to unit scale by a power of 4, which every
step follows exactly, so a length does not depend on its pair's scale.

The energy kernel works entries first: each call moves the stack to
one contiguous (r, r, S, N + 1) array, in which entry (i, j) of every
node is one slab.  A matrix product is then a broadcast sum over the
inner index, an inverse is Gauss-Jordan elimination without pivoting
on the positive-definite Gauss-point bases, r steps over the whole
stack, and a trace is a sum of r slabs: a few numpy calls over all
S * N * 2 bases at once, at every rank.  Its rounding differs from
that of ``np.linalg.inv`` and ``@`` per matrix; ``tests/test_oracle.py``
keeps that route as an independent cross-check and bounds the gap by
the condition numbers involved.  The kernel is elementwise over the
stack, so every sample's arithmetic is bit for bit that of a descent
of the sample alone, which the tests keep as the reference.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import (DimensionError, NotPositiveDefiniteError, OracleFailureError,
                     check_count, reject)
from .fiber import check_alpha
from .sampling import _complex_normal, make_rng

# Gauss-Legendre nodes on [0, 1], weights 1/2 each.
_GAUSS_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])

# How a segment's delta gradient and base gradient, at the two Gauss
# points, reach its two end nodes (columns: node k, node k + 1).  The
# base rows carry minus m times the delta gradient, hence their sign.
_TO_NODES = np.array([[-1.0, 1.0], [-1.0, 1.0],
                      [_GAUSS_T[0] - 1.0, -_GAUSS_T[0]],
                      [_GAUSS_T[1] - 1.0, -_GAUSS_T[1]]])


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of two entries-first (r, r, ...) stacks of matrices."""
    return (a[:, :, None] * b[None]).sum(axis=1)


def _inv(a: np.ndarray) -> np.ndarray:
    """Inverses of an entries-first (r, r, ...) stack of Hermitian
    positive-definite matrices: Gauss-Jordan elimination without
    pivoting on [a | I], one column at a time over the whole stack.  The
    pivots of such a matrix are real and positive; step k touches only
    columns k to r + k, the others are settled or still unit columns."""
    r = a.shape[0]
    aug = np.zeros((r, 2 * r) + a.shape[2:], dtype=complex)
    aug[:, :r] = a
    for k in range(r):
        aug[k, r + k] = 1.0
    for k in range(r):
        cols = slice(k, r + k + 1)
        row = aug[k, cols] * (1.0 / aug[k, k].real)
        aug[:, cols] -= aug[:, k, None] * row
        aug[k, cols] = row
    return aug[:, r:]


def _whitened(paths: np.ndarray, alpha: np.ndarray):
    """The nodes of a stack of paths entries first, (r, r, S, N + 1);
    B^{-1} and m = B^{-1} delta at every base, (r, r, 2, S, N) over
    (Gauss point, sample, segment); the traces of m m and of m,
    (2, S, N); and alpha as (S, 1)."""
    x = np.ascontiguousarray(paths.transpose(2, 3, 0, 1))
    delta = (x[..., 1:] - x[..., :-1])[:, :, None]
    binv = _inv(x[:, :, None, :, :-1] + _GAUSS_T[:, None, None] * delta)
    m = _mul(binv, delta)
    tr_mm = (m * m.swapaxes(0, 1)).sum(axis=(0, 1)).real
    tr_m = np.trace(m).real
    return x, binv, m, tr_mm, tr_m, alpha[:, None]


def discrete_length(path: np.ndarray, alpha) -> float | np.ndarray:
    """Gauss-2 length of a piecewise-straight path (N + 1, r, r), or of
    each path of an (S, N + 1, r, r) stack with one alpha per path."""
    paths = path if path.ndim == 4 else path[None]
    *_, tr_mm, tr_m, a = _whitened(paths, np.broadcast_to(alpha, paths.shape[:1]))
    speed = 0.5 * np.sqrt(np.maximum(tr_mm + a * tr_m**2, 0.0))
    lengths = (speed[0] + speed[1]).sum(axis=1)
    return lengths if path.ndim == 4 else float(lengths[0])


def _energy_and_grad(paths: np.ndarray, alpha: np.ndarray):
    """Discrete path energy N * sum_k avg_g ||delta_k||^2_B of each path
    of a stack, and its gradient with respect to the interior nodes in
    the metric of each node.

    With G the Euclidean gradient at a node h (Hermitian, so that the
    energy moves by Re tr(G A) along a Hermitian A), the metric gradient
    is the X with g_h(X, A) = Re tr(G A) for every Hermitian A.  Try
    X = h G h + c h: then h^{-1} X h^{-1} = G + c h^{-1} and
    tr(h^{-1} X) = tr(h G) + c r, so

        g_h(X, A) = tr(G A) + (c + alpha tr(h G) + alpha c r) tr(h^{-1} A),

    which is tr(G A) for every A exactly when
    c = -alpha tr(h G) / (1 + r alpha); alpha > -1/r keeps 1 + r alpha
    positive.  G = Y + Y^H for the half gradient Y assembled below, so
    h G h is h Y h plus its adjoint and tr(h G) = 2 Re tr(h Y): X is
    Hermitian bit for bit.
    """
    x, binv, m, tr_mm, tr_m, a = _whitened(paths, alpha)
    r, n_seg = len(x), x.shape[-1] - 1
    sq = 0.5 * (tr_mm + a * tr_m**2)
    energy = n_seg * (sq[0] + sq[1]).sum(axis=1)

    # d/d delta = 2 B^{-1} delta B^{-1} + 2 alpha tr(m) B^{-1} and
    # d/d base = -m (d/d delta), at both Gauss points: (r, r, 4, S, N)
    g = np.empty(m.shape[:2] + (4,) + m.shape[3:], dtype=complex)
    g[:, :, :2] = 2.0 * _mul(m, binv) + (2.0 * a * tr_m) * binv
    g[:, :, 2:] = _mul(m, g[:, :, :2])
    # each segment's share at its two end nodes, weighted by N / 2 for
    # the Gauss weights and by 1/2 for the Hermitian part taken below
    ends = (g[:, :, :, None] * (0.25 * n_seg * _TO_NODES)[:, :, None, None]).sum(axis=2)
    half = ends[:, :, 0, :, 1:] + ends[:, :, 1, :, :-1]
    h = x[..., 1:-1]
    hy = _mul(h, half)
    hyh = _mul(hy, h)
    c = (2.0 * a / (1.0 + r * a)) * np.trace(hy).real
    grad = np.zeros_like(paths)
    grad[:, 1:-1] = (hyh + hyh.swapaxes(0, 1).conj() - c * h).transpose(2, 3, 0, 1)
    return energy, grad


CLAMP_FLOOR = 1e-10


def _clamp_posdef(a: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(linalg.hermitian_part(a))
    return linalg._recompose(u, np.maximum(w, CLAMP_FLOOR))


def _initial_paths(p: np.ndarray, q: np.ndarray, segments: int) -> np.ndarray:
    """Straight-line interpolation in matrix entries, clamped to the cone.

    Deliberately geodesic-agnostic so the optimizer does not start at
    the answer.
    """
    t = np.linspace(0.0, 1.0, segments + 1)
    paths = p[:, None] + t[:, None, None] * (q - p)[:, None]
    return _clamp_posdef(paths)


def _in_cone(nodes: np.ndarray) -> np.ndarray:
    """Which samples of an (S, n, r, r) stack have every node positive
    definite: one Cholesky of the stack, one per sample if it fails."""
    try:
        np.linalg.cholesky(nodes)
        return np.ones(len(nodes), dtype=bool)
    except np.linalg.LinAlgError:
        if len(nodes) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_in_cone(x[None]) for x in nodes])


_OFF_CONE = "descent could not stay inside the positive cone"

# a sample's level ends once its energy E has fallen by less than
# STOP_TOL * E over its last STOP_WIN accepted steps
STOP_TOL = 1e-7
STOP_WIN = 5


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_s, b_s> for each sample s of two contiguous complex stacks,
    summed along each sample's flat real view, as it alone would be."""
    n = len(a)
    return (a.view(float).reshape(n, -1) * b.view(float).reshape(n, -1)).sum(axis=1)


def _descend(paths: np.ndarray, alpha: np.ndarray, iterations: int) -> np.ndarray:
    """Descent on each path's energy along its metric gradient with
    Barzilai-Borwein steps, over a stack of paths in lockstep.

    The step is eta = |<dx, dX>| / <dX, dX> over the last accepted step
    dx and the change dX of the metric gradient, products Euclidean.
    Steps that leave the positive cone or raise the energy are rejected
    and halved.  A sample stops by the STOP_TOL / STOP_WIN rule, after
    201 rejections in a row, or at once if its gradient is zero; if the
    last of those rejections was a cone rejection the descent aborts and
    names the sample.  It also aborts when a sample still running after
    ``iterations`` steps accepted no step and its last rejection was a
    cone rejection: its path never moved.

    Each sample's step, energies and counters are Python scalars: their
    float arithmetic is numpy's float64 arithmetic, IEEE double, so each
    sample's steps are bit for bit those of its descent alone.
    """
    paths = paths.copy()
    energy, grad = _energy_and_grad(paths, alpha)
    n = len(paths)
    gnorm = linalg._norm(grad.reshape(n, 1, -1))
    live = (gnorm != 0.0).tolist()
    eta = (0.05 * linalg._norm(paths.reshape(n, 1, -1)) / (gnorm + 1e-30)).tolist()
    energy = energy.tolist()
    prev_paths, prev_grad = np.empty_like(paths), np.empty_like(grad)
    has_prev = [False] * n
    rejects = [0] * n
    cone_last = [False] * n
    # the energies before each sample's last STOP_WIN accepted steps,
    # infinite until it has taken that many
    past = [[math.inf] * STOP_WIN for _ in range(n)]
    steps = [0] * n                         # accepted steps

    def halve(k, cone):
        eta[k] *= 0.5
        has_prev[k] = False
        rejects[k] += 1
        cone_last[k] = cone

    for _ in range(iterations):
        idx = [k for k in range(n) if live[k]]
        if not idx:
            break
        whole = len(idx) == n
        bb_idx = [k for k in idx if has_prev[k]]
        if bb_idx:
            if len(bb_idx) == n:
                dx, dg = paths - prev_paths, grad - prev_grad
            else:
                rows = np.array(bb_idx)
                dx, dg = paths[rows] - prev_paths[rows], grad[rows] - prev_grad[rows]
            for k, num, denom in zip(bb_idx, _dots(dx, dg).tolist(), _dots(dg, dg).tolist()):
                bb = abs(num) / denom if denom > 1e-300 else math.nan
                if 0.0 < bb < math.inf:
                    eta[k] = bb
        etas = np.array([eta[k] for k in idx])[:, None, None, None]
        if whole:
            trial = paths - etas * grad
        else:
            rows = np.array(idx)
            trial = paths[rows] - etas * grad[rows]
        inside = _in_cone(trial[:, 1:-1])
        if not inside.all():
            for k, ok in zip(idx, inside.tolist()):
                if not ok:
                    halve(k, True)
                    if rejects[k] > 200:
                        raise OracleFailureError(_OFF_CONE, index=k)
            idx, trial, whole = [k for k, ok in zip(idx, inside) if ok], trial[inside], False
            if not idx:
                continue
        e_trial, g_trial = _energy_and_grad(trial, alpha if whole else alpha[idx])
        e_trial = e_trial.tolist()
        better = [e < energy[k] for k, e in zip(idx, e_trial)]
        if whole and all(better):           # the stack moves without a copy
            prev_paths, paths, prev_grad, grad = paths, trial, grad, g_trial
        elif any(better):
            took = np.array(better)
            acc = np.array(idx)[took]
            prev_paths[acc], prev_grad[acc] = paths[acc], grad[acc]
            paths[acc], grad[acc] = trial[took], g_trial[took]
        for k, e, b in zip(idx, e_trial, better):
            if b:
                past[k][steps[k] % STOP_WIN] = energy[k]
                steps[k] += 1
                energy[k] = e
                rejects[k] = 0
                has_prev[k] = True
                if past[k][steps[k] % STOP_WIN] - e < STOP_TOL * e:
                    live[k] = False
            else:
                halve(k, False)
                if rejects[k] > 200:
                    live[k] = False
    reject([live[k] and not steps[k] and cone_last[k] for k in range(n)],
           OracleFailureError, lambda k: _OFF_CONE)
    return paths


def _refine(paths: np.ndarray) -> np.ndarray:
    """Double the segment count by inserting arithmetic midpoints."""
    mids = (paths[:, :-1] + paths[:, 1:]) / 2
    out = np.empty((len(paths), 2 * mids.shape[1] + 1) + paths.shape[2:],
                   dtype=paths.dtype)
    out[:, 0::2] = paths
    out[:, 1::2] = mids
    return out


def _per_sample(values, n: int, name: str) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim and values.shape != (n,):
        raise DimensionError(f"{name} has shape {values.shape}; "
                             f"need a scalar or one value for each of {n} samples")
    return np.broadcast_to(values, (n,))


def _unit_scaled(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's p and q times the power of 4 that brings their
    largest real or imaginary part into [1, 4).  The distance is
    invariant under h -> c h, and a power of 4 scales every step of the
    descent exactly, square roots included, so a sample's length does
    not depend on its scale: CLAMP_FLOOR acts relative to it, and the
    products of entries stay far from overflow.  ``np.ldexp`` scales
    subnormal entries too, without forming the factor."""
    big = np.abs(np.concatenate([p, q], axis=1).view(float)).max(axis=(1, 2))
    shift = -2 * ((np.frexp(big)[1] - 1) // 2)[:, None, None]
    return tuple(np.ldexp(a.view(float), shift).view(complex) for a in (p, q))


def distance_oracle(p: np.ndarray, q: np.ndarray, alpha,
                    segments: int = 64, iterations: int = 500,
                    seed=0) -> float | np.ndarray:
    """Length of a descent-optimized discrete path from p to q.

    p and q are matrices, or (S, r, r) stacks of S samples that share
    segments and iterations; alpha and seed are scalars or one per
    sample.  A stack returns S lengths, each bit for bit the length of
    its sample run alone; an empty stack returns an empty array.  Each
    sample runs at a unit scale (``_unit_scaled``), so c p and c q give
    the length of p and q for any c > 0, bit for bit when c is a power
    of 4.

    Coarse-to-fine: the path is first optimized at a low segment count
    (low-frequency shape converges cheaply there), then midpoint-refined
    up to the requested resolution.  ``iterations`` caps the descent
    steps of a sample over all levels: each level gets an equal share,
    the finest the remainder too, and a sample leaves a level early once
    its energy stalls (see ``_descend``).  Deterministic for fixed
    (inputs, seed); the seed only perturbs the initial interior nodes by
    ~1e-8 to break symmetry.
    """
    (p, q), r, _ = linalg._checked(p=p, q=q)
    if p.shape != q.shape or p.ndim > 3:
        raise DimensionError(f"need two matrices or two (S, r, r) stacks, "
                             f"got shapes {p.shape} and {q.shape}")
    single = p.ndim == 2
    p, q = _unit_scaled(p.reshape(-1, r, r), q.reshape(-1, r, r))
    for name, ends in (("p", p), ("q", q)):
        reject(~_in_cone(ends[:, None]), NotPositiveDefiniteError,
               lambda k: f"{name} has no Cholesky factor: not positive definite")
    alpha = _per_sample(check_alpha(alpha, r), len(p), "alpha")
    # object entries keep each seed the integer it was given
    rngs = [make_rng(s) for s in _per_sample(np.asarray(seed, dtype=object),
                                             len(p), "seed")]
    segments = check_count(segments, "segments", 8)

    levels = [segments]
    while levels[-1] > 8 and levels[-1] % 2 == 0:
        levels.append(levels[-1] // 2)
    levels.reverse()
    iterations = check_count(iterations, "iterations", len(levels))
    if not len(p):
        return np.zeros(0)

    paths = _initial_paths(p, q, levels[0])
    for path, p1, q1, rng in zip(paths, p, q, rngs):
        noise = linalg.hermitian_part(_complex_normal(rng, 1, path.shape)[0])
        scale = 1e-8 * max(np.linalg.norm(p1), np.linalg.norm(q1))
        path[1:-1] += scale * noise[1:-1]

    share, rest = divmod(iterations, len(levels))
    for n_seg in levels:
        if paths.shape[1] - 1 != n_seg:
            paths = _refine(paths)
        paths = _descend(paths, alpha, share + (rest if n_seg == segments else 0))
    lengths = discrete_length(paths, alpha)
    return float(lengths[0]) if single else lengths
