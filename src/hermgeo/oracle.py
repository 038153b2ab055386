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
own step, previous point, rejection count and stop flag, and only the
energy evaluations, the step-size products and the cone check are
stacked.

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
    """
    paths = paths.copy()
    energy, grad = _energy_and_grad(paths, alpha)
    n = len(paths)
    gnorm = linalg._norm(grad.reshape(n, 1, -1))
    live = gnorm != 0.0
    eta = 0.05 * linalg._norm(paths.reshape(n, 1, -1)) / (gnorm + 1e-30)
    prev_paths = np.empty_like(paths)
    prev_grad = np.empty_like(grad)
    has_prev = np.zeros(n, dtype=bool)
    rejects = np.zeros(n, dtype=int)
    cone_last = np.zeros(n, dtype=bool)
    # the energies before each sample's last STOP_WIN accepted steps,
    # infinite until it has taken that many
    past = np.full((n, STOP_WIN), np.inf)
    steps = np.zeros(n, dtype=int)          # accepted steps

    def halve(idx):
        eta[idx] *= 0.5
        has_prev[idx] = False
        rejects[idx] += 1

    for _ in range(iterations):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        bb_idx = idx[has_prev[idx]]
        if bb_idx.size:
            dx = paths[bb_idx] - prev_paths[bb_idx]
            dg = grad[bb_idx] - prev_grad[bb_idx]
            denom = _dots(dg, dg)
            usable = denom > 1e-300
            bb = np.abs(_dots(dx, dg)[usable]) / denom[usable]
            good = np.isfinite(bb) & (bb > 0)
            eta[bb_idx[usable][good]] = bb[good]
        trial = paths[idx] - eta[idx, None, None, None] * grad[idx]
        inside = _in_cone(trial[:, 1:-1])
        if not inside.all():
            out = idx[~inside]
            halve(out)
            cone_last[out] = True
            lost = np.zeros(n, dtype=bool)
            lost[out] = rejects[out] > 200
            reject(lost, OracleFailureError, lambda k: _OFF_CONE)
            idx, trial = idx[inside], trial[inside]
            if not idx.size:
                continue
        e_trial, g_trial = _energy_and_grad(trial, alpha[idx])
        better = e_trial < energy[idx]
        acc = idx[better]
        past[acc, steps[acc] % STOP_WIN] = energy[acc]
        steps[acc] += 1
        prev_paths[acc], prev_grad[acc] = paths[acc], grad[acc]
        paths[acc], energy[acc], grad[acc] = trial[better], e_trial[better], g_trial[better]
        rejects[acc] = 0
        has_prev[acc] = True
        stalled = past[acc, steps[acc] % STOP_WIN] - energy[acc] < STOP_TOL * energy[acc]
        live[acc[stalled]] = False
        if not better.all():
            worse = idx[~better]
            halve(worse)
            cone_last[worse] = False
            live[worse[rejects[worse] > 200]] = False
    reject(live & (steps == 0) & cone_last, OracleFailureError, lambda k: _OFF_CONE)
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


def distance_oracle(p: np.ndarray, q: np.ndarray, alpha,
                    segments: int = 64, iterations: int = 500,
                    seed=0) -> float | np.ndarray:
    """Length of a descent-optimized discrete path from p to q.

    p and q are matrices, or (S, r, r) stacks of S samples that share
    segments and iterations; alpha and seed are scalars or one per
    sample.  A stack returns S lengths, each bit for bit the length of
    its sample run alone.

    Coarse-to-fine: the path is first optimized at a low segment count
    (low-frequency shape converges cheaply there), then midpoint-refined
    up to the requested resolution.  ``iterations`` caps the descent
    steps of a sample over all levels: each level gets an equal share,
    the finest the remainder too, and a sample leaves a level early once
    its energy stalls (see ``_descend``).  Deterministic for fixed
    (inputs, seed); the seed only perturbs the initial interior nodes by
    ~1e-8 to break symmetry.
    """
    p = linalg.hermitian(p)
    q = linalg.hermitian(q)
    r = linalg.same_rank(p, q)
    if p.shape != q.shape or p.ndim > 3:
        raise DimensionError(f"need two matrices or two (S, r, r) stacks, "
                             f"got shapes {p.shape} and {q.shape}")
    single = p.ndim == 2
    p, q = p.reshape(-1, r, r), q.reshape(-1, r, r)
    for name, ends in (("p", p), ("q", q)):
        try:  # one Cholesky of the stack; a failure is named per sample
            np.linalg.cholesky(ends)
        except np.linalg.LinAlgError:
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
