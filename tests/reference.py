"""The cross-checks' references, each formula once and none from hermgeo:
the plain-numpy dense-roots route, and a 40-digit kernel that takes the
stored float64 matrices as exact, the Cholesky-whitened spectral calculus
(Higham, *Functions of Matrices*, 2008).  For p = L L^dagger and
L^{-1} q L^{-dagger} = U diag(mu) U^dagger, mu is the spectrum of p^{-1} q
and L U f(mu) U^dagger L^dagger = p^{1/2} f(p^{-1/2} q p^{-1/2}) p^{1/2}:
the log map for f = log, the geodesic point for f = x^t, exp_p(q) for exp.
"""

import functools

import mpmath
import numpy as np

DIGITS = 40
log, exp = mpmath.log, mpmath.exp


def dagger(a):
    return np.conj(a).swapaxes(-1, -2)


def hermitian_part(a):
    return (a + dagger(a)) / 2


def from_spectrum(u, w):
    """The Hermitian part of u diag(w) u^dagger, for stacks alike."""
    return hermitian_part((u * w[..., None, :]) @ dagger(u))


def roots(h):
    """(h^{1/2}, h^{-1/2}), recomposed from h's eigh."""
    w, u = np.linalg.eigh(h)
    return from_spectrum(u, np.sqrt(w)), from_spectrum(u, 1.0 / np.sqrt(w))


def roots_frame(h, m):
    """The roots route's frame (h^{1/2}, U, mu): h^{-1/2} m h^{-1/2} = U diag(mu) U^dagger."""
    hs, hsi = roots(h)
    mu, u = np.linalg.eigh(hermitian_part(hsi @ m @ hsi))
    return hs, u, mu


def wide_pairs(rank, spread, n, seed):
    """n pairs (p, q) drawn one matrix after the other, Haar eigenvectors, log-eigenvalues
    uniform in +-spread: some relative spectra span more than float64 resolves."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2 * n):
        g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        u = np.linalg.qr(g)[0]
        mats.append((u * np.exp(rng.uniform(-spread, spread, rank))) @ np.conj(u).T)
    return np.array(mats[0::2]), np.array(mats[1::2])


def mp_whiten(p, *ms):
    """p's Cholesky factor L and the Hermitian part of each L^{-1} m L^{-dagger}."""
    with mpmath.workdps(DIGITS):
        l = mpmath.cholesky(mpmath.matrix(p))
        li = mpmath.zeros(l.rows)  # L^{-1}, by forward substitution
        for i in range(l.rows):
            li[i, i] = 1 / l[i, i]
            for j in range(i):
                li[i, j] = -mpmath.fdot((l[i, k], li[k, j]) for k in range(j, i)) / l[i, i]
        ws = [li * mpmath.matrix(m) * li.transpose_conj() for m in ms]
        return l, [(w + w.transpose_conj()) / 2 for w in ws]


def mp_eigh(m):
    """The eigenpair (mu, U) of the Hermitian m, mu ascending."""
    with mpmath.workdps(DIGITS):
        return mpmath.eighe(mpmath.matrix(m))


def mp_apply(b, mu, u, f):
    """b U diag(f(mu)) U^dagger b^dagger as complex128, f one of log, exp
    and power(t): each upper entry rounded once, each lower its conjugate."""
    with mpmath.workdps(DIGITS):
        bu = (mpmath.matrix(b) * u).tolist()
        fmu = [f(x) for x in mu]
        g = np.empty((len(bu), len(bu)), complex)
        for i, row in enumerate(bu):
            left = [x * y for x, y in zip(row, fmu)]
            for j in range(i, len(bu)):
                g[i, j] = complex(mpmath.fdot(left, map(mpmath.conj, bu[j])))
                g[j, i] = np.conj(g[i, j])
        return g


def power(t):
    return lambda x: x ** mpmath.mpf(t)


def floats(mu):
    return np.array([float(x) for x in mu])


def mp_distance(mu):
    """sqrt(sum (log mu_i)^2), the distance at alpha = 0, of a spectrum."""
    with mpmath.workdps(DIGITS):
        logs = [mpmath.log(x) for x in mu]
        return float(mpmath.sqrt(mpmath.fdot(logs, logs)))


def mp_inner(h, v, w, alpha):
    """The alpha inner product and its scale (tr (h^{-1}v)^2 tr (h^{-1}w)^2)^{1/2},
    from x and y, v and w whitened at h: tr(h^{-1}v h^{-1}w) = tr(x y)."""
    _, (x, y) = mp_whiten(h, v, w)
    with mpmath.workdps(DIGITS):
        def tr(m):
            return mpmath.fsum(m[i, i] for i in range(m.rows)).real
        return float(tr(x * y) + alpha * tr(x) * tr(y)), float(mpmath.sqrt(tr(x * x) * tr(y * y)))


def mp_inverse(p):
    with mpmath.workdps(DIGITS):
        return np.array(mpmath.inverse(mpmath.matrix(p)).tolist(), dtype=complex)


@functools.cache
def wide_reference(rank, spread):
    """The Hermitian parts p, q of 60 ``wide_pairs`` at seed 113, the spectra of
    p^{-1} q as float64 and each pair's (L, mu, U) from mp_whiten and mp_eigh."""
    p, q = (hermitian_part(m) for m in wide_pairs(rank, spread, 60, 113))
    frames = [(l, *mp_eigh(m)) for l, (m,) in (mp_whiten(a, b) for a, b in zip(p, q))]
    return p, q, np.array([floats(mu) for _, mu, _ in frames]), frames
