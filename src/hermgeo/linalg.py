"""Dense complex Hermitian linear algebra kernel.

Everything downstream (fiber geodesics, section distances, curvature)
reduces to the handful of primitives defined here.  All matrix functions
go through the Hermitian eigendecomposition: the matrices are normal, so
there is no need for Pade approximants or scaling-and-squaring.
Each takes a matrix or an (..., r, r) stack; underscored helpers, bar
``_checked``, skip validation: ``hermitian`` scans for non-finite
entries, ``_eigh`` does not.  ``_eigh`` and ``_eigvalsh`` are the
package's eigensolvers; on rank 1 they return LAPACK's answer without
calling it.  ``_factor``'s eigendecomposition decides that p is positive
definite; its eigenpair is a base point's one factorization.  ``_whiten``,
the one congruence h^{-1/2} (.) h^{-1/2}, scales in that eigenbasis and
refuses a product that overflows; a relative spectrum is the spectrum of
a whitened matrix.  Only a geodesic's frame builds both dense roots, by
``_roots_from``; each matrix root recomposes its own alone.  ``_positive``
is the one check that a spectrum, a matrix's own or a relative one, is
positive.
"""

from __future__ import annotations

import itertools
import reprlib

import numpy as np

from .errors import (
    DimensionError,
    EigenConvergenceError,
    IllConditionedError,
    NonFiniteError,
    NotHermitianError,
    NotPositiveDefiniteError,
    OverflowGuardError,
    WireFormatError,
    check_floats,
    reject,
)

RANK_LIMIT = 64
ASYMMETRY_TOL = 1e-9
EXP_OVERFLOW_GUARD = 700.0
COND_GUARD = 1e14
OVERFLOW_DETAIL = "whitened matrix overflows float64"


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger)/2 of each matrix of a stack, summed by halves: that
    cannot overflow, and halving is exact, so it is the same bar subnormals."""
    h = a * 0.5
    h += np.conj(h.swapaxes(-1, -2))
    return h


def _norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, summed as np.linalg.norm
    sums one matrix: the dots of its flat real and imaginary parts."""
    x = a.reshape(*a.shape[:-2], 1, -1)
    re, im = x.real, x.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _finite(a: np.ndarray, detail: str = "matrix has a non-finite entry") -> np.ndarray:
    """Reject NaN/inf input or overflowed products (eigh returns garbage)."""
    reject(~np.isfinite(a).all(axis=(-2, -1)), NonFiniteError, lambda k: detail)
    return a


def hermitian(a, name: str = "a") -> np.ndarray:
    """Validate and symmetrize a square complex matrix or stack of them.

    Each matrix is replaced by (A + A^dagger)/2, which absorbs roundoff;
    inputs whose asymmetry exceeds ``ASYMMETRY_TOL`` (relative to the
    entry scale, so large well-conditioned products are not rejected for
    roundoff) are flagged as genuine errors rather than noise.  Entries
    that are not numbers raise ParameterError naming the argument ``name``.
    """
    a = check_floats(a, name, complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    r = a.shape[-1]
    if r < 1 or r > RANK_LIMIT:
        raise DimensionError(f"rank {r} outside supported range 1..{RANK_LIMIT}")
    scale = np.maximum(1.0, np.abs(_finite(a)).max(axis=(-2, -1)))
    reject(np.isinf(scale), NonFiniteError,
           lambda k: "matrix has an entry whose modulus overflows")
    h = hermitian_part(a)
    skew = np.abs(a - h).max(axis=(-2, -1))
    reject(skew > ASYMMETRY_TOL * scale, NotHermitianError,
           lambda k: f"asymmetry {skew[k]:.3e} exceeds "
                     f"{ASYMMETRY_TOL:.0e} * scale {scale[k]:.3e}")
    return h


def _checked(**mats) -> tuple[list, int, tuple]:
    """The check of every matrix entry point: ``hermitian`` of each named
    matrix or stack, their common rank, the broadcast of their batch shapes."""
    mats = [hermitian(m, name) for name, m in mats.items()]
    r = mats[0].shape[-1]
    for m in mats[1:]:
        if m.shape[-1] != r:
            raise DimensionError(f"rank mismatch: {r} vs {m.shape[-1]}")
    return mats, r, _broadcast(*(m.shape[:-2] for m in mats))


def _broadcast(*shapes: tuple, what: str = "batch shapes") -> tuple:
    """The broadcast of the given batch shapes; DimensionError if none."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise DimensionError(
            f"{what} {', '.join(map(str, shapes))} do not broadcast") from None


def _rank1(a: np.ndarray) -> bool:
    """Whether a is a float64 or complex128 stack of 1 x 1 matrices, whose
    eigenpair LAPACK gives as (the real entry, 1) for any entry."""
    return a.shape[-1] == 1 and a.dtype in (np.float64, np.complex128)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(a); on rank 1 its answer without the LAPACK call."""
    if _rank1(a):
        return a[..., 0].real.copy(), np.ones_like(a)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise _unconverged(a, exc) from exc


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a); on rank 1 its answer without the LAPACK call."""
    if _rank1(a):
        return a[..., 0].real.copy()
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise _unconverged(a, exc) from exc


def _unconverged(a: np.ndarray, exc: Exception) -> EigenConvergenceError:
    return EigenConvergenceError(
        f"eigensolver failed on matrix with Frobenius norm {np.linalg.norm(a):.3e}: {exc}")


def _positive(w: np.ndarray, q: np.ndarray | None = None) -> None:
    """Reject a stack whose ascending eigenvalues ``w`` reach zero.  Given
    ``q``, whose relative spectrum ``w`` is, the first such point is beyond
    float64 resolution (IllConditionedError) if q's own eigh, the one that
    ``_factor`` takes, finds q positive definite."""
    bad = w[..., 0] <= 0
    if q is not None and bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        if _eigh(np.broadcast_to(q, bad.shape + q.shape[-2:])[first])[0][0] > 0:
            reject(bad, IllConditionedError, lambda k: f"relative spectrum reaches "
                   f"{w[k][0]:.3e} <= 0 for a positive-definite pair: beyond float64 "
                   "resolution")
    reject(bad, NotPositiveDefiniteError,
           lambda k: f"smallest eigenvalue {w[k][0]:.3e} <= 0")


def _recompose(u: np.ndarray, fw: np.ndarray) -> np.ndarray:
    return hermitian_part((u * fw[..., None, :]) @ np.conj(u).swapaxes(-1, -2))


def _factor(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpair (w, u) of p, whose eigendecomposition decides that p
    is positive definite."""
    w, u = _eigh(p)
    _positive(w)
    return w, u


def _roots_from(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p^{1/2}, p^{-1/2}) from the eigenpair ``_factor`` gives of p."""
    s = np.sqrt(w)
    return _recompose(u, s), _recompose(u, 1.0 / s)


def _exp(w: np.ndarray, guard=True) -> np.ndarray:
    """e^w for a stack of spectra, each where ``guard`` holds (one value per
    spectrum, or one for all) within the exp overflow guard."""
    big = np.where(guard, np.abs(w).max(axis=-1), 0.0)
    reject(big > EXP_OVERFLOW_GUARD, OverflowGuardError,
           lambda k: f"eigenvalue magnitude {big[k]:.3e} exceeds exp guard "
                     f"{EXP_OVERFLOW_GUARD}")
    return np.exp(w)


def _log(w: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """log w for a stack of ascending spectra, positive and within COND_GUARD;
    ``q`` as for ``_positive``."""
    _positive(w, q)
    cond = w[..., -1] / w[..., 0]
    reject(cond > COND_GUARD, IllConditionedError,
           lambda k: f"condition number {cond[k]:.3e} exceeds guard {COND_GUARD:.0e}")
    return np.log(w)


def eig_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` ascending and unitary ``u``
    such that ``u @ diag(w) @ u^dagger`` reconstructs the input.
    """
    return _eigh(hermitian(a))


def sqrtm_posdef(p: np.ndarray) -> np.ndarray:
    """Principal square root of a positive-definite Hermitian matrix."""
    w, u = _factor(hermitian(p, "p"))
    return _recompose(u, np.sqrt(w))


def invsqrtm_posdef(p: np.ndarray) -> np.ndarray:
    """Inverse principal square root of a positive-definite matrix."""
    w, u = _factor(hermitian(p, "p"))
    return _recompose(u, 1.0 / np.sqrt(w))


def expm_hermitian(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix; result is positive definite."""
    return _expm_factored(hermitian(a))[0]


def _expm_factored(a: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(e^a, (e^w, u)) for a Hermitian stack a = u diag(w) u^dagger: the
    exponential and the eigenpair of it that a's one eigh gives."""
    w, u = _eigh(a)
    ew = _exp(w)
    return _recompose(u, ew), (ew, u)


def logm_posdef(p: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a positive-definite Hermitian matrix."""
    w, u = _eigh(hermitian(p, "p"))
    return _recompose(u, _log(w))


def relative_spectrum(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Eigenvalues of p^{-1} q, ascending and all positive.

    Computed in p's eigenbasis, p = V diag(w) V^dagger, as the spectrum of
    the Hermitian D^{-1/2} (V^dagger q V) D^{-1/2}, D = diag(w): a diagonal
    scaling keeps the small relative eigenvalues that a dense root p^{-1/2}
    would mix with the large ones.  p's eigendecomposition decides that p
    is positive definite, the spectrum that q is.
    """
    (p, q), _, _ = _checked(p=p, q=q)
    return _relative_spectrum(_factor(p), q)


def _whiten(eig: tuple, *vs: np.ndarray) -> list[np.ndarray]:
    """Each v whitened at h: D^{-1/2} (V^dagger v V) D^{-1/2} from h's
    eigenpair eig = (w, V), D = diag(w), that is V^dagger (h^{-1/2} v
    h^{-1/2}) V.  Each entry is scaled as d_i m_ij d_j, d = w^{-1/2}: d_i d_j
    alone would overflow for a subnormal w_i.  A product beyond float64 (a
    relative spectrum of 1e313, say) raises NonFiniteError for its matrix."""
    w, u = eig
    d = 1.0 / np.sqrt(w)
    uh = np.conj(u).swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        out = [hermitian_part(d[..., :, None] * (uh @ v @ u) * d[..., None, :])
               for v in vs]
    return [_finite(m, OVERFLOW_DETAIL) for m in out]


def _relative_spectrum(eig: tuple, q: np.ndarray) -> np.ndarray:
    """``relative_spectrum`` from eig = (w, V), the eigenpair that decided
    p: the spectrum of q whitened at p."""
    lam = _eigvalsh(_whiten(eig, q)[0])
    _positive(lam, q)
    return lam


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize a complex matrix as {"re": [[..]], "im": [[..]]}."""
    a = check_floats(a, "a", complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def json_numbers(value, what: str) -> np.ndarray:
    """A JSON number or (nested) array of numbers as a float array.

    Strings, bools, nulls, objects, integers beyond 64 bits and ragged
    arrays raise WireFormatError: the entries are read as written, never
    coerced."""
    try:
        a = np.asarray(value)
    except ValueError as exc:
        raise WireFormatError(f"{what} is not an array of numbers: {exc}") from exc
    # numpy reads a bool among numbers as 0 or 1: look at each entry's type
    entries = [value]
    for _ in range(a.ndim):
        entries = itertools.chain.from_iterable(entries)
    if a.dtype.kind not in "iuf" or bool in map(type, entries):
        raise WireFormatError(
            f"{what} {reprlib.repr(value)} is not a number or an array of numbers")
    return a.astype(float, copy=False)


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the {"re", "im"} wire format back to one complex matrix."""
    try:
        re, im = obj["re"], obj["im"]
    except (LookupError, TypeError) as exc:
        raise WireFormatError(f"matrix is not a {{re, im}} pair of arrays: {exc!r}") from exc
    re, im = json_numbers(re, "re"), json_numbers(im, "im")
    if re.shape != im.shape:
        raise DimensionError(f"re/im shape mismatch: {re.shape} vs {im.shape}")
    if re.ndim != 2:
        raise WireFormatError(f"matrix has shape {re.shape}: expected one r x r matrix")
    return re + 1j * im
