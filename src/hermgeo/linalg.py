"""Dense complex Hermitian linear algebra kernel.

Everything downstream (fiber geodesics, section distances, curvature)
reduces to the handful of primitives defined here.  All matrix functions
go through the Hermitian eigendecomposition: the matrices are normal, so
there is no need for Pade approximants or scaling-and-squaring.
Each takes a matrix or an (..., r, r) stack; underscored helpers skip
validation.  The eigh that gives roots or a spectrum decides positivity.
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
    reject,
)

RANK_LIMIT = 64
ASYMMETRY_TOL = 1e-9
EXP_OVERFLOW_GUARD = 700.0
COND_GUARD = 1e14


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger)/2 of each matrix of a stack."""
    return (a + np.conj(a).swapaxes(-1, -2)) / 2


def _norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, summed as np.linalg.norm
    sums one matrix: the dots of its flat real and imaginary parts."""
    x = a.reshape(*a.shape[:-2], 1, -1)
    re, im = x.real, x.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _finite(a: np.ndarray) -> np.ndarray:
    """Reject NaN/inf input or overflowed products (eigh returns garbage)."""
    reject(~np.isfinite(a).all(axis=(-2, -1)), NonFiniteError,
           lambda k: "matrix has a non-finite entry")
    return a


def hermitian(a) -> np.ndarray:
    """Validate and symmetrize a square complex matrix or stack of them.

    Each matrix is replaced by (A + A^dagger)/2, which absorbs roundoff;
    inputs whose asymmetry exceeds ``ASYMMETRY_TOL`` (relative to the
    entry scale, so large well-conditioned products are not rejected for
    roundoff) are flagged as genuine errors rather than noise.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    r = a.shape[-1]
    if r < 1 or r > RANK_LIMIT:
        raise DimensionError(f"rank {r} outside supported range 1..{RANK_LIMIT}")
    scale = np.maximum(1.0, np.abs(_finite(a)).max(axis=(-2, -1)))
    reject(np.isinf(scale), NonFiniteError,
           lambda k: "matrix has an entry whose modulus overflows")
    # the sum of two entries can overflow, the sum of their halves cannot;
    # halving is exact, so this equals (A + A^dagger)/2 bar subnormals
    half = a / 2
    h = half + np.conj(half).swapaxes(-1, -2)
    skew = np.abs(a - h).max(axis=(-2, -1))
    reject(skew > ASYMMETRY_TOL * scale, NotHermitianError,
           lambda k: f"asymmetry {skew[k]:.3e} exceeds "
                     f"{ASYMMETRY_TOL:.0e} * scale {scale[k]:.3e}")
    return h


def same_rank(*mats: np.ndarray) -> int:
    """Return the common rank of the given square matrices or stacks, whose
    batch shapes must broadcast, or raise."""
    r = mats[0].shape[-1]
    for m in mats[1:]:
        if m.shape[-1] != r:
            raise DimensionError(
                f"rank mismatch: {r} vs {m.shape[-1]}"
            )
    _broadcast(*(m.shape[:-2] for m in mats))
    return r


def _broadcast(*shapes: tuple, what: str = "batch shapes") -> tuple:
    """The broadcast of the given batch shapes; DimensionError if none."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise DimensionError(
            f"{what} {', '.join(map(str, shapes))} do not broadcast") from None


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(_finite(a))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigensolver failed on matrix with Frobenius norm "
            f"{np.linalg.norm(a):.3e}: {exc}"
        ) from exc


def _positive(w: np.ndarray) -> None:
    """Reject a stack whose ascending eigenvalues ``w`` reach zero."""
    reject(w[..., 0] <= 0, NotPositiveDefiniteError,
           lambda k: f"smallest eigenvalue {w[k][0]:.3e} <= 0")


def _recompose(u: np.ndarray, fw: np.ndarray) -> np.ndarray:
    return hermitian_part((u * fw[..., None, :]) @ np.conj(u).swapaxes(-1, -2))


def _roots(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p^{1/2}, p^{-1/2}) from one eigendecomposition, which also decides
    that p is positive definite."""
    w, u = _eigh(p)
    _positive(w)
    s = np.sqrt(w)
    return _recompose(u, s), _recompose(u, 1.0 / s)


def _exp(w: np.ndarray) -> np.ndarray:
    """e^w for a stack of spectra, each within the exp overflow guard."""
    big = np.abs(w).max(axis=-1)
    reject(big > EXP_OVERFLOW_GUARD, OverflowGuardError,
           lambda k: f"eigenvalue magnitude {big[k]:.3e} exceeds exp guard "
                     f"{EXP_OVERFLOW_GUARD}")
    return np.exp(w)


def _log(w: np.ndarray) -> np.ndarray:
    """log w for a stack of ascending spectra, positive and within COND_GUARD."""
    _positive(w)
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
    return _roots(hermitian(p))[0]


def invsqrtm_posdef(p: np.ndarray) -> np.ndarray:
    """Inverse principal square root of a positive-definite matrix."""
    return _roots(hermitian(p))[1]


def expm_hermitian(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix; result is positive definite."""
    w, u = _eigh(hermitian(a))
    return _recompose(u, _exp(w))


def logm_posdef(p: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a positive-definite Hermitian matrix."""
    w, u = _eigh(hermitian(p))
    return _recompose(u, _log(w))


def relative_spectrum(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Eigenvalues of p^{-1} q, ascending and all positive.

    Computed through the symmetrized product p^{-1/2} q p^{-1/2}, which
    has the same spectrum and stays Hermitian under roundoff.  The roots
    decide that p is positive definite, the spectrum that q is.
    """
    p = hermitian(p)
    q = hermitian(q)
    same_rank(p, q)
    return _relative_spectrum(_roots(p)[1], q)


def _relative_spectrum(psi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``relative_spectrum`` from psi = p^{-1/2}, the root that decided p."""
    lam = np.linalg.eigvalsh(_finite(hermitian_part(psi @ q @ psi)))
    reject(lam[..., 0] <= 0, NotPositiveDefiniteError,
           lambda k: f"relative spectrum has nonpositive value {lam[k][0]:.3e}")
    return lam


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize a complex matrix as {"re": [[..]], "im": [[..]]}."""
    a = np.asarray(a, dtype=np.complex128)
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
    """Parse the {"re", "im"} wire format back to a complex matrix."""
    try:
        re, im = obj["re"], obj["im"]
    except (LookupError, TypeError) as exc:
        raise WireFormatError(f"matrix is not a {{re, im}} pair of arrays: {exc!r}") from exc
    re, im = json_numbers(re, "re"), json_numbers(im, "im")
    if re.shape != im.shape:
        raise DimensionError(f"re/im shape mismatch: {re.shape} vs {im.shape}")
    return re + 1j * im
