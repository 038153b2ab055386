"""Exception types shared across the package, and the checks that raise them."""

import reprlib

import numpy as np


class HermGeoError(Exception):
    """Base class for all package errors.  ``index``: flat position of the
    bad matrix of a stack; ``detail``: the message without it."""

    def __init__(self, detail: str = "", index: int | None = None):
        super().__init__(detail if index is None else f"at index {index}: {detail}")
        self.detail, self.index = detail, index


class DimensionError(HermGeoError, ValueError):
    """Operands have incompatible shapes or ranks."""


class NonFiniteError(HermGeoError, ValueError):
    """A matrix holds a NaN or infinite entry, given or from an overflow."""


class NotHermitianError(HermGeoError, ValueError):
    """Input matrix is too far from its conjugate transpose."""


class NotPositiveDefiniteError(HermGeoError, ValueError):
    """Matrix has a nonpositive eigenvalue."""


class IllConditionedError(HermGeoError, ValueError):
    """Condition number exceeds the safety guard."""


class OverflowGuardError(HermGeoError, ValueError):
    """Eigenvalue magnitude exceeds the exp overflow guard."""


class ParameterError(HermGeoError, ValueError):
    """A count, mesh weight, point id or metric parameter is not admissible."""


class WireFormatError(HermGeoError, ValueError):
    """A JSON input file does not follow the section or matrix wire format."""


class EigenConvergenceError(HermGeoError, RuntimeError):
    """The iterative eigensolver failed to converge."""


class DegeneratePlaneError(HermGeoError, ValueError):
    """Two tangent vectors are linearly dependent; no 2-plane is spanned."""


class MeshMismatchError(HermGeoError, ValueError):
    """Sections built over different quadrature meshes were mixed."""


class OracleFailureError(HermGeoError, RuntimeError):
    """The discrete path optimizer could not stay inside the cone."""


def reject(bad, cls: type[HermGeoError], detail) -> None:
    """Raise ``cls(detail(k))`` for the first True entry ``k`` of the mask
    ``bad``; a stacked mask also sets the error's ``index``."""
    if np.asarray(bad).any():
        flat = int(np.argmax(bad))
        raise cls(detail(np.unravel_index(flat, np.shape(bad))),
                  index=flat if np.ndim(bad) else None)


def check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int; a bool, a non-integer or a value below
    ``minimum`` raises ParameterError naming the argument ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ParameterError(f"{name}={value!r}: need an integer of at least {minimum}")
    return int(value)


def check_floats(value, name: str, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``, float or complex: the package's
    one float coercion.  A bool converts to 0 or 1; a value numpy
    cannot convert (a string, a ragged list, an object) raises
    ParameterError naming the argument ``name``."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name}={reprlib.repr(value)}: need numbers ({exc})") from None
