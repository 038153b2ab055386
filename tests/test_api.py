"""The public surface: exported names resolve, and library input checks
raise typed errors.

No linter runs on this package, so a stale ``__all__`` entry or a name
left behind by a deletion is caught here."""

import importlib
import pkgutil

import numpy as np
import pytest

import hermgeo
from hermgeo import completion, disk, fiber, oracle
from hermgeo.errors import HermGeoError, NonFiniteError, ParameterError
from hermgeo.sections import QuadratureMesh

# the weight-zero nullset model; a singular metric is a MetricSection on
# a mesh that leaves out its singular set
REMOVED = ("SingularSection", "singular_from_metric", "kept_spectrum",
           "MeasureInconsistencyError")


def test_exports_resolve_and_removed_names_stay_gone():
    for module in (hermgeo, disk, fiber):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    modules = [hermgeo] + [importlib.import_module(f"hermgeo.{info.name}")
                           for info in pkgutil.iter_modules(hermgeo.__path__)]
    for module in modules:
        stale = [name for name in REMOVED if hasattr(module, name)]
        assert not stale, (module.__name__, stale)


EYE = np.eye(2, dtype=complex)
VARYING_ALPHA = QuadratureMesh(rank=1, ids=[0, 1], weights=[1.0, 1.0], alphas=[0.0, 0.5])

# each entry: the error type, then a call with one inadmissible argument
BAD_INPUTS = {
    "GridFunction non-finite":
        (NonFiniteError, disk.GridFunction, disk.DiskMesh(1, 2), [[0.0, np.nan]]),
    "constant_alpha varies": (ParameterError, VARYING_ALPHA.constant_alpha),
    "refinement_trend one level": (ParameterError, completion.refinement_trend, [1.0], [1]),
    "refinement_trend zero norm":
        (ParameterError, completion.refinement_trend, [1.0, 0.0], [1, 2]),
    "geodesic_residual step":
        (ParameterError, fiber.geodesic_residual, fiber.FiberGeodesic(EYE, EYE), 0.5, 0.0),
    "exp_differential fd_step":
        (ParameterError, fiber.exp_differential_min_singular, EYE, EYE, -1e-5),
    "oracle segments": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 4),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_input_checks_raise_typed_errors(case):
    cls, fn, *args = BAD_INPUTS[case]
    with pytest.raises(cls) as info:
        fn(*args)
    assert isinstance(info.value, HermGeoError)
