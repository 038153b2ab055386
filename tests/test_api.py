"""The public surface: exported names resolve, and library input checks
raise typed errors.

No linter runs on this package, so a stale ``__all__`` entry, a name
left behind by a deletion or an import whose last user was deleted is
caught here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import hermgeo
from hermgeo import completion, disk, fiber, oracle
from hermgeo.errors import DimensionError, HermGeoError, NonFiniteError, ParameterError

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
EYE2, EYE3 = (np.broadcast_to(EYE, (n, 2, 2)) for n in (2, 3))

# each entry: the error type, then a call with one inadmissible argument
BAD_INPUTS = {
    "GridFunction non-finite":
        (NonFiniteError, disk.GridFunction, disk.DiskMesh(1, 2), [[0.0, np.nan]]),
    "GridFunction integral overflow":
        (NonFiniteError, disk.GridFunction(disk.DiskMesh(1, 2), [[1e200, 1.0]]).integral_sq),
    "refinement_trend one level": (ParameterError, completion.refinement_trend, [1.0], [1]),
    "refinement_trend zero norm":
        (ParameterError, completion.refinement_trend, [1.0, 0.0], [1, 2]),
    "refinement_trend nan norm":
        (ParameterError, completion.refinement_trend, [1.0, np.nan], [1, 2]),
    "refinement_trend infinite level":
        (ParameterError, completion.refinement_trend, [1.0, 2.0], [1, np.inf]),
    "alpha_inner stacks": (DimensionError, fiber.alpha_inner, EYE3, EYE2, EYE2, 0.0),
    "alpha_inner alpha length":
        (DimensionError, fiber.alpha_inner, EYE3, EYE3, EYE3, [0.0, 0.5]),
    "log_map stacks": (DimensionError, fiber.log_map, EYE3, EYE2),
    "fiber_distance stacks": (DimensionError, fiber.fiber_distance, EYE3, EYE2, 0.0),
    "geodesic_residual step":
        (ParameterError, fiber.geodesic_residual, fiber.FiberGeodesic(EYE, EYE), 0.5, 0.0),
    "oracle segments": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 4),
    "oracle seed negative": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 8, 10, -1),
    "oracle seed fractional":
        (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 8, 10, 1.5),
    "oracle seed bool": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 8, 10, True),
    "oracle seed in a list":
        (ParameterError, oracle.distance_oracle, EYE2, 2 * EYE2, 0.0, 8, 10, [2**63, 1.5]),
    "oracle iterations": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 16, 1),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_input_checks_raise_typed_errors(case):
    cls, fn, *args = BAD_INPUTS[case]
    with pytest.raises(cls) as info:
        fn(*args)
    assert isinstance(info.value, HermGeoError)


# imports kept for a reader outside the package: (module, name) -> why
UNUSED_IMPORTS_ALLOWED = {
    ("sections", "fiber_distance"):
        "bench/test_bench.py::test_tracer_restores_every_binding reads it",
}


def _imported_names(tree):
    """(name, line) of each name an import statement of the module binds;
    ``from __future__`` imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(Path(hermgeo.__file__).parent.glob("*.py")):
        name = path.stem
        module = hermgeo if name == "__init__" else importlib.import_module(f"hermgeo.{name}")
        tree = ast.parse(path.read_text())
        # a name counts as used when code reads it or the module exports it
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(module, "__all__", ()))
        unused += [(name, imported, line) for imported, line in _imported_names(tree)
                   if imported not in used
                   and (name, imported) not in UNUSED_IMPORTS_ALLOWED]
    assert not unused
