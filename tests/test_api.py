"""The public surface: exported names resolve, and library input checks
raise typed errors.

No linter runs on this package, so a stale ``__all__`` entry, a name
left behind by a deletion or an import whose last user was deleted is
caught here."""

import ast
import functools
import importlib
import io
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hermgeo
from hermgeo import completion, disk, fiber, linalg, oracle, sections, suites
from hermgeo.errors import (
    DimensionError,
    HermGeoError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParameterError,
)

# the weight-zero nullset model; a singular metric is a MetricSection on
# a mesh that leaves out its singular set.  Then the matrix functions of
# the log-then-exp geodesic route, which the spectral frame replaced.
# Then an alias of l2_inner, the per-segment distance that
# section_distance(..., segment=) replaced, and the eigvalsh positivity
# check whose decision the roots of a metric section now make
REMOVED = ("SingularSection", "singular_from_metric", "kept_spectrum",
           "MeasureInconsistencyError", "_expm", "_logm", "flat_inner",
           "_segment_distances", "posdef")


def test_exports_resolve_and_removed_names_stay_gone():
    for module in (hermgeo, disk, fiber):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    modules = [hermgeo] + [importlib.import_module(f"hermgeo.{info.name}")
                           for info in pkgutil.iter_modules(hermgeo.__path__)]
    for module in modules:
        stale = [name for name in REMOVED if hasattr(module, name)]
        assert not stale, (module.__name__, stale)
    # linalg._log is the spectrum-level guard; fiber's log map kernel is gone
    assert not hasattr(fiber, "_log")


EYE = np.eye(2, dtype=complex)
EYE2, EYE3 = (np.broadcast_to(EYE, (n, 2, 2)) for n in (2, 3))
MESH = sections.QuadratureMesh(rank=2, ids=[0, 1], weights=[1.0, 1.0], alphas=[0.0, 0.0])
H = sections.MetricSection(MESH, EYE2)

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
    "refinement_trend one distinct level":
        (ParameterError, completion.refinement_trend, [1.0, 2.0], [1, 1]),
    "alpha_inner stacks": (DimensionError, fiber.alpha_inner, EYE3, EYE2, EYE2, 0.0),
    "alpha_inner alpha length":
        (DimensionError, fiber.alpha_inner, EYE3, EYE3, EYE3, [0.0, 0.5]),
    "log_map stacks": (DimensionError, fiber.log_map, EYE3, EYE2),
    "fiber_distance stacks": (DimensionError, fiber.fiber_distance, EYE3, EYE2, 0.0),
    "geodesic_residual step":
        (ParameterError, fiber.geodesic_residual, fiber.FiberGeodesic(EYE, EYE), 0.5, 0.0),
    "geodesic_residual nan step":
        (ParameterError, fiber.geodesic_residual, fiber.FiberGeodesic(EYE, EYE), 0.5, np.nan),
    "geodesic_residual inf step":
        (ParameterError, fiber.geodesic_residual, fiber.FiberGeodesic(EYE, EYE), 0.5, np.inf),
    "oracle segments": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 4),
    "oracle seed negative": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 8, 10, -1),
    "oracle seed fractional":
        (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 8, 10, 1.5),
    "oracle seed bool": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 8, 10, True),
    "oracle seed in a list":
        (ParameterError, oracle.distance_oracle, EYE2, 2 * EYE2, 0.0, 8, 10, [2**63, 1.5]),
    "oracle iterations": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 16, 1),
    "oracle segments float":
        (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 12.0, 20),
    "oracle iterations float":
        (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, 0.0, 8, 20.0),
    "oracle indefinite p in a stack":
        (NotPositiveDefiniteError, oracle.distance_oracle,
         np.stack([EYE, np.diag([1.0, -1.0]), EYE]), 2 * EYE3, 0.0),
    "cat0 samples float": (ParameterError, suites.run_cat0, 1, 2.5),
    "appendix samples float": (ParameterError, suites.run_appendix, 1, 2.0),
    "invariants samples bool": (ParameterError, suites.run_invariants, 1, True),
    "geodesic csv steps float":
        (ParameterError, sections.write_geodesic_csv, H, H, 2.5, io.StringIO()),
    "geodesic csv steps": (ParameterError, sections.write_geodesic_csv, H, H, 1, io.StringIO()),
    "log_truncation levels float":
        (ParameterError, disk.log_truncation_experiment, disk.DiskMesh(4, 8), 0.0, 2.5),
    "log_truncation levels": (ParameterError, disk.log_truncation_experiment,
                              disk.DiskMesh(4, 8), 0.0, 0),
    "DiskMesh n_r float": (ParameterError, disk.DiskMesh, 100.0, 8),
    "DiskMesh n_theta bool": (ParameterError, disk.DiskMesh, 8, True),
    "DiskMesh n_theta zero": (ParameterError, disk.DiskMesh, 8, 0),
    "QuadratureMesh rank float":
        (ParameterError, sections.QuadratureMesh, 2.0, [0], [1.0], [0.0]),
    "QuadratureMesh rank zero": (ParameterError, sections.QuadratureMesh, 0, [0], [1.0], [0.0]),
    "QuadratureMesh rank past the limit":
        (ParameterError, sections.QuadratureMesh, 65, [0], [1.0], [0.0]),
    "section_geodesic nan t": (ParameterError, sections.section_geodesic, H, H, np.nan),
    "section_geodesic inf t": (ParameterError, sections.section_geodesic, H, H, np.inf),
    "section_geodesic nan t at a point":
        (ParameterError, sections.section_geodesic, H, H, [0.5, np.nan]),
    "section_geodesic t per point shape":
        (DimensionError, sections.section_geodesic, H, H, [0.5, 0.5, 0.5]),
    "section_distance segment length":
        (DimensionError, functools.partial(sections.section_distance, segment=[0]), H, H),
    "section_distance segment negative":
        (ParameterError, functools.partial(sections.section_distance, segment=[0, -1]), H, H),
    "section_distance segment past the points":
        (ParameterError, functools.partial(sections.section_distance, segment=[0, 2]), H, H),
    "section_distance segment float":
        (ParameterError, functools.partial(sections.section_distance, segment=[0.0, 1.0]),
         H, H),
    "geodesic_eval nan t":
        (ParameterError, fiber.geodesic_eval, fiber.FiberGeodesic(EYE, EYE), np.nan),
    "geodesic_eval inf t":
        (ParameterError, fiber.geodesic_eval, fiber.FiberGeodesic(EYE, EYE), -np.inf),
    "psh_check nan radius": (ParameterError, disk.psh_check,
                             disk.GridFunction(disk.DiskMesh(8, 8), np.zeros((8, 8))),
                             [np.nan]),
    "psh_check no radius": (ParameterError, disk.psh_check,
                            disk.GridFunction(disk.DiskMesh(8, 8), np.zeros((8, 8))), []),
    "psh_check scalar radius": (ParameterError, disk.psh_check,
                                disk.GridFunction(disk.DiskMesh(8, 8), np.zeros((8, 8))), 0.05),
    "psh_check string radius": (ParameterError, disk.psh_check,
                                disk.GridFunction(disk.DiskMesh(8, 8), np.zeros((8, 8))), ["a"]),
    "refinement_trend string norms":
        (ParameterError, completion.refinement_trend, ["a", "b"], [1, 2]),
    "section_geodesic string t": (ParameterError, sections.section_geodesic, H, H, "x"),
    "hermitian string entry": (ParameterError, linalg.hermitian, [["a"]]),
    "hermitian ragged": (ParameterError, linalg.hermitian, [[1, 2], [3]]),
    "matrix_to_json string entry": (ParameterError, linalg.matrix_to_json, [["a"]]),
    "relative_spectrum string q": (ParameterError, linalg.relative_spectrum, EYE, "x"),
    "fiber_distance string alpha": (ParameterError, fiber.fiber_distance, EYE, 2 * EYE, "x"),
    "alpha_inner string alpha": (ParameterError, fiber.alpha_inner, EYE, EYE, EYE, "x"),
    "sectional_curvature string u":
        (ParameterError, fiber.sectional_curvature, EYE, "x", EYE, 0.0),
    "log_map string q": (ParameterError, fiber.log_map, EYE, "x"),
    "FiberGeodesic string velocity": (ParameterError, fiber.FiberGeodesic, EYE, "x"),
    "geodesic_residual string step":
        (ParameterError, fiber.geodesic_residual, fiber.FiberGeodesic(EYE, EYE), 0.5, "x"),
    "oracle string alpha": (ParameterError, oracle.distance_oracle, EYE, 2 * EYE, "x"),
    "QuadratureMesh string weight":
        (ParameterError, sections.QuadratureMesh, 2, [0], ["a"], [0.0]),
    "QuadratureMesh string alpha":
        (ParameterError, sections.QuadratureMesh, 2, [0], [1.0], ["a"]),
    "MetricSection string entry": (ParameterError, sections.MetricSection, MESH, [[["a"]]] * 2),
    "GaugeTransform string entry": (ParameterError, sections.GaugeTransform, MESH, [[["a"]]]),
    "ScalarField string values": (ParameterError, sections.ScalarField, MESH, ["a", "b"]),
    "DiskMesh quadrature string alpha": (ParameterError, disk.DiskMesh(2, 2).quadrature, 1, "x"),
    "raufi_integrability string alpha":
        (ParameterError, disk.raufi_integrability, disk.DiskMesh(2, 2), "x"),
    "raufi_matrix string z": (ParameterError, disk.raufi_matrix, ["a"]),
    "GridFunction string values": (ParameterError, disk.GridFunction, disk.DiskMesh(1, 2),
                                   [["a", "b"]]),
    # a numeric string is a string: no argument parses text
    "fiber_distance numeric string alpha":
        (ParameterError, fiber.fiber_distance, EYE, 2 * EYE, "0.5"),
    "hermitian numeric string entry": (ParameterError, linalg.hermitian, [["1"]]),
    "hermitian numeric string in an object array":
        (ParameterError, linalg.hermitian, np.array([["1"]], dtype=object)),
    "QuadratureMesh numeric string weight":
        (ParameterError, sections.QuadratureMesh, 2, [0], ["1.0"], [0.0]),
    "raufi_matrix numeric string z": (ParameterError, disk.raufi_matrix, "0.5"),
    "psh_check numeric string radius": (ParameterError, disk.psh_check,
                                        disk.GridFunction(disk.DiskMesh(8, 8), np.zeros((8, 8))),
                                        ["0.05"]),
    # a complex value where reals are needed keeps its imaginary part out
    # of the result by raising, not by a ComplexWarning
    "ScalarField complex values":
        (ParameterError, sections.ScalarField, MESH, np.array([1j, 0.0])),
    "GridFunction complex values":
        (ParameterError, disk.GridFunction, disk.DiskMesh(1, 2), [[1.0, 1.0 + 0.5j]]),
    "fiber_distance complex alpha": (ParameterError, fiber.fiber_distance, EYE, 2 * EYE, 0.5j),
    "QuadratureMesh complex alpha in an object array":
        (ParameterError, sections.QuadratureMesh, 2, [0], [1.0], np.array([1j], dtype=object)),
}

# the argument that a case's error names, as name=value
NAMED_ARGUMENTS = {
    "oracle segments": "segments", "oracle segments float": "segments",
    "oracle iterations": "iterations", "oracle iterations float": "iterations",
    "cat0 samples float": "samples", "appendix samples float": "samples",
    "invariants samples bool": "samples", "geodesic csv steps float": "steps",
    "geodesic csv steps": "steps", "log_truncation levels float": "levels",
    "log_truncation levels": "levels", "DiskMesh n_r float": "n_r",
    "DiskMesh n_theta bool": "n_theta", "DiskMesh n_theta zero": "n_theta",
    "QuadratureMesh rank float": "rank", "QuadratureMesh rank zero": "rank",
    "QuadratureMesh rank past the limit": "rank", "section_distance segment negative": "segment",
    "section_distance segment past the points": "segment",
    "geodesic_residual nan step": "step", "geodesic_residual inf step": "step",
    "section_geodesic nan t": "t", "section_geodesic inf t": "t",
    "section_geodesic nan t at a point": "t", "geodesic_eval nan t": "t",
    "geodesic_eval inf t": "t", "psh_check string radius": "radii",
    "refinement_trend string norms": "norms", "section_geodesic string t": "t",
    "hermitian string entry": "a", "hermitian ragged": "a", "matrix_to_json string entry": "a",
    "relative_spectrum string q": "q", "fiber_distance string alpha": "alpha",
    "alpha_inner string alpha": "alpha", "sectional_curvature string u": "u",
    "log_map string q": "q", "FiberGeodesic string velocity": "velocity",
    "geodesic_residual string step": "step", "oracle string alpha": "alpha",
    "QuadratureMesh string weight": "weights", "QuadratureMesh string alpha": "alphas",
    "MetricSection string entry": "values", "GaugeTransform string entry": "values",
    "ScalarField string values": "values", "DiskMesh quadrature string alpha": "alpha",
    "raufi_integrability string alpha": "alpha", "raufi_matrix string z": "z",
    "GridFunction string values": "values",
    "fiber_distance numeric string alpha": "alpha", "hermitian numeric string entry": "a",
    "hermitian numeric string in an object array": "a",
    "QuadratureMesh numeric string weight": "weights", "raufi_matrix numeric string z": "z",
    "psh_check numeric string radius": "radii", "ScalarField complex values": "values",
    "GridFunction complex values": "values", "fiber_distance complex alpha": "alpha",
    "QuadratureMesh complex alpha in an object array": "alphas",
}


# the sample of a stack that a case's error names
NAMED_SAMPLES = {"oracle indefinite p in a stack": "at index 1: p "}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_input_checks_raise_typed_errors(case):
    cls, fn, *args = BAD_INPUTS[case]
    with pytest.raises(cls) as info:
        fn(*args)
    assert isinstance(info.value, HermGeoError)
    if case in NAMED_ARGUMENTS:
        assert f"{NAMED_ARGUMENTS[case]}=" in str(info.value), info.value
    if case in NAMED_SAMPLES:
        assert str(info.value).startswith(NAMED_SAMPLES[case]), info.value


U2 = np.diag([1.0, -1.0]) / np.sqrt(2.0)
W2 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
V = sections.TangentSection(MESH, EYE2)
F = sections.ScalarField(MESH, [0.0, 0.0])
G = fiber.FiberGeodesic(EYE, EYE)
DISK = disk.DiskMesh(2, 4)
SEGMENT = {"segment": [0, 1]}

# each exported callable that takes numbers: its valid arguments (U2 and
# W2 are traceless, so orthonormal at the identity for every alpha), then
# the positions and keywords of the arguments that take numbers
NUMERIC_CALLS = {
    "FiberGeodesic": ((EYE, EYE), {}, (0, 1)),
    "alpha_inner": ((EYE, EYE, EYE, 0.0), {}, (0, 1, 2, 3)),
    "curvature_tensor": ((EYE, EYE, EYE, EYE), {}, (0, 1, 2, 3)),
    "fiber_distance": ((EYE, 2 * EYE, 0.0), {}, (0, 1, 2)),
    "geodesic_eval": ((G, 0.5), {}, (1,)),
    "log_map": ((EYE, 2 * EYE), {}, (0, 1)),
    "sectional_curvature": ((EYE, U2, W2, 0.0), {}, (0, 1, 2, 3)),
    "spray": ((EYE, EYE, EYE), {}, (0, 1, 2)),
    "eig_hermitian": ((EYE,), {}, (0,)),
    "expm_hermitian": ((EYE,), {}, (0,)),
    "hermitian": ((EYE,), {}, (0,)),
    "logm_posdef": ((EYE,), {}, (0,)),
    "relative_spectrum": ((EYE, 2 * EYE), {}, (0, 1)),
    "sqrtm_posdef": ((EYE,), {}, (0,)),
    "distance_oracle": ((EYE, 2 * EYE, 0.0, 8, 8, 0), {}, (0, 1, 2, 3, 4, 5)),
    "GaugeTransform": ((MESH, EYE2), {}, (1,)),
    "MetricSection": ((MESH, EYE2), {}, (1,)),
    "TangentSection": ((MESH, EYE2), {}, (1,)),
    "ScalarField": ((MESH, [0.0, 0.0]), {}, (1,)),
    "QuadratureMesh": ((2, [0, 1], [1.0, 1.0], [0.0, 0.0]), {}, (0, 1, 2, 3)),
    "section_geodesic": ((H, H, 0.5), {}, (2,)),
    "l2_inner": ((H, V, V), SEGMENT, ("segment",)),
    "section_distance": ((H, H), SEGMENT, ("segment",)),
    "theta_metric": ((H, H), SEGMENT, ("segment",)),
    "conformal_distance": ((H, F, F), SEGMENT, ("segment",)),
    "check_alpha": ((0.0, 2), {}, (0, 1)),
    "geodesic_residual": ((G, 0.5, 1e-3), {}, (1, 2)),
    "hermitian_basis": ((2,), {}, (0,)),
    "exp_differential_min_singular": ((EYE, EYE), {}, (0, 1)),
    "DiskMesh": ((2, 4), {}, (0, 1)),
    "GridFunction": ((disk.DiskMesh(1, 2), [[0.0, 1.0]]), {}, (1,)),
    "raufi_matrix": ((0.5,), {}, (0,)),
    "raufi_section": ((DISK, 0.0), {}, (1,)),
    "identity_reference": ((DISK, 2, 0.0), {}, (1, 2)),
    "raufi_integrability": ((DISK, 0.0), {}, (1,)),
    "log_truncation_experiment": ((DISK, 0.0, 2), {}, (1, 2)),
    "psh_check": ((disk.GridFunction(disk.DiskMesh(100, 16), np.zeros((100, 16))), [0.05]), {},
                  (1,)),
}
# exported callables whose arguments are all sections, meshes or geodesics;
# PshReport is a plain result record
NO_NUMERIC_ARGUMENTS = {"gauge_apply", "flat_distance", "conformal_scale", "line_bundle_norms",
                        "dual_section", "boundedness_bound", "PshReport"}
EXPORTED = {name: getattr(module, name) for module in (hermgeo, fiber, disk)
            for name in module.__all__ if callable(getattr(module, name))}


def test_numeric_calls_cover_the_exports_and_accept_their_arguments():
    assert set(NUMERIC_CALLS) | NO_NUMERIC_ARGUMENTS == set(EXPORTED)
    for name, (args, kwargs, _) in NUMERIC_CALLS.items():
        EXPORTED[name](*args, **kwargs)


NOT_NUMBERS = st.one_of(
    st.text(), st.none(), st.booleans(), st.builds(object),
    # numeric strings, which numpy would parse
    st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0)).map(str),
    # a ragged list: rows of two different lengths
    st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda n: n[0] != n[1]).map(
        lambda n: [[0.5] * n[0], [0.5] * n[1]]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(slot=st.sampled_from([(name, key) for name, (_, _, keys) in sorted(NUMERIC_CALLS.items())
                             for key in keys]), bad=NOT_NUMBERS)
def test_numeric_arguments_fail_typed_or_not_at_all(slot, bad):
    """One numeric argument replaced by a string, None, a bool, an object
    or a ragged list: the call returns or raises a HermGeoError, never a
    bare numpy or Python error.  A string, numeric or not, always raises."""
    name, key = slot
    args, kwargs, _ = NUMERIC_CALLS[name]
    args, kwargs = list(args), dict(kwargs)
    if isinstance(key, int):
        args[key] = bad
    else:
        kwargs[key] = bad
    try:
        EXPORTED[name](*args, **kwargs)
    except HermGeoError as exc:
        event(type(exc).__name__)  # shown by pytest --hypothesis-show-statistics
    else:
        assert not isinstance(bad, str), "a string was read as a number"


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


# the modules that may factor a matrix into its roots: linalg, and fiber,
# whose entry points take one base point per call.  A metric section
# factors its values once, in its construction, and every section op
# whitens with the roots it holds
ROOTS_CALLERS = {"linalg", "fiber"}
ROOTS_CALLERS_IN_SECTIONS = {"MetricSection._validate"}


def _callers(matches):
    """{module: the qualified name of each function of it that makes a call
    for which ``matches(call)`` holds}, over the package's modules."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and matches(child):
                yield scope or "<module>"
            yield from visit(child, name)
    return {path.stem: set(visit(ast.parse(path.read_text()), ""))
            for path in sorted(Path(hermgeo.__file__).parent.glob("*.py"))}


def test_only_linalg_fiber_and_section_construction_factor_roots():
    # linalg._roots, or _roots inside linalg
    calls = _callers(lambda call: ast.unparse(call.func) in ("linalg._roots", "_roots"))
    assert calls["sections"] == ROOTS_CALLERS_IN_SECTIONS
    others = {m: c for m, c in calls.items()
              if c and m not in ROOTS_CALLERS | {"sections"}}
    assert not others


def _float_coercion(call) -> bool:
    """An np.asarray or np.array call with a float or complex dtype, given
    by keyword or as the second positional argument."""
    if ast.unparse(call.func) not in ("np.asarray", "np.array"):
        return False
    dtypes = [kw.value for kw in call.keywords if kw.arg == "dtype"] + call.args[1:2]
    return any(word in ast.unparse(d) for d in dtypes for word in ("float", "complex", "double"))


def test_only_check_floats_coerces_to_floats():
    """errors.check_floats is the one float or complex coercion: every
    other site calls it, so a failed conversion names its argument."""
    calls = {m: c for m, c in _callers(_float_coercion).items() if c}
    assert calls == {}, calls
