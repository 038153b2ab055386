"""The section wire format and the geodesic CSV against the per-point,
per-entry code they replaced.

``write_geodesic_csv`` formats each step block with one %-template and
``section_from_json`` parses each field of all points with one
``np.asarray``.  The replaced code stays here as the reference: the CSV
bytes and the parsed stacks and mesh hashes must be equal to it, not
close.  A fuzz feeds the wire read arbitrary JSON and mutated sections:
the answer is a section or a HermGeoError, never another exception or a
non-finite value.
"""

import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hermgeo
from hermgeo import linalg, sampling, sections
from hermgeo.cli import main
from hermgeo.errors import HermGeoError, ParameterError, WireFormatError
from hermgeo.fiber import _log
from hermgeo.sections import (
    GaugeTransform,
    MetricSection,
    QuadratureMesh,
    TangentSection,
    write_geodesic_csv,
)


def reference_csv(h1, h2, steps, stream):
    """The per-entry csv.writer trace that write_geodesic_csv replaced."""
    mesh = sections._same_mesh(h1, h2)
    r = mesh.rank
    header = ["t", "point_id"]
    for i in range(r):
        for j in range(r):
            header += [f"re_{i}{j}", f"im_{i}{j}"]
    writer = csv.writer(stream)
    writer.writerow(header)
    roots = linalg._roots(h1.values)
    a = _log(roots, h2.values)
    for k in range(steps):
        t = k / (steps - 1)
        m = sections._geodesic(h1.values, a, t, roots)
        entries = np.stack([m.real, m.imag], axis=-1).reshape(mesh.n_points, -1)
        writer.writerows([f"{t:.12g}", pid, *(f"{x:.17g}" for x in row)]
                         for pid, row in zip(mesh.ids.tolist(), entries.tolist()))


def reference_section_from_json(obj):
    """The per-point parse that section_from_json replaced (valid input)."""
    pts = obj["points"]
    key = next(k for k in ("h", "v", "phi") if k in pts[0])
    ids = [p["id"] for p in pts]
    mesh = QuadratureMesh(rank=int(obj["rank"]), ids=ids,
                          weights=[p["weight"] for p in pts],
                          alphas=[p["alpha"] for p in pts])
    values = np.stack([np.asarray(p[key]["re"], dtype=float)
                       + 1j * np.asarray(p[key]["im"], dtype=float) for p in pts])
    cls = {"h": MetricSection, "v": TangentSection, "phi": GaugeTransform}[key]
    return cls(mesh, values[np.argsort(ids)])


def _csv_text(writer, h1, h2, steps):
    out = io.StringIO(newline="")
    writer(h1, h2, steps, out)
    return out.getvalue()


def _unsorted_mesh(rng, rank, n):
    # ids out of order, negative and past 2**53, as a file may hold them
    ids = rng.permutation(n) * 7 - 3
    ids[0] = 2**62 + 1
    return QuadratureMesh(rank=rank, ids=ids, weights=rng.uniform(0.1, 2.0, n),
                          alphas=rng.uniform(-1.0 / rank + 0.05, 1.0, n))


def _metric_pair(seed, rank, n):
    rng = sampling.make_rng(seed)
    mesh = _unsorted_mesh(rng, rank, n)
    return (sampling.random_metric_section(rng, mesh),
            sampling.random_metric_section(rng, mesh))


@pytest.mark.parametrize("steps", [2, 11])
@pytest.mark.parametrize("rank,n", [(1, 40), (2, 30), (8, 5)])
def test_csv_bytes_match_the_csv_writer_reference(rank, n, steps):
    h1, h2 = _metric_pair(rank * 100 + n, rank, n)
    assert _csv_text(write_geodesic_csv, h1, h2, steps) == \
        _csv_text(reference_csv, h1, h2, steps)


def test_csv_bytes_of_integral_diagonal_traces():
    # roots of integer squares are exact: the trace holds integral floats
    mesh = QuadratureMesh(rank=2, ids=[5, -2, 9], weights=[1.0, 2.0, 0.5],
                          alphas=[0.0, 0.1, 0.2])
    h1 = MetricSection(mesh, np.stack([np.diag([4.0, 9.0])] * 3))
    text = _csv_text(write_geodesic_csv, h1, h1, 3)
    assert text == _csv_text(reference_csv, h1, h1, 3)
    assert "-2,4,0,0,0,0,0,9,0\r\n" in text


AWKWARD = np.array([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 2.2250738585072014e-308, 2.0,
                    -3.0, 1e16, 1e22, 123456789012345678.0, 0.1, 1 / 3, -2 / 3,
                    1e300, -1.7976931348623157e308, 9007199254740993.0])


@pytest.mark.parametrize("rank", [1, 2, 8])
def test_csv_bytes_of_awkward_entries(monkeypatch, rank):
    # both writers format what sections._geodesic returns; return entries
    # whose %.17g text has signs, exponents or no decimal point
    n = len(AWKWARD)
    h1, h2 = _metric_pair(rank, rank, n)
    entries = np.empty((n, rank, rank), dtype=complex)
    entries.real.flat = np.resize(AWKWARD, entries.size)
    entries.imag.flat = np.resize(AWKWARD[::-1], entries.size)
    monkeypatch.setattr(sections, "_geodesic", lambda *args: entries)
    text = _csv_text(write_geodesic_csv, h1, h2, 2)
    assert text == _csv_text(reference_csv, h1, h2, 2)
    for token in (",-0,", "e-300", "e-324", ",2,", "1e+22", "0.10000000000000001"):
        assert token in text.replace("\r\n", ","), token


def test_csv_writes_one_block_per_step():
    h1, h2 = _metric_pair(3, 2, 4)
    writes = []

    class Recorder:
        write = writes.append

    write_geodesic_csv(h1, h2, 5, Recorder())
    assert len(writes) == 1 + 5
    assert all(len(w.splitlines()) == 4 for w in writes[1:])


SECTION_MAKERS = {
    MetricSection: sampling.random_metric_section,
    TangentSection: sampling.random_tangent_section,
    GaugeTransform: lambda rng, mesh: GaugeTransform(
        mesh, np.eye(mesh.rank) + 0.1 * sampling.random_tangent_section(rng, mesh).values),
}


@pytest.mark.parametrize("cls", list(SECTION_MAKERS), ids=lambda c: c.__name__)
@pytest.mark.parametrize("rank,n", [(1, 7), (2, 200), (8, 24)])
def test_stacked_parse_matches_the_per_point_reference(cls, rank, n):
    rng = sampling.make_rng(rank + n)
    section = SECTION_MAKERS[cls](rng, _unsorted_mesh(rng, rank, n))
    obj = json.loads(json.dumps(sections.section_to_json(section)))
    # integers are JSON numbers too
    obj["points"][0]["weight"] = 2
    obj["points"][0][cls.key]["im"][0][0] = 0
    got, want = sections.section_from_json(obj), reference_section_from_json(obj)
    assert type(got) is type(want) is cls
    assert np.array_equal(got.values, want.values)
    assert got.mesh.content_hash == want.mesh.content_hash


def _point_obj():
    mesh = QuadratureMesh(rank=2, ids=[3, 8], weights=[1.0, 2.0], alphas=[0.0, 0.5])
    return sections.section_to_json(
        MetricSection(mesh, np.broadcast_to(np.eye(2), (2, 2, 2))))


@pytest.mark.parametrize("field,value,message", [
    ("id", 10**30, "point 1: id 1000"),
    ("id", 2**63, "point 1: id 9223372036854775808 is not a JSON integer"),
    ("id", 2**64 - 1, "point 1: id 18446744073709551615"),
    ("id", -(2**63) - 1, "point 1: id -9223372036854775809"),
    ("id", 0.7, "point 1: id 0.7 is not a JSON integer"),
    ("id", 8.0, "point 1: id 8.0 is not a JSON integer"),
    ("id", "5", "point 1: id '5' is not a JSON integer"),
    ("id", True, "point 1: id True is not a JSON integer"),
    ("weight", "2", "point id 8: weight '2' is not a number"),
    ("weight", None, "point id 8: weight None is not a number"),
    ("alpha", [0.0, "x"], "point id 8: alpha"),
    ("alpha", 10**400, "point id 8: alpha"),
    # the other weight is a float: numpy alone would read the bool as 1.0
    ("weight", True, "point id 8: weight True is not a number"),
])
def test_wire_read_rejects_non_numbers_by_point(field, value, message):
    obj = _point_obj()
    obj["points"][1][field] = value
    with pytest.raises(WireFormatError, match=message):
        sections.section_from_json(obj)


@pytest.mark.parametrize("part,entry", [("re", "2.5"), ("im", {}), ("re", None),
                                        ("im", [1.0]), ("im", False), ("re", True)])
def test_wire_read_rejects_non_number_entries_by_point(part, entry):
    obj = _point_obj()
    obj["points"][1]["h"][part][0][1] = entry
    with pytest.raises(HermGeoError, match=f"point id 8: {part}"):
        sections.section_from_json(obj)


@pytest.mark.parametrize("rank", [1.9, 2.0, True, "2", None])
def test_wire_read_requires_an_integer_rank(rank):
    obj = _point_obj()
    obj["rank"] = rank
    with pytest.raises(WireFormatError, match="rank .* is not a JSON integer"):
        sections.section_from_json(obj)


def test_matrix_read_shares_the_numbers_check():
    with pytest.raises(WireFormatError, match="re"):
        linalg.matrix_from_json({"re": [["2.5"]], "im": [[0.0]]})
    with pytest.raises(WireFormatError, match="im"):
        linalg.matrix_from_json({"re": [[2.5]], "im": [[True]]})


def test_wire_read_keeps_the_int64_id_range():
    obj = _point_obj()
    obj["points"][0]["id"], obj["points"][1]["id"] = -(2**63), 2**63 - 1
    assert sections.section_from_json(obj).mesh.ids.tolist() == [-(2**63), 2**63 - 1]


@pytest.mark.parametrize("ids", [
    [0, 10**30],
    [0, 2**63],
    np.array([0, 2**63], dtype=np.uint64),
    np.array([0, 2**64 - 1], dtype=np.uint64),
    [0.0, 1e30],
    [-(2**63) - 1, 0],
])
def test_mesh_rejects_ids_outside_int64(ids):
    with pytest.raises(ParameterError, match="outside the int64 range"):
        QuadratureMesh(rank=1, ids=ids, weights=[1.0, 1.0], alphas=[0.0, 0.0])


@pytest.mark.parametrize("ids, first_bad", [
    ([0.7, 1.9], "0.7"),
    ([0.0, 1.0], "0.0"),
    (["5", "6"], "'5'"),
    ([True, False], "True"),
    ([1 + 0j, 2 + 0j], r"\(1\+0j\)"),
    (np.array([3, "x"], dtype=object), "'x'"),
    (np.array([3, None], dtype=object), "None"),
    (np.array([3, 4.0], dtype=object), "4.0"),
    (np.array([False, 4], dtype=object), "False"),
])
def test_mesh_rejects_ids_that_are_not_integers(ids, first_bad):
    with pytest.raises(ParameterError, match=f"point id {first_bad} is not an integer"):
        QuadratureMesh(rank=1, ids=ids, weights=[1.0, 1.0], alphas=[0.0, 0.0])


@pytest.mark.parametrize("ids", [
    np.array([7, 3], dtype=np.uint8),
    np.array([7, 3], dtype=np.int32),
    np.array([7, np.int16(3)], dtype=object),
])
def test_mesh_takes_integer_ids_of_any_kind(ids):
    mesh = QuadratureMesh(rank=1, ids=ids, weights=[1.0, 1.0], alphas=[0.0, 0.0])
    assert mesh.ids.dtype == np.int64 and mesh.ids.tolist() == [3, 7]


def test_geodesic_stdout_and_out_file_hold_the_same_bytes(tmp_path):
    h1, h2 = _metric_pair(11, 2, 6)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for section, path in zip((h1, h2), paths):
        sections.save_section(section, str(path))
    out = tmp_path / "trace.csv"
    src = os.path.dirname(os.path.dirname(hermgeo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "hermgeo.cli", "geodesic", *map(str, paths), "--steps", "4"]
    stdout = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
    subprocess.run([*argv, "--out", str(out)], env=env, check=True)
    assert stdout == out.read_bytes()
    assert stdout.decode() == _csv_text(reference_csv, h1, h2, 4)


# --- fuzz ---------------------------------------------------------------

WIRE_KEYS = ("rank", "points", "id", "weight", "alpha", "h", "v", "phi", "re", "im")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(WIRE_KEYS) | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=16)

NEAR_MISSES = st.sampled_from([10**30, 2**63, 2**64 - 1, -(2**63) - 1, 0.5, 1.0, "1",
                               True, False, None, float("nan"), float("inf"), -1.0,
                               0, [], {}, [[1.0]], [[0.0, 0.0], [0.0, 0.0]]])


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


@st.composite
def mutated_sections(draw):
    """A valid section's wire form with up to three fields replaced or
    deleted, anywhere from the root to a single matrix entry."""
    rank, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cls = draw(st.sampled_from(list(SECTION_MAKERS)))
    mesh = QuadratureMesh(rank=rank, ids=rng.permutation(n), weights=rng.uniform(0.1, 2.0, n),
                          alphas=np.zeros(n))
    obj = json.loads(json.dumps(sections.section_to_json(SECTION_MAKERS[cls](rng, mesh))))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(obj))
        keyed = [p for p in paths if p and isinstance(p[-1], str)]  # named fields
        path = draw(st.sampled_from(keyed or paths) | st.sampled_from(paths))
        if not path:
            return draw(JSON_VALUES | NEAR_MISSES)
        parent = obj
        for k in path[:-1]:
            parent = parent[k]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            # a copy: a later mutation may reach into the value
            parent[path[-1]] = copy.deepcopy(draw(NEAR_MISSES | st.floats() | JSON_VALUES))
    return obj


# mutated sections two times in three: they reach past the first key lookup
WIRE_INPUTS = st.one_of(JSON_VALUES, mutated_sections(), mutated_sections())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(obj=WIRE_INPUTS)
def test_wire_read_gives_a_section_or_a_typed_error(obj):
    try:
        section = sections.section_from_json(obj)
    except HermGeoError as exc:
        event(type(exc).__name__)  # shown by pytest --hypothesis-show-statistics
        return
    event(type(section).__name__)
    for a in (section.values, section.mesh.weights, section.mesh.alphas):
        assert np.all(np.isfinite(a))


@pytest.fixture(scope="module")
def wire_file(tmp_path_factory):
    return tmp_path_factory.mktemp("wire") / "section.json"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(obj=WIRE_INPUTS)
def test_distance_cli_exits_0_or_2_on_any_json(wire_file, obj):
    wire_file.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["distance", str(wire_file), str(wire_file)])
    if code == 0:
        assert np.isfinite(float(out.getvalue()))
    else:
        lines = err.getvalue().strip().splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
