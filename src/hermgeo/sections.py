"""Discretized spaces of Hermitian metric sections over a quadrature mesh.

A mesh is a finite list of weighted base points, each carrying its own
metric parameter alpha; a metric section assigns a positive-definite
matrix to every point.  The L2 inner product, the section distance
(the weighted l2 combination of fiber distances), pointwise geodesics,
the gauge action, conformal identities, the L1-style lower-bound metric
and the flat reference structure all live here.

Meshes are equal, and hash alike, by content: their rank and a hash of
their points.  Every binary operation demands equal meshes, so silently
mixing quadratures is impossible.  Values on a mesh (metric and tangent
sections, gauge transforms, scalar fields) are equal only by identity
and share one base class: they are validated once, at construction,
into fresh read-only (n, r, r) or (n,) arrays.  A section an op computes
from validated sections (a geodesic point, a gauge or conformal image)
is built by the private ``_derived``, which only scans it for non-finite
entries.  A metric section holds one factorization, the eigenpair
(w, V) of h: the public constructor's eigendecomposition, which decides
positivity at once; one handed on by ``_derived``'s caller; or one
taken on first use, which a gauge image makes at once.  Every op at h
takes that pair; a geodesic's frame builds the roots (h^{1/2}, h^{-1/2})
it needs from it, per call.  A section that is only ever the second
argument of an op (the far end of a distance or a geodesic) needs none.
The section ops call the unvalidated linalg and fiber kernels on the
stacks; none factors h again.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionError,
    HermGeoError,
    IllConditionedError,
    MeshMismatchError,
    NonFiniteError,
    ParameterError,
    WireFormatError,
    check_count,
    check_floats,
    reject,
)
from .fiber import _alpha_inner, _distance, _frame, _geodesic, check_alpha
# unused here; bench/test_bench.py::test_tracer_restores_every_binding reads it
from .fiber import fiber_distance  # noqa: F401

GAUGE_COND_LIMIT = 1e12
INT64_BOUND = 2**63


@contextmanager
def _at_points(ids: np.ndarray):
    """Re-raise an error about one matrix of a stack under its point id."""
    try:
        yield
    except HermGeoError as exc:
        if exc.index is None:
            raise
        raise type(exc)(f"point id {ids[exc.index]}: {exc.detail}") from exc


@dataclass(frozen=True)
class QuadratureMesh:
    """Finite weighted point set standing in for the base manifold.

    Points are stored sorted by id; ``weights`` are the quadrature
    weights of the modeled volume measure and ``alphas`` the per-point
    metric parameters (each must exceed -1/rank).
    """

    rank: int
    # held in the content hash, so equality and the hash use that alone
    ids: np.ndarray = field(compare=False)
    weights: np.ndarray = field(compare=False)
    alphas: np.ndarray = field(compare=False)
    content_hash: str = field(init=False)

    def __post_init__(self):
        if check_count(self.rank, "rank", 1) > linalg.RANK_LIMIT:
            raise ParameterError(f"rank={self.rank}: need at most {linalg.RANK_LIMIT}")
        ids = _int64_ids(self.ids)
        weights = check_floats(self.weights, "weights")
        alphas = check_floats(self.alphas, "alphas")
        if not (ids.shape == weights.shape == alphas.shape) or ids.ndim != 1:
            raise DimensionError("ids, weights, alphas must be equal-length 1-d")
        order = np.argsort(ids)
        ids, weights, alphas = ids[order], weights[order], alphas[order]
        with _at_points(ids):
            reject(ids[1:] == ids[:-1], ParameterError, lambda k: "duplicate point id")
            reject(~(np.isfinite(weights) & (weights > 0)), ParameterError,
                   lambda k: f"quadrature weight {weights[k]} is not positive "
                             "and finite")
            check_alpha(alphas, self.rank)
        digest = hashlib.sha256(np.int64(self.rank).tobytes())
        for name, a in (("ids", ids), ("weights", weights), ("alphas", alphas)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
            digest.update(a.tobytes())
        object.__setattr__(self, "content_hash", digest.hexdigest())

    @property
    def n_points(self) -> int:
        return len(self.ids)

    @property
    def volume(self) -> float:
        return _weighted_sum(self.weights)


def _array(value, name: str) -> np.ndarray:
    """np.asarray(value); a ragged list raises ParameterError naming ``name``."""
    try:
        return np.asarray(value)
    except ValueError as exc:
        raise ParameterError(f"{name}={reprlib.repr(value)}: not an array ({exc})") from None


def _int64_ids(ids) -> np.ndarray:
    """Point ids as int64.  An id outside the int64 range, or one that is
    not an integer (a bool, float, complex, string or other object),
    raises ParameterError naming the first such id: a plain cast would
    wrap, truncate or parse it."""
    raw = _array(ids, "ids")

    def in_range():
        reject(~((raw >= -INT64_BOUND) & (raw < INT64_BOUND)), ParameterError,
               lambda k: f"point id {raw[k]} is outside the int64 range")
    # a float id past int64 is named as out of range; object ids are
    # compared only once they are known to be integers
    if raw.dtype.kind in "uf":
        in_range()
    if raw.dtype.kind not in "iu":
        items = raw.ravel().tolist()
        reject(np.array([isinstance(i, bool) or not isinstance(i, (int, np.integer))
                         for i in items], dtype=bool), ParameterError,
               lambda k: f"point id {items[k[0]]!r} is not an integer")
    if raw.dtype.kind == "O":
        in_range()
    return raw.astype(np.int64)


def _same_mesh(a, b):
    if a.mesh != b.mesh:
        raise MeshMismatchError("sections built over different meshes")
    return a.mesh


def _check_gauge(m: np.ndarray) -> np.ndarray:
    s = np.linalg.svd(linalg._finite(m), compute_uv=False)
    cond = s[..., 0] / np.maximum(s[..., -1], 1e-300)
    reject((s[..., -1] <= 0) | (cond > GAUGE_COND_LIMIT), IllConditionedError,
           lambda k: f"gauge matrix condition {cond[k]:.3e} exceeds "
                     f"{GAUGE_COND_LIMIT:.0e}")
    return m


def _check_finite(x: np.ndarray) -> np.ndarray:
    reject(~np.isfinite(x), NonFiniteError, lambda k: "scalar field has a non-finite value")
    return x


@dataclass(frozen=True, eq=False)
class _MeshValues:
    """Values at the points of a mesh, validated once, at construction:
    the shape, then the kind's ``_validate`` under the point ids (linalg
    validators are looked up at each call; a metric section's sets its
    eigenpair); a fresh read-only array is kept.  A kind names its wire ``key``
    (a scalar field has none) and whether its values are r x r matrices.
    ``_derived`` builds a section of values computed from validated ones."""

    mesh: QuadratureMesh
    values: np.ndarray
    matrix = True

    def __init_subclass__(cls):
        # each kind holds the constructor itself: bench/tracer.py times it per kind
        cls.__post_init__ = _MeshValues.__post_init__

    def __post_init__(self):
        mesh = self.mesh
        values = check_floats(self.values, "values", complex if self.matrix else float)
        expected = (mesh.n_points, mesh.rank, mesh.rank)[:3 if self.matrix else 1]
        if values.shape != expected:
            raise DimensionError(f"values shape {values.shape} != {expected}")
        with _at_points(mesh.ids):
            checked = self._validate(values)
        # a validator that returns its input would keep the caller's array
        if np.may_share_memory(checked, values):
            checked = checked.copy()
        checked.flags.writeable = False
        object.__setattr__(self, "values", checked)

    @classmethod
    def _derived(cls, mesh: QuadratureMesh, values: np.ndarray, eig=None):
        """A section of exactly Hermitian (n, r, r) ``values`` that the
        package computed and the caller hands over: they are only scanned
        for non-finite entries, under the point ids, and kept read-only.
        A metric section takes ``eig``, the eigenpair (w, V) of its values,
        if given, and refuses a point whose w is not positive; otherwise
        it factors its values on first use of ``eig``."""
        section = cls.__new__(cls)
        object.__setattr__(section, "mesh", mesh)
        with _at_points(mesh.ids):
            linalg._finite(values)
            if eig is not None:
                linalg._positive(eig[0])
                object.__setattr__(section, "eig", _read_only(eig))
        values.flags.writeable = False
        object.__setattr__(section, "values", values)
        return section


class MetricSection(_MeshValues):
    """A positive-definite h at each mesh point.

    ``eig`` is the read-only eigenpair (w, V), h = V diag(w) V^dagger: of
    the one eigendecomposition that decides positivity at construction,
    of a derived section's handed-on or factored pair, or of its values
    factored on first use, an error then naming its point.  It is the
    section's one factorization: every op at h takes it, and a geodesic's
    frame builds the roots it needs from it."""

    key = "h"

    def _validate(self, values):
        h = linalg.hermitian(values)
        object.__setattr__(self, "eig", _read_only(linalg._factor(h)))
        return h

    @functools.cached_property
    def eig(self) -> tuple:
        with _at_points(self.mesh.ids):
            return _read_only(linalg._factor(self.values))


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class TangentSection(_MeshValues):
    """One Hermitian matrix per mesh point."""

    key = "v"
    _validate = staticmethod(lambda values: linalg.hermitian(values))


class GaugeTransform(_MeshValues):
    """One invertible matrix per mesh point; acts by congruence."""

    key = "phi"
    _validate = staticmethod(_check_gauge)


class ScalarField(_MeshValues):
    """One real value per mesh point (conformal exponents and the like)."""

    matrix = False
    _validate = staticmethod(_check_finite)


def _weighted_sum(*factors, segment=None):
    """The sum over the mesh points of the product of ``factors`` (per-point
    arrays or scalars, multiplied left to right), as a float; or, given
    ``segment``, one integer in 0..n-1 for each of the n points, one sum
    per segment, in point order.  A sum that overflows raises
    NonFiniteError."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = functools.reduce(operator.mul, factors)
        total = terms.sum() if segment is None else _segment_sums(terms, segment)
    if not np.isfinite(total).all():
        raise NonFiniteError("a weighted sum over the mesh overflows")
    return float(total) if segment is None else total


def _segment_sums(terms: np.ndarray, segment) -> np.ndarray:
    """np.bincount of ``terms`` by ``segment``, checked first: an entry past
    n - 1 would make np.bincount allocate that many sums, and a float or
    negative one would end in a bare numpy error."""
    seg = _array(segment, "segment")
    if seg.shape != terms.shape:
        raise DimensionError(f"segment shape {seg.shape} != point shape {terms.shape}")
    if seg.dtype.kind not in "iu":
        raise ParameterError(f"segment dtype {seg.dtype} is not an integer type")
    reject((seg < 0) | (seg >= seg.size), ParameterError,
           lambda k: f"segment={seg[k]}: need an integer in 0..{seg.size - 1}")
    return np.bincount(seg.astype(np.intp), weights=terms)


def _root(total):
    """The square root of a ``_weighted_sum``: a float, or one per segment."""
    return np.sqrt(total) if np.ndim(total) else float(np.sqrt(total))


def l2_inner(h: MetricSection, v: TangentSection, w: TangentSection, *, segment=None):
    """Weighted sum of fiber inner products, the L2 metric at h: a float,
    or one per segment of a ``segment`` array (see ``_weighted_sum``)."""
    mesh = _same_mesh(h, v)
    _same_mesh(h, w)
    with _at_points(mesh.ids):
        inner = _alpha_inner(h.eig, v.values, w.values, mesh.alphas)
    return _weighted_sum(mesh.weights, inner, segment=segment)


def _relative_spectra(h1: MetricSection, h2: MetricSection):
    """The shared mesh and the ascending spectrum of h1^{-1} h2 at each
    point, (n, r); an error names its point id."""
    mesh = _same_mesh(h1, h2)
    with _at_points(mesh.ids):
        return mesh, linalg._relative_spectrum(h1.eig, h2.values)


def _fiber_distances(h1: MetricSection, h2: MetricSection):
    mesh, lam = _relative_spectra(h1, h2)
    return mesh, _distance(lam, mesh.alphas)


def section_distance(h1: MetricSection, h2: MetricSection, *, segment=None):
    """sqrt of the weighted sum of squared fiber distances: a float, or one
    per segment of a ``segment`` array (see ``_weighted_sum``)."""
    mesh, d = _fiber_distances(h1, h2)
    return _root(_weighted_sum(mesh.weights, d**2, segment=segment))


def theta_metric(h1: MetricSection, h2: MetricSection, *, segment=None):
    """Weighted *sum* of fiber distances (the L1-style lower-bound metric):
    a float, or one per segment of a ``segment`` array."""
    mesh, d = _fiber_distances(h1, h2)
    return _weighted_sum(mesh.weights, d, segment=segment)


def section_geodesic(h1: MetricSection, h2: MetricSection, t) -> MetricSection:
    """Pointwise geodesic from h1 to h2 at parameter t: any finite value,
    or one per point."""
    mesh = _same_mesh(h1, h2)
    with _at_points(mesh.ids):
        frame = _frame(h1.eig, h2.values, endpoint=True)
        return MetricSection._derived(mesh, _geodesic(h1.values, frame, t))


def conformal_scale(h: MetricSection, f: ScalarField) -> MetricSection:
    """The section e^f h, with the eigenpair (e^f w, V) of h's (w, V)."""
    mesh = _same_mesh(h, f)
    w, v = h.eig
    # an overflow is an inf, an underflow a zero eigenvalue, that
    # _derived rejects, naming the point
    with np.errstate(over="ignore", invalid="ignore"):
        ef = np.exp(f.values)
        scaled, w = ef[:, None, None] * h.values, ef[:, None] * w
    return MetricSection._derived(mesh, scaled, (w, v))


def conformal_distance(h: MetricSection, f: ScalarField, g: ScalarField, *, segment=None):
    """Closed form of d(e^f h, e^g h): sqrt(sum_i w_i r (1 + alpha_i r)
    (f_i - g_i)^2), for any admissible alpha field; a float, or one per
    segment of a ``segment`` array."""
    mesh = _same_mesh(h, f)
    _same_mesh(h, g)
    r = mesh.rank
    with np.errstate(over="ignore"):  # an overflow makes the sum raise
        sq = (f.values - g.values) ** 2
    return _root(_weighted_sum(mesh.weights, r, 1.0 + mesh.alphas * r, sq, segment=segment))


def gauge_apply(phi: GaugeTransform, section):
    """Pointwise congruence action h -> Phi^dagger h Phi.

    Applies to both metric and tangent sections; the observable contract
    is invariance of inner products and distances, which is
    convention-free.  A metric image's own eigendecomposition, taken at
    once, decides its positivity: a congruence by a near-singular Phi can
    round it to a singular matrix.
    """
    mesh = _same_mesh(phi, section)
    p = phi.values
    # an overflow is an inf that _derived rejects, naming the point
    with np.errstate(over="ignore", invalid="ignore"):
        m = linalg.hermitian_part(np.conj(p).swapaxes(-1, -2) @ section.values @ p)
    image = type(section)._derived(mesh, m)
    if isinstance(image, MetricSection):
        image.eig  # factored now, under the point ids, as a constructor would
    return image


def flat_distance(h0: MetricSection, h1: MetricSection, h2: MetricSection) -> float:
    """Flat distance ||h1 - h2|| measured in the frozen-base inner product."""
    mesh = _same_mesh(h1, h2)
    diff = TangentSection._derived(mesh, h1.values - h2.values)
    return _root(l2_inner(h0, diff, diff))


# --- serialization -------------------------------------------------------

_WIRE_KINDS = (MetricSection, TangentSection, GaugeTransform)


def section_to_json(section) -> dict:
    """Section wire format: rank plus per-point weight/alpha/matrix."""
    key = section.key
    mesh = section.mesh
    mats = linalg.matrix_to_json(section.values)
    return {"rank": mesh.rank, "points": [
        {"id": i, "weight": w, "alpha": a, key: {"re": re, "im": im}}
        for i, w, a, re, im in zip(mesh.ids.tolist(), mesh.weights.tolist(),
                                   mesh.alphas.tolist(), mats["re"], mats["im"])]}


def _stack_from_json(values: list, what: str) -> np.ndarray:
    """One field of every point, parsed with one np.asarray.  If that
    fails, the first point whose field is not numbers, or whose shape
    differs from the first point's, raises the error at its index."""
    try:
        return linalg.json_numbers(values, what)
    except WireFormatError:
        shapes = []
        for k, value in enumerate(values):
            try:
                shapes.append(np.shape(linalg.json_numbers(value, what)))
            except WireFormatError as exc:
                raise WireFormatError(exc.detail, index=k) from None
            if shapes[k] != shapes[0]:
                raise DimensionError(f"{what} shape {shapes[k]} != {shapes[0]}",
                                     index=k)
        raise


def section_from_json(obj: dict):
    """Inverse of section_to_json (the matrix key selects the type);
    input off the wire format raises WireFormatError.  Rank and ids must
    be JSON integers, and weights, alphas and matrix entries numbers."""
    try:
        rank, pts = obj["rank"], obj["points"]
        kind = next(c for c in _WIRE_KINDS if c.key in pts[0])
        ids = [p["id"] for p in pts]
        mats = [p[kind.key] for p in pts]
        fields = {"weight": [p["weight"] for p in pts], "alpha": [p["alpha"] for p in pts],
                  "re": [m["re"] for m in mats], "im": [m["im"] for m in mats]}
    except (LookupError, StopIteration, TypeError) as exc:
        raise WireFormatError(
            "not a section: need a rank and points, each with id, weight, "
            f"alpha and one matrix key of h, v, phi, all alike ({exc!r})") from exc
    if type(rank) is not int:
        raise WireFormatError(f"rank {reprlib.repr(rank)} is not a JSON integer")
    for k, pid in enumerate(ids):
        if type(pid) is not int or not -INT64_BOUND <= pid < INT64_BOUND:
            raise WireFormatError(f"point {k}: id {reprlib.repr(pid)} is not a "
                                  "JSON integer in the int64 range")
    with _at_points(ids):
        stacks = {what: _stack_from_json(v, what) for what, v in fields.items()}
    re, im = stacks["re"], stacks["im"]
    if re.shape != im.shape:
        raise DimensionError(f"re/im shape mismatch: {re.shape} vs {im.shape}")
    mesh = QuadratureMesh(rank=rank, ids=ids, weights=stacks["weight"],
                          alphas=stacks["alpha"])
    return kind(mesh, (re + 1j * im)[np.argsort(ids)])


def read_json(path: str):
    """Parse a JSON input file; other text raises WireFormatError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # too deep a nesting recurses
            raise WireFormatError(f"{path} is not JSON: {exc}") from exc


def load_section(path: str):
    return section_from_json(read_json(path))


def save_section(section, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(section_to_json(section), fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_geodesic_csv(h1: MetricSection, h2: MetricSection, steps: int,
                       stream) -> None:
    """CSV trace of the connecting geodesic: t, point_id, then re/im
    entries; unquoted, %.17g entries, \\r\\n rows, one write per step."""
    steps = check_count(steps, "steps", 2)
    mesh = _same_mesh(h1, h2)
    n, r = mesh.n_points, mesh.rank
    header = ["t", "point_id"] + [f"{part}_{i}{j}" for i in range(r) for j in range(r)
                                  for part in ("re", "im")]
    # one %-template formats a whole step block: its cells are t, the
    # point id and the entries of each point
    block = ("%s,%d," + ",".join(["%.17g"] * (2 * r * r)) + "\r\n") * n
    cells = np.empty((n, 2 + 2 * r * r), dtype=object)
    cells[:, 1] = mesh.ids.tolist()
    with _at_points(mesh.ids):
        # the frame refuses a pair before anything is written
        frame = _frame(h1.eig, h2.values, endpoint=True)
        stream.write(",".join(header) + "\r\n")
        for k in range(steps):
            t = k / (steps - 1)
            m = _geodesic(h1.values, frame, t)
            cells[:, 0] = f"{t:.12g}"
            cells[:, 2:] = np.stack([m.real, m.imag], axis=-1).reshape(n, -1)
            stream.write(block % tuple(cells.ravel().tolist()))
