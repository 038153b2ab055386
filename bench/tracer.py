"""Spans and counts around hermgeo's layers, recorded from outside the package.

``Tracer.installed()`` replaces every public function of the hermgeo
modules (and the public methods of their classes) by a wrapper, at every
place the function is bound: its own module, each module that imported
it by name, the package namespace and module-level dicts such as
``suites.SUITES``.  The eigensolvers ``numpy.linalg.eigh`` and
``eigvalsh`` get spans too, and ``numpy.linalg.inv`` is counted inside
the oracle layer, where each call is one path-energy evaluation.  On
exit every original binding is restored, so untraced passes run the
package exactly as shipped.

A span is (name, start, end, parent) plus the rank and the number of
mesh points or matrices of its first argument.  Spans are kept in flat
arrays for one pass; ``summarize`` turns them into per-name call counts,
inclusive and self times.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from array import array

import numpy as np

# Layers in the order their names are shown; the index is a bit in the
# mask of layers that are open above a span.
LAYERS = ("numpy.linalg", "linalg", "fiber", "oracle", "sections",
          "completion", "disk", "sampling", "suites", "cli")
PACKAGE_MODULES = ("linalg", "fiber", "oracle", "sections", "completion",
                   "disk", "sampling", "suites", "cli")
EIG_FUNCTIONS = ("eigh", "eigvalsh")
_ORACLE_BIT = 1 << LAYERS.index("oracle")


def _shape_info(args) -> tuple[int, int]:
    """(rank, points) of the first argument.

    ``points`` is the mesh size of a section-like argument, or the number
    of stacked matrices of an array argument."""
    if not args:
        return 0, 0
    a = args[0]
    mesh = getattr(a, "mesh", None)
    if mesh is not None:
        return int(getattr(mesh, "rank", 0) or 0), int(mesh.n_points)
    shape = getattr(a, "shape", None)
    if shape is not None and len(shape) >= 2:
        r = int(shape[-1])
        return r, int(a.size) // (r * r) if r else 0
    return 0, 0


class Tracer:
    """Span recorder for one process; one pass at a time."""

    def __init__(self, hermgeo):
        self._hermgeo = hermgeo
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self._name = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._parent = array("i")
        self._rank = array("i")
        self._points = array("i")
        self._outer = array("b")
        self._stack: list[int] = []
        self._masks: list[int] = [0]
        self.oracle_inv_calls = 0

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self._name_ids[name]

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        bit = 1 << LAYERS.index(layer)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            rank, points = _shape_info(args)
            i = len(self._t0)
            mask = self._masks[-1]
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._rank.append(rank)
            self._points.append(points)
            self._outer.append(0 if mask & bit else 1)
            self._t1.append(0.0)
            self._stack.append(i)
            self._masks.append(mask | bit)
            self._t0.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self._t1[i] = perf()
                self._stack.pop()
                self._masks.pop()

        traced.__wrapped__ = fn
        return traced

    def _oracle_inv_wrapper(self, fn):
        def counted(*args, **kwargs):
            if self._masks[-1] & _ORACLE_BIT:
                self.oracle_inv_calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------

    def _plan(self):
        """(functions to rebind, class attributes to replace)."""
        funcs: dict[int, tuple] = {}
        class_attrs: list[tuple] = []
        for layer in PACKAGE_MODULES:
            mod = getattr(self._hermgeo, layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    funcs[id(obj)] = (obj, self._span_wrapper(obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    class_attrs += self._class_plan(obj, layer)
        return funcs, class_attrs

    def _class_plan(self, cls, layer: str) -> list[tuple]:
        out = []
        for attr, raw in vars(cls).items():
            if attr.startswith("_") and attr not in ("__post_init__", "__call__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._span_wrapper(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._span_wrapper(raw, name, layer)
            else:
                continue
            out.append((cls, attr, raw, new))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package and numpy.linalg; restore every binding on exit."""
        funcs, class_attrs = self._plan()
        for fname in EIG_FUNCTIONS:
            fn = getattr(np.linalg, fname)
            funcs[id(fn)] = (fn, self._span_wrapper(fn, f"numpy.linalg.{fname}",
                                                    "numpy.linalg"))
        inv = np.linalg.inv
        funcs[id(inv)] = (inv, self._oracle_inv_wrapper(inv))

        namespaces = [vars(self._hermgeo), vars(np.linalg)]
        namespaces += [vars(getattr(self._hermgeo, m)) for m in PACKAGE_MODULES]
        namespaces += [v for ns in list(namespaces) for k, v in ns.items()
                       if type(v) is dict and not k.startswith("__")]
        undo = []
        try:
            for ns in namespaces:
                for key, val in list(ns.items()):
                    hit = funcs.get(id(val))
                    if hit is not None and hit[0] is val:
                        ns[key] = hit[1]
                        undo.append((ns, key, val))
            for cls, attr, raw, new in class_attrs:
                setattr(cls, attr, new)
                undo.append((cls, attr, raw))
            yield self
        finally:
            for target, key, val in reversed(undo):
                if isinstance(target, dict):
                    target[key] = val
                else:
                    setattr(target, key, val)

    # -- aggregation --------------------------------------------------------

    def summarize(self) -> "PassTrace":
        """Aggregate the spans of the pass recorded since ``reset``."""
        if self._stack:
            raise RuntimeError("summarize called with open spans")
        return PassTrace(self, np.frombuffer(self._name, dtype=np.int32),
                         np.frombuffer(self._t0), np.frombuffer(self._t1),
                         np.frombuffer(self._parent, dtype=np.int32),
                         np.frombuffer(self._rank, dtype=np.int32),
                         np.frombuffer(self._points, dtype=np.int32),
                         np.frombuffer(self._outer, dtype=np.int8).astype(bool),
                         self.oracle_inv_calls)


class PassTrace:
    """Per-name aggregates of one traced pass."""

    def __init__(self, tracer, name, t0, t1, parent, rank, points, outer,
                 oracle_inv_calls):
        n_names = len(tracer.names)
        dur = t1 - t0
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        self._ids = {nm: i for i, nm in enumerate(tracer.names)}
        self.calls = np.bincount(name, minlength=n_names)
        self.incl = np.bincount(name, weights=dur, minlength=n_names)
        self.self_time = np.bincount(name, weights=self_time, minlength=n_names)
        self.points = np.bincount(name, weights=points, minlength=n_names)
        name_layer = np.asarray(tracer.name_layer, dtype=np.int64)
        span_layer = name_layer[name]
        self._layer_self = np.bincount(span_layer, weights=self_time,
                                       minlength=len(LAYERS))
        self._layer_outer = np.bincount(span_layer[outer], weights=dur[outer],
                                        minlength=len(LAYERS))
        linalg_spans = span_layer == LAYERS.index("linalg")
        self._linalg_rank = rank[linalg_spans]
        self._linalg_dur = dur[linalg_spans]
        self.oracle_inv_calls = oracle_inv_calls

    def _get(self, table, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(table[i])

    def calls_of(self, *names: str) -> int:
        return int(sum(self._get(self.calls, n) for n in names))

    def incl_of(self, *names: str) -> float:
        return sum(self._get(self.incl, n) for n in names)

    def self_of(self, *names: str) -> float:
        return sum(self._get(self.self_time, n) for n in names)

    def points_of(self, *names: str) -> float:
        return sum(self._get(self.points, n) for n in names)

    def layer_self(self, layer: str) -> float:
        return float(self._layer_self[LAYERS.index(layer)])

    def layer_outer(self, layer: str) -> float:
        """Time inside the layer's outermost spans (nested calls counted once)."""
        return float(self._layer_outer[LAYERS.index(layer)])

    def linalg_median_us(self, rank: int) -> float:
        """Median duration of the linalg calls whose first argument has this rank."""
        sel = self._linalg_dur[self._linalg_rank == rank]
        return float(np.median(sel)) * 1e6 if sel.size else 0.0
