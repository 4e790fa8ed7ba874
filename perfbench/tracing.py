"""Per-layer tracer for the benchmark's traced runs.

Installing a :class:`Tracer` replaces, for the lifetime of the ``with``
block, each public function of the package modules (the names in their
``__all__``), the public classmethods, every ``__post_init__`` and every
``cached_property`` of their classes with a timing wrapper.  Functions are
rebound wherever the same object is bound: in the defining module, in
every ``quadmap`` module that imported it, and in the extra namespaces the
caller passes (the benchmark's own).  Python's cyclic garbage collector is
read through ``gc.callbacks`` and counts as a layer of its own.

A layer's self time is the time of its calls minus the time of the calls
and collections nested inside them, so the self times of all layers plus
the benchmark's own time add up to the traced wall time.  A span (name,
start, end, parent span, op id) is kept for every call that crosses from
one layer into another, and for every collection; spans stay in memory
until :meth:`Tracer.write_spans`.
"""
from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "paths",
    "trees",
    "labeled",
    "schaeffer",
    "planar_map",
    "snake",
    "enumeration",
    "harness",
    "cli",
)
BENCH = "bench"
GC = "gc"

# planar_map self time is split by what the call does; other layers only
# separate constructor validation from the rest.  A call nested in a
# validating call of the same layer counts as validation too.
_PLANAR_CATEGORIES = {
    "validate_quadrangulation": "validate",
    "from_rotations": "build",
    "bfs_distances": "query",
    "radius": "query",
    "profile": "query",
    "rooted_code": "query",
    "pointed_code": "query",
    "canonical_code": "query",
    "faces": "query",
    "vertex_cycles": "query",
    "n_vertices": "query",
    "face_of": "query",
    "save_map": "io",
    "load_map": "io",
}

# frame slots: layer, category, start, time of nested calls, span index of
# the nearest stored span, whether this frame stored that span
_LAYER, _CAT, _START, _CHILD, _SPAN, _OWN = range(6)

MAX_SPANS = 200_000


def _category(layer: str, name: str) -> str:
    if name == "__post_init__":
        return "validate"
    if layer == "planar_map":
        return _PLANAR_CATEGORIES.get(name, "other")
    return "other"


class Tracer:
    """Collects self time per (layer, category), work counts and spans."""

    def __init__(self, extra_namespaces=()) -> None:
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.stat_time: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.dropped_spans = 0
        self._stack: list[list] = []
        self._op = -1
        self._op_frame: list = []
        self._gc_start = 0.0
        self._extra = list(extra_namespaces)
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"quadmap.{layer}") for layer in LAYERS}
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if name == "quadmap" or name.startswith("quadmap.")
        ] + self._extra
        for layer, module in modules.items():
            for public in module.__all__:
                obj = getattr(module, public)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self._wrap(layer, public, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        # vars() gives the raw descriptor (classmethod, cached_property)
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__post_init__":
                self._set(cls, attr, self._wrap(layer, attr, raw, "post_init"))
            elif isinstance(raw, functools.cached_property):
                prop = functools.cached_property(self._wrap(layer, attr, raw.func, "property"))
                prop.__set_name__(cls, attr)
                self._set(cls, attr, prop)
            elif isinstance(raw, classmethod) and not attr.startswith("_"):
                wrapped = self._wrap(layer, attr, raw.__func__, "function")
                self._set(cls, attr, classmethod(wrapped))

    # -- accounting ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _push(self, layer: str, cat: str, qualname: str) -> list:
        now = time.perf_counter()
        stack = self._stack
        parent_span = stack[-1][_SPAN] if stack else -1
        if stack and stack[-1][_LAYER] == layer and stack[-1][_CAT] == "validate":
            cat = "validate"  # e.g. the face pass a constructor's check runs
        span, own = parent_span, False
        if not stack or stack[-1][_LAYER] != layer:
            if len(self.spans) < MAX_SPANS:
                span, own = len(self.spans), True
                self.spans.append([self._name_id(qualname), now, now, parent_span, self._op])
            else:
                self.dropped_spans += 1
        frame = [layer, cat, now, 0.0, span, own]
        stack.append(frame)
        return frame

    def _pop(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        elapsed = end - frame[_START]
        self.self_time[(frame[_LAYER], frame[_CAT])] += elapsed - frame[_CHILD]
        if stack:
            stack[-1][_CHILD] += elapsed
        if frame[_OWN]:
            self.spans[frame[_SPAN]][2] = end
        return elapsed

    def _wrap(self, layer: str, name: str, fn, kind: str = "function"):
        cat = _category(layer, name)
        qualname = f"{layer}.{fn.__qualname__}"
        count = self._counter(layer, name, fn, kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._push(layer, cat, qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._pop(frame)
            if count is not None:
                count(args, kwargs, result, elapsed)
            return result

        return wrapper

    def _counter(self, layer: str, name: str, fn, kind: str):
        """Work counter for one wrapped callable, or None."""
        counts = self.counts
        if kind == "property":
            return None
        if kind == "post_init":
            is_map = fn.__qualname__ == "HalfEdgeMap.__post_init__"

            def on_post_init(args, kwargs, result, elapsed):
                obj = args[0]
                counts[f"{layer}.objects"] += 1
                if not getattr(obj, "_checked", False):
                    counts["validations"] += 1
                if is_map:
                    counts["planar_map.maps"] += 1
                    counts["planar_map.darts"] += len(obj.twin)

            return on_post_init
        extra = None
        if layer == "paths":
            sig = inspect.signature(fn)
            stack = self._stack

            def extra(args, kwargs, result, elapsed):
                # runs after the pop, so the top frame is the caller; a paths
                # call made from paths walks entries its caller already counts
                if not stack or stack[-1][_LAYER] != "paths":
                    counts["paths.steps"] += _walk_entries(sig.bind(*args, **kwargs))

        elif (layer, name) == ("harness", "replica_rng"):

            def extra(args, kwargs, result, elapsed):
                counts["harness.rng_streams"] += 1

        elif (layer, name) == ("harness", "run_experiment"):
            stat_time = self.stat_time

            def extra(args, kwargs, result, elapsed):
                cfg = args[0] if args else kwargs["cfg"]
                stat_time[cfg.name] += elapsed

        elif layer == "enumeration":

            def extra(args, kwargs, result, elapsed):
                if isinstance(result, (list, tuple)):
                    counts["enumeration.objects"] += len(result)

        key = f"{layer}.calls"

        def on_call(args, kwargs, result, elapsed):
            counts[key] += 1
            if extra is not None:
                extra(args, kwargs, result, elapsed)

        return on_call

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        end = time.perf_counter()
        pause = end - self._gc_start
        self.self_time[(GC, "pause")] += pause
        self.counts["gc.collections"] += 1
        stack = self._stack
        if stack:
            stack[-1][_CHILD] += pause
        if len(self.spans) < MAX_SPANS:
            parent = stack[-1][_SPAN] if stack else -1
            self.spans.append([self._name_id("gc.collect"), self._gc_start, end, parent, self._op])
        else:
            self.dropped_spans += 1

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Open a root span of op ``op_id``; everything until :meth:`end_op`
        is attributed to it.  An op may be opened and closed several times,
        so that work between its steps stays out of the trace."""
        self._op = op_id
        self._op_frame = self._push(BENCH, "other", "bench.op")

    def end_op(self) -> None:
        self._pop(self._op_frame)
        self._op = -1

    def layer_self_time(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (layer, _), seconds in self.self_time.items():
            out[layer] += seconds
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": self.names,
                    "spans": self.spans,
                    "dropped": self.dropped_spans,
                },
                fh,
            )


def _walk_entries(bound: inspect.BoundArguments) -> int:
    """Walk entries a paths call processes, read from its arguments.

    Array arguments (walks, label bodies) count their size; size-only calls
    count ``count`` walks of length 2n+1.
    """
    for value in bound.arguments.values():
        if isinstance(value, np.ndarray):
            return int(value.size)
    n = int(bound.arguments["n"])
    return int(bound.arguments.get("count", 1)) * (2 * n + 1)
