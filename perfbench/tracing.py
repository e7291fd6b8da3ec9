"""In-memory spans and counters around the public functions of each
hyperrag layer.

``Tracer.install`` wraps every public module-level function of the layer
modules and rebinds the wrapper under every name that refers to the
original in any loaded ``hyperrag`` module, so a call made through
``from .geometry import log_map`` is traced as well as one made through
``geometry.log_map``.  ``Tracer.restore`` puts every original back.

Scalar kernels (the geometry module's point-wise functions, and the
per-element ``sigmoid``, ``decide`` and ``hash_features``) are called tens
of thousands of times per operation, so they only count calls, which keeps
the overhead and the span log small.  Every other function records a
span (name, start, end, parent span, request id).  Self time is a span's
duration minus the durations of its direct children; busy time counts
only the outermost span of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "synth",
    "io",
    "gate",
    "alignment",
    "geometry",
    "spectral",
    "transport",
    "generation",
    "pipeline",
)
# Geometry functions that work on whole arrays get spans; the rest of the
# geometry module is scalar kernels, which only count calls, as do these.
BATCHED_GEOMETRY = frozenset({"distances_to_rows", "lift_spatial", "acosh_stable_array"})
SCALAR_KERNELS = frozenset({"sigmoid", "decide", "hash_features"})
# An oracle module, never timed and never rebound.
UNTRACED_MODULES = frozenset({"hyperrag.conformance"})


def _public_functions(module):
    for name, fn in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == module.__name__
        ):
            yield name, fn


class Tracer:
    """Spans and counters for one benchmark process; not thread-safe (the
    benchmark drives the program from a single thread)."""

    def __init__(self):
        # Each span is [name, start, end, parent index, request id, outermost].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = None
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        # Names of the functions that record spans (the rest only count).
        self.spanned: set[str] = set()

    # -- wrappers -------------------------------------------------------

    def _spanned(self, name, fn, observe):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, active[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[name] -= 1
                stack.pop()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ---------------------------------------------

    def install(self, observers=None) -> None:
        """Wrap and rebind every public layer function.  ``observers`` maps
        a function name to ``f(counts, args, kwargs, result)``, called after
        each successful call to derive counters from arguments and results."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        observers = observers or {}
        wrappers: dict[int, object] = {}
        names: dict[str, str] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hyperrag.{layer}")
            for name, fn in _public_functions(module):
                if name in names:
                    raise RuntimeError(
                        f"{name} is public in both {names[name]} and {layer}; "
                        "span names would collide"
                    )
                names[name] = layer
                if name in SCALAR_KERNELS or (
                    layer == "geometry" and name not in BATCHED_GEOMETRY
                ):
                    wrappers[id(fn)] = (fn, self._counted(name, fn))
                else:
                    self.spanned.add(name)
                    wrappers[id(fn)] = (fn, self._spanned(name, fn, observers.get(name)))
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None
            and (mod_name == "hyperrag" or mod_name.startswith("hyperrag."))
            and mod_name not in UNTRACED_MODULES
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        point_cls = importlib.import_module("hyperrag.geometry").LorentzPoint
        post_init = point_cls.__post_init__
        counts = self.counts

        def counted_post_init(point):
            counts["LorentzPoint.created"] += 1
            post_init(point)

        self._patches.append((point_cls, "__post_init__", post_init))
        point_cls.__post_init__ = counted_post_init

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _req, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def function_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (outermost spans) and self
        seconds (duration minus direct children)."""
        child = self._child_time()
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _parent, _req, outer), inner in zip(self.spans, child):
            row = totals[name]
            row["calls"] += 1
            if outer:
                row["busy_s"] += end - start
            row["self_s"] += end - start - inner
        return dict(totals)

    def write_spans(self, path) -> None:
        """One JSON object per span; times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        child = self._child_time()
        with open(path, "w") as out:
            for idx, (name, start, end, parent, req, _outer) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "request": req,
                            "self_s": end - start - child[idx],
                        }
                    )
                    + "\n"
                )
