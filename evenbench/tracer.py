"""A small span recorder and the wrappers that feed it.

install() wraps the public functions of every loaded evenzeta module (the
names in each module's __all__ that the module defines, generators
excepted) and the arithmetic methods of the two value classes that form
layers of their own, Polynomial and SequenceSpec.  A function bound into
another module with `from ... import` is replaced there too, because a
call looks the name up in the calling module.  verify.run_suite records one
span per named suite, "verify.suite.<name>".

Spans are aggregated as they close, so memory stays constant however many
calls a run makes.  Per layer the recorder keeps the call count, the
inclusive time of its outermost calls (a recursive call inside a call of
the same layer is not counted twice) and the self time, which is the
span's duration less the time its child spans cover.  Per (parent, child)
edge it keeps the call count and inclusive time, which is the call graph
written to the trace file.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Optional

# Methods that are layers of their own, mapped to their layer names.
CLASS_LAYERS = {
    "Polynomial": {
        "__add__": "add",
        "__sub__": "sub",
        "__mul__": "mul",
        "evaluate": "evaluate",
        "compose_affine": "compose_affine",
        "divide_linear_exact": "divide_linear_exact",
    },
    "SequenceSpec": {"product": "product", "values_upto": "values_upto"},
}


def _suite_span(args, kwargs) -> str:
    """verify.run_suite records each named suite as a layer of its own."""
    name = args[0] if args else kwargs.get("name", "all")
    return "verify.run_suite" if name == "all" else f"verify.suite.{name}"


class Recorder:
    """Aggregates nested spans: per layer (calls, outermost total, self) and per edge."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.layers: dict[str, list] = {}
        self.edges: dict[str, list] = {}
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._active: dict[str, int] = {}

    def wrap(self, layer: str, fn: Callable) -> Callable:
        namer = _suite_span if layer == "verify.run_suite" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else layer
            frame = [name, 0.0, 0.0]
            self._stack.append(frame)
            self._active[name] = self._active.get(name, 0) + 1
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                self._stack.pop()
                self._active[name] -= 1
                entry = self.layers.get(name)
                if entry is None:
                    entry = self.layers[name] = [0, 0.0, 0.0]
                entry[0] += 1
                if not self._active[name]:
                    entry[1] += duration
                entry[2] += duration - frame[2]
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[2] += duration
                edge_key = f"{parent[0] if parent else ''}>{name}"
                edge = self.edges.get(edge_key)
                if edge is None:
                    edge = self.edges[edge_key] = [0, 0.0]
                edge[0] += 1
                edge[1] += duration

        return traced

    def aggregate(self) -> dict:
        return {
            "layers": {k: list(v) for k, v in self.layers.items()},
            "edges": {k: list(v) for k, v in self.edges.items()},
        }


def merge(into: dict, part: dict) -> None:
    """Add one aggregate to another (both in the aggregate() form)."""
    for key in ("layers", "edges"):
        dst = into.setdefault(key, {})
        for name, values in part.get(key, {}).items():
            cur = dst.setdefault(name, [0] * len(values))
            for i, v in enumerate(values):
                cur[i] += v


def _package_modules(package) -> list:
    prefix = package.__name__ + "."
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package.__name__ or name.startswith(prefix))
    ]


def _is_plain_function(obj) -> bool:
    if not callable(obj) or isinstance(obj, type):
        return False
    return not inspect.isgeneratorfunction(inspect.unwrap(obj))


def install(recorder: Recorder, package) -> None:
    """Wrap the package's layers in every module of it that is loaded."""
    modules = _package_modules(package)
    wrapped: dict[int, tuple] = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        if mod is package or short.startswith("_"):
            continue
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not _is_plain_function(obj) or id(obj) in wrapped:
                continue
            wrapped[id(obj)] = (obj, recorder.wrap(f"{short}.{attr}", obj))
    for cls_name, methods in CLASS_LAYERS.items():
        cls: Optional[type] = getattr(package, cls_name, None)
        if cls is None:
            continue
        short = cls.__module__.rsplit(".", 1)[-1]
        for meth, layer in methods.items():
            fn = cls.__dict__.get(meth)
            if fn is None:
                continue
            traced = recorder.wrap(f"{short}.{layer}", fn)
            for key, value in list(cls.__dict__.items()):
                if value is fn:  # aliases such as __rmul__ = __mul__
                    setattr(cls, key, traced)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
