"""Span tracer that wraps the package's public functions from outside.

While a ``Tracer`` is installed, every public function defined in a layer
module is replaced, in every namespace that binds it, by a wrapper that
records one span per call: (function, parent span, start, end).  Spans stay
in memory and can be written out after the run; self time is computed from
them afterwards.  Leaving the ``with`` block puts every original binding
back, so the package itself is never edited.
"""
from __future__ import annotations

import sys
import time
import types
from array import array
from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence

from usmod.errors import ResourceExceededError

LAYERS = (
    "rings",
    "modules",
    "storsion",
    "essential",
    "injective",
    "corpus",
    "laws",
    "search",
    "witnesses",
    "report",
)


def layer_modules() -> dict[str, types.ModuleType]:
    """The package's layer modules, imported, keyed by layer name."""
    import importlib

    return {name: importlib.import_module(f"usmod.{name}") for name in LAYERS}


def package_namespaces() -> list[types.ModuleType]:
    """Every loaded module of the package: the places a function can be bound."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "usmod" or name.startswith("usmod.")
    ]


def _public_functions(layer: str, module: types.ModuleType):
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_"):
            continue
        inner = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
        if isinstance(inner, types.FunctionType) and inner.__module__ == module.__name__:
            yield f"{layer}.{attr}", obj


def self_times(
    fids: Sequence[int], parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> list[float]:
    """Per span: its duration minus the time covered by its direct children.

    Children never overlap each other (calls are nested, single-threaded),
    so summing their durations gives the covered time."""
    covered = [0.0] * len(fids)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(fids))]


class Tracer:
    """Context manager that traces the public functions of *layers*.

    *layers* maps a layer name to its module (default: the package's ten
    layers); *namespaces* are the modules whose bindings get replaced
    (default: every loaded ``usmod`` module).  *raises* is the exception
    type counted as ``raised`` when it escapes a traced function."""

    def __init__(
        self,
        layers: Mapping[str, types.ModuleType] | None = None,
        namespaces: Iterable[types.ModuleType] | None = None,
        raises: type[BaseException] = ResourceExceededError,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.layers = dict(layer_modules() if layers is None else layers)
        self._namespaces = namespaces
        self._raises = raises
        self._clock = clock
        self.names: list[str] = []
        self.functions: list[Callable] = []  # the originals, by function id
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: list[int] = []
        self.incl: list[float] = []
        # summed len() of list/tuple results; for cached functions only the
        # results actually computed (cache misses) count
        self.returned: list[int] = []
        self._stack = [-1]
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- install / restore ----------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, Callable] = {}
        for layer, module in self.layers.items():
            for qualname, fn in _public_functions(layer, module):
                wrappers[id(fn)] = self._wrap(qualname, fn)
        namespaces = package_namespaces() if self._namespaces is None else self._namespaces
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(qualname)
        self.functions.append(fn)
        self.raised.append(0)
        self.incl.append(0.0)
        self.returned.append(0)
        span_fid, span_parent = self.span_fid, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        raised, incl, returned = self.raised, self.incl, self.returned
        clock, raises, stack = self._clock, self._raises, self._stack
        cache_info = getattr(fn, "cache_info", None)
        depth = [0]  # active calls of this function, so recursion counts once in incl

        def traced(*args, **kwargs):
            idx = len(span_fid)
            span_fid.append(fid)
            span_parent.append(stack[-1])
            stack.append(idx)
            outer = depth[0] == 0
            depth[0] += 1
            misses = cache_info().misses if cache_info else 0
            start = clock()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except raises:
                raised[fid] += 1
                raise
            finally:
                end = clock()
                span_end[idx] = end
                depth[0] -= 1
                stack.pop()
                if outer:
                    incl[fid] += end - start
            if isinstance(result, (list, tuple)) and (
                cache_info is None or cache_info().misses != misses
            ):
                returned[fid] += len(result)
            return result

        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__qualname__ = getattr(fn, "__qualname__", qualname)
        traced.__doc__ = fn.__doc__
        return traced

    # -- results ----------------------------------------------------------

    def function_stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s, incl_s, raised and returned per traced function,
        plus cache_hit_ratio for the ``lru_cache``d ones (hits over lookups
        since the process started, 0 when never called)."""
        selfs = self_times(self.span_fid, self.span_parent, self.span_start, self.span_end)
        self_by_fid = [0.0] * len(self.names)
        for fid, s in zip(self.span_fid, selfs):
            self_by_fid[fid] += s
        calls = Counter(self.span_fid)
        out = {}
        for fid, name in enumerate(self.names):
            stats = out[name] = {
                "calls": calls.get(fid, 0),
                "self_s": self_by_fid[fid],
                "incl_s": self.incl[fid],
                "raised": self.raised[fid],
                "returned": self.returned[fid],
            }
            cache_info = getattr(self.functions[fid], "cache_info", None)
            if cache_info is not None:
                info = cache_info()
                lookups = info.hits + info.misses
                stats["cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """Spans as TSV: span id, parent id (-1 for none), function, start
        and end in microseconds since the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_us\tend_us\n")
            names = self.names
            for i, (fid, parent, start, end) in enumerate(
                zip(self.span_fid, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(
                    f"{i}\t{parent}\t{names[fid]}\t"
                    f"{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n"
                )
