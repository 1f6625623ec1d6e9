"""Span tracing of katokit's public functions, installed from outside.

`Tracer.install()` replaces every public function of the traced modules, in
every katokit namespace that binds it (``cli`` and ``__init__`` import by
name), with a wrapper that records one span per call. `uninstall()` puts
the original objects back. Spans stay in memory, in flat arrays, and are
reduced when the run ends:

- a span's self time is its duration minus the durations of the spans it
  directly encloses, so a layer's self time is the time spent in that
  layer's own code, outside any other wrapped call;
- work counts come from call arguments and public results only (shift
  arrays, field grids, singular-value sizes, ``CalderonResult`` fields) and
  public ``cache_info()``; they are exact and repeat bit for bit.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from array import array

import numpy as np

LAYERS = ("grid", "weights", "sobolev", "kato", "calculus", "psido", "ensembles", "cli")
CACHES = (("sobolev", "weight_mesh"), ("grid", "frequency_mesh"))
BYTES_PER_ELEMENT = 16  # complex128 windowed spectra


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith("katokit."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans of katokit's public functions while installed."""

    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []  # (layer, function name)
        self._key_index: dict[tuple[str, str], int] = {}
        self.span_key = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_ops = weakref.WeakSet()
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}
        self.counts = {
            "kato.translations": 0,
            "kato.elements": 0,
            "kato.bytes_computed": 0,
            "kato.stack_mb_max": 0.0,
            "psido.svd.calls": 0,
            "psido.svd.s": 0.0,
            "psido.svd.max_dim": 0,
            "psido.svd.elements": 0,
            "calculus.contour_evals": 0,
            "calculus.contour_useful": 0,
            "calculus.halvings": 0,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("katokit")
        modules = {name: importlib.import_module(f"katokit.{name}") for name in LAYERS}
        hooks = {
            ("kato", "windowed_spectra"): self._count_translations,
            ("calculus", "calderon_apply"): self._count_contour,
        }
        for layer, name in CACHES:
            cached = getattr(modules[layer], name)
            info = cached.cache_info()
            self._caches[f"{layer}.{name}"] = cached
            self._cache_start[f"{layer}.{name}"] = (info.hits, info.misses)
        wrappers: dict[int, object] = {}
        for namespace in (package, *modules.values()):
            for name, obj in list(vars(namespace).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    fn_name = obj.__name__
                    wrapper = self._wrap(obj, layer, fn_name, hooks.get((layer, fn_name)))
                    wrappers[id(obj)] = wrapper
                self._patched.append((namespace, name, obj))
                setattr(namespace, name, wrapper)
        op_cls = modules["psido"].OperatorMatrix
        original = op_cls.singular_values
        self._patched.append((op_cls, "singular_values", original))
        op_cls.singular_values = self._wrap(original, "psido", "singular_values", self._count_svd)

    def uninstall(self) -> None:
        for namespace, name, obj in reversed(self._patched):
            setattr(namespace, name, obj)
        self._patched.clear()

    def _wrap(self, fn, layer: str, name: str, hook):
        key = self._key_index.setdefault((layer, name), len(self.keys))
        if key == len(self.keys):
            self.keys.append((layer, name))
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.span_key)
            tracer.span_key.append(key)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_end.append(0.0)
            tracer._stack.append(index)
            start = clock()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.span_end[index] = end
                tracer._stack.pop()
            if hook is not None:
                hook(args, kwargs, result, end - start)
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- counters -----------------------------------------------------------

    def _count_translations(self, args, kwargs, result, seconds) -> None:
        field = _arg(args, kwargs, 0, "field")
        shifts = _arg(args, kwargs, 2, "shifts")
        elements = int(shifts.shape[0]) * int(field.spec.num_points)
        c = self.counts
        c["kato.translations"] += int(shifts.shape[0])
        c["kato.elements"] += elements
        c["kato.bytes_computed"] += elements * BYTES_PER_ELEMENT
        c["kato.stack_mb_max"] = max(c["kato.stack_mb_max"], elements * BYTES_PER_ELEMENT / 1e6)

    def _count_contour(self, args, kwargs, result, seconds) -> None:
        d = len(_arg(args, kwargs, 0, "fields"))
        npts = int(result.field.spec.num_points)
        n = result.nodes_used // 2
        c = self.counts
        c["calculus.contour_evals"] += (n**d + (2 * n) ** d) * npts
        c["calculus.contour_useful"] += (2 * n) ** d * npts
        c["calculus.halvings"] += int(result.halvings)

    def _count_svd(self, args, kwargs, result, seconds) -> None:
        op = args[0]
        if op in self._seen_ops:
            return
        self._seen_ops.add(op)
        rows, cols = op.entries.shape
        c = self.counts
        c["psido.svd.calls"] += 1
        c["psido.svd.s"] += seconds
        c["psido.svd.max_dim"] = max(c["psido.svd.max_dim"], rows, cols)
        c["psido.svd.elements"] += rows * cols

    # -- reduction ----------------------------------------------------------

    def reduce(self) -> dict:
        """Per-function calls, inclusive and self seconds; per-layer self
        seconds; counts and cache hit ratios since `install()`."""
        key = np.frombuffer(self.span_key, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        enclosed = parent >= 0
        child = np.bincount(parent[enclosed], weights=duration[enclosed], minlength=key.size)
        own = duration - child
        nkeys = len(self.keys)
        calls = np.bincount(key, minlength=nkeys)
        inclusive = np.bincount(key, weights=duration, minlength=nkeys)
        exclusive = np.bincount(key, weights=own, minlength=nkeys)
        functions = {}
        layers = {layer: 0.0 for layer in LAYERS}
        for k, (layer, name) in enumerate(self.keys):
            functions[f"{layer}.{name}"] = {
                "calls": int(calls[k]),
                "s": float(inclusive[k]),
                "self_s": float(exclusive[k]),
            }
            layers[layer] += float(exclusive[k])
        caches = {}
        for label, cached in self._caches.items():
            info = cached.cache_info()
            hits = info.hits - self._cache_start[label][0]
            misses = info.misses - self._cache_start[label][1]
            caches[label] = {"hits": hits, "misses": misses}
        return {"functions": functions, "layers": layers, "counts": dict(self.counts), "caches": caches}
