"""Per-layer self time and call counts, measured from outside densecode.

A layer is one module of the package. `LayerTracer.install` replaces every
public module-level function of each layer, in every module namespace that
binds it (the defining module, the modules that imported it by name, and the
package), with a wrapper that records a span; `uninstall` puts the original
objects back. A layer's self time is the time of its spans minus the time of
densecode spans nested inside them. Nothing in densecode is edited.
"""

from __future__ import annotations

import functools
import importlib
import types
from time import perf_counter

LAYERS = (
    "tensor_core",
    "gates",
    "channel",
    "discrimination",
    "infometrics",
    "protocol_sim",
    "qkd",
    "cli",
)


class LayerTracer:
    """Spans at every public function boundary of the package's layers."""

    def __init__(self, package):
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        layer_of = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    layer_of[obj] = layer
        self._bindings = [
            (namespace, name, obj)
            for namespace in (package, *modules.values())
            for name, obj in vars(namespace).items()
            if isinstance(obj, types.FunctionType) and obj in layer_of
        ]
        self._open = []
        apply = modules["tensor_core"].apply
        self._wrappers = {fn: self._wrap(fn, layer, fn is apply) for fn, layer in layer_of.items()}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.dense_bytes = 0

    def install(self) -> None:
        for namespace, name, fn in self._bindings:
            setattr(namespace, name, self._wrappers[fn])

    def uninstall(self) -> None:
        for namespace, name, fn in self._bindings:
            setattr(namespace, name, fn)

    def _wrap(self, fn, layer: str, counts_operator: bool):
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counts_operator:
                # Computed bytes of the dense Operator entries passed to apply.
                self.dense_bytes += (args[0] if args else kwargs["u"]).entries.nbytes
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[layer] += elapsed - open_spans.pop()
                self.calls[layer] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return span
