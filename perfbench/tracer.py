"""Span tracing of the package's layers, attached from outside.

The layers are the package modules.  ``instrument`` wraps each public
function a layer module defines, plus the methods named in
``METHODS``, and patches every name that refers to the original:
modules bind their dependencies with ``from .x import f``, so patching
only the defining module would miss the callers.  ``restore`` puts the
originals back and reports any attribute that is not the original
object again.

A span records its name, start, end, parent span and request (one CLI
invocation).  Spans stay in memory; the caller writes them out at the
end.  Self time of a span is its duration minus its direct children's.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("modesum", "expansion", "laurent", "stress", "minkowski", "precision")

# to_mpf is a per-number type coercion; a span around it would time the
# tracer rather than the layer.
SKIP = {("precision", "to_mpf")}

METHODS = {
    "stress": {"StressDecomposition": ("tensor",)},
    # __post_init__ is where each LorentzTransform re-validates the metric.
    "minkowski": {"LorentzTransform": ("__post_init__", "apply", "compose", "inverse")},
}


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.modes = 0
        self.request = 0
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((span_id, parent, self.request, name, start, end))
            if name == "modesum.energy_mode_sum":
                self.modes += result.n_max
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def _package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def instrument(tracer: Tracer, package: str = "casimir_cutoff") -> list[tuple]:
    """Patch every binding of each traced callable; returns what to restore."""
    modules = _package_modules(package)
    targets = []  # (span name, original, [(owner, attribute)])
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or (layer, attr) in SKIP
                    or not inspect.isfunction(obj) or obj.__module__ != mod.__name__):
                continue
            owners = [(m, k) for m in modules for k, v in vars(m).items() if v is obj]
            targets.append((f"{layer}.{attr}", obj, owners))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            # A method a later version drops is skipped; its counts read 0.
            for meth in (m for m in methods if m in vars(cls)):
                targets.append(
                    (f"{layer}.{cls_name}.{meth}", vars(cls)[meth], [(cls, meth)])
                )
    patches = []
    for name, original, owners in targets:
        wrapped = tracer.wrap(name, original)
        for owner, attr in owners:
            setattr(owner, attr, wrapped)
            patches.append((owner, attr, original))
    return patches


def restore(patches: list[tuple]) -> list[str]:
    """Undo ``instrument``; returns the attributes that did not come back."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patches if vars(owner).get(attr) is not original]
