"""Span recorder for the traced run, installed from outside the package.

``Tracer.install`` replaces every public function in the namespace of each
layer module, including the cross-layer names a module imports (for example
``engine.cubic_root`` or each module's ``validate``), with a wrapper that
records a span. Library code resolves those names through its module globals
at call time, so nested calls are seen without touching ``src/``.
``Tracer.uninstall`` puts the original objects back.

A span is (name, layer, start, end, parent, op, failed). Its layer is the
module that defines the function, so ``engine.cubic_root`` records a
``special`` span whose parent is the calling ``engine`` span. Spans stay in
memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from types import ModuleType

LAYERS = ("cli", "model", "special", "engine", "systems", "ho", "oracles")
CLOCK = time.monotonic  # CLOCK_MONOTONIC: spans from CLI children line up with the parent's


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_modules() -> list[ModuleType]:
    return [importlib.import_module(f"auxfield.{layer}") for layer in LAYERS]


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    head, _, layer = module.partition(".")
    return layer if head == "auxfield" and layer in LAYERS else None


class Tracer:
    """Collects nested spans on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, layer: str) -> Span:
        span = Span(name, layer, CLOCK(), 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = CLOCK()
        self._stack.pop()

    def add(self, span: Span) -> int:
        """Append a finished span recorded elsewhere (e.g. in a child process)."""
        self.spans.append(span)
        return len(self.spans) - 1

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = begin(name, layer)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                end(span)

        traced.__bench_traced__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self, modules: list[ModuleType]) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                self._installed.append((module, name, obj))
                setattr(module, name, self.wrap(obj, layer))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()


def traced_names(modules: list[ModuleType]) -> list[str]:
    """Module attributes that currently hold a span wrapper."""
    return [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if getattr(obj, "__bench_traced__", False)
    ]


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [span.duration - _covered(kids) for span, kids in zip(spans, children)]


def layer_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, busy_s (union of the layer's spans), self_s and fail per layer."""
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        mine = [i for i, span in enumerate(spans) if span.layer == layer]
        out[layer] = {
            "calls": len(mine),
            "busy_s": _covered([(spans[i].start, spans[i].end) for i in mine]),
            "self_s": sum((selfs[i] for i in mine), 0.0),
            "fail": sum(spans[i].failed for i in mine),
        }
    return out
