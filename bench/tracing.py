"""Spans around the public functions of each chevbasis layer.

The wrappers live here, not in the package: :class:`Tracer` replaces a
function in every ``chevbasis`` module namespace that binds it, so calls
from other layers (``cli`` and ``serialize`` import ``generate_roots``
directly, ``verify`` imports ``build_inductive``) become child spans.
Spans are kept in memory and written out by the caller.  With
``memory=True`` each span also records its ``tracemalloc`` peak above the
traced memory at entry; that pass's timings are inflated and discarded.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable


def _pairs(table: Any) -> int:
    return len(table.n)


def _roots(rs: Any) -> int:
    return len(rs.roots)


def _checked(report: Any) -> int:
    return report.checked


COUNTERS: dict[str, Callable[[Any], int]] = {"pairs": _pairs, "roots": _roots, "checked": _checked, "bytes": len}


@dataclass(frozen=True)
class Layer:
    """A traced function and the per-layer metrics reported for it."""

    name: str
    attr: str
    metrics: tuple[str, ...]

    @property
    def module(self) -> str:
        return "chevbasis." + self.name.split(".")[0]

    @property
    def count(self) -> str | None:
        return next((m for m in self.metrics if m in COUNTERS), None)


LAYERS = (
    Layer("closedform.closed_table", "closed_table", ("s", "calls", "pairs", "peak_mb")),
    Layer("folding.fold", "fold", ("s", "calls")),
    Layer("folding.folded_table", "folded_table", ("s", "calls", "pairs", "peak_mb")),
    Layer("verify.jacobi_sweep", "jacobi_sweep", ("s", "checked", "peak_mb")),
    Layer("verify.chevalley_audit", "chevalley_audit", ("s", "checked")),
    Layer("verify.differential", "differential", ("s", "checked")),
    Layer("bracket.build_inductive", "build_inductive", ("s", "calls", "pairs", "peak_mb")),
    Layer("verify.sl_n_oracle", "sl_n_oracle", ("s", "checked")),
    Layer("roots.generate_roots", "generate_roots", ("s", "calls", "roots")),
    Layer("cartan.build_cartan", "build_cartan", ("s", "calls")),
    Layer("serialize.document_from_table", "document_from_table", ("s",)),
    Layer("serialize.to_json_bytes", "to_json_bytes", ("s", "bytes")),
    Layer("serialize.csv_export", "csv_export", ("s", "bytes")),
    Layer("serialize.from_json_bytes", "from_json_bytes", ("s",)),
    Layer("serialize.table_from_document", "table_from_document", ("s", "peak_mb")),
    Layer("cli.gen", "_cmd_gen", ("self_s", "calls")),
    Layer("cli.verify", "_cmd_verify", ("self_s", "calls")),
)

OVERHEAD = "trace.overhead_s"

UNITS = {"s": "s", "self_s": "s", "calls": "count", "pairs": "count", "roots": "count",
         "checked": "count", "bytes": "bytes", "peak_mb": "MB"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {f"{layer.name}.{m}": UNITS[m] for layer in LAYERS for m in layer.metrics}
    units[OVERHEAD] = "s"
    return units


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    count: int | None = None
    mem_base: int = 0
    peak: int = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def peak_mb(self) -> float:
        return (self.peak - self.mem_base) / 2**20

    def to_json(self) -> dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "name": self.name, "start": self.start,
                "end": self.end, "self_s": self.self_s, "count": self.count, "peak_mb": self.peak_mb}


@dataclass
class Tracer:
    """Installs the layer wrappers and collects one list of spans per pass."""

    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == "chevbasis" or name.startswith("chevbasis.")]
        for layer in LAYERS:
            original = getattr(sys.modules[layer.module], layer.attr)
            wrapper = self._wrap(layer, original)
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        counter = COUNTERS.get(layer.count)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.count = counter(result)
            return result

        return wrapper

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, 0.0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.mem_base = span.peak = current
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, span.peak)


def counts(spans: list[Span]) -> dict[str, int]:
    """Calls and work counts per layer; these must repeat exactly."""
    out: dict[str, int] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.name == layer.name]
        out[f"{layer.name}.calls"] = len(mine)
        if layer.count:
            out[f"{layer.name}.{layer.count}"] = sum(s.count or 0 for s in mine)
    return out


def layer_metrics(timed: list[Span], memory: list[Span], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics: self times from the timed pass, peaks from the memory pass."""
    all_counts = counts(timed)
    values: dict[str, float] = {}
    for layer in LAYERS:
        for metric in layer.metrics:
            key = f"{layer.name}.{metric}"
            if metric in ("s", "self_s"):
                values[key] = sum(s.self_s for s in timed if s.name == layer.name)
            elif metric == "peak_mb":
                values[key] = max((s.peak_mb for s in memory if s.name == layer.name), default=0.0)
            else:
                values[key] = all_counts[f"{layer.name}.{metric}"]
    values[OVERHEAD] = overhead_s
    return values
