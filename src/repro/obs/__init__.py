"""Unified observability: nested spans, counters, benchmark artifacts.

This package is the single place the codebase measures itself (paper
§7.4: production cross-modal pipelines live or die by monitoring).  It
has two halves:

* :mod:`repro.obs.trace` — spans/counters/gauges/histograms with JSON
  export, owned by a :class:`Tracer`;
* :mod:`repro.obs.bench` — ``BENCH_<name>.json`` artifacts the
  benchmark suite emits so perf has a machine-readable trajectory.

Instrumented call sites use the module-level helpers below, which are
**no-ops unless a tracer has been activated** via :func:`enable` — the
disabled fast path is one global read, so hot loops are effectively
free to instrument.  :func:`timed` is the exception: it always measures
wall-clock (replacing the repo's former ad-hoc ``time.perf_counter()``
sites) and *additionally* records a span when tracing is on.

Typical use::

    import repro.obs as obs

    tracer = obs.enable()            # activate a fresh default tracer
    with obs.span("featurize", corpus="text") as sp:
        sp.add_counter("rows", n)
        sp.observe("latency_s/topic_model", dt)
    tracer.write_json("trace.json")
    obs.disable()
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs import registry as _registry
from repro.obs.bench import BenchArtifact
from repro.obs.registry import current, disable, enable, enabled
from repro.obs.trace import (
    DEFAULT_BUCKETS,
    NOOP_SPAN,
    Histogram,
    Span,
    Tracer,
    format_trace,
)

__all__ = [
    "BenchArtifact",
    "DEFAULT_BUCKETS",
    "Histogram",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "add_counter",
    "current",
    "disable",
    "enable",
    "enabled",
    "format_trace",
    "observe",
    "set_gauge",
    "span",
    "timed",
]


def span(name: str, **attrs: Any):
    """A span on the active tracer, or the shared no-op when disabled."""
    tracer = _registry._active
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def add_counter(name: str, value: float = 1) -> None:
    tracer = _registry._active
    if tracer is not None:
        tracer.add_counter(name, value)


def set_gauge(name: str, value: Any) -> None:
    tracer = _registry._active
    if tracer is not None:
        tracer.set_gauge(name, value)


def observe(name: str, value: float, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
    tracer = _registry._active
    if tracer is not None:
        tracer.observe(name, value, bounds)


class _Timed:
    """Always-on wall-clock measurement, span-recording when traced.

    ``duration`` is valid after exit; ``span`` is the live span (or the
    no-op) inside the block, so call sites can attach counters without
    checking whether tracing is active.
    """

    __slots__ = ("_name", "_attrs", "_cm", "_t0", "span", "duration")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self._name = name
        self._attrs = attrs
        self.duration = 0.0

    def __enter__(self) -> "_Timed":
        self._cm = span(self._name, **self._attrs)
        self.span = self._cm.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.duration = time.perf_counter() - self._t0
        self._cm.__exit__(*exc)
        return False


def timed(name: str, **attrs: Any) -> _Timed:
    """Measure a block's wall-clock whether or not tracing is active."""
    return _Timed(name, attrs)
