"""Tracing and metrics primitives: spans, counters, gauges, histograms.

A :class:`Span` is one timed region of work.  Spans nest: entering a
span while another is active on the same thread makes it a child, so a
traced pipeline run exports as a tree (featurize -> featurize_corpus ->
mapreduce -> partitions).  Each span carries three metric families:

* **counters** — monotonically accumulated values (``rows``,
  ``records_mapped``, ``degraded/<service>``);
* **gauges** — last-write-wins observations (``n_edges``,
  ``n_iterations``);
* **histograms** — fixed-bucket distributions of per-call observations
  (``latency_s/<service>``).

A :class:`Tracer` owns one span tree and a per-thread span stack.
Worker threads (e.g. MapReduce partitions) that open spans without an
active parent on their own thread attach to the tracer root, so no
measurement is lost to thread scheduling.  Everything exports to plain
JSON-compatible dicts — no third-party dependencies.

Disabled-by-default cost model: instrumented call sites go through the
module-level helpers in :mod:`repro.obs`, which return the shared
:data:`NOOP_SPAN` singleton when no tracer is active.  The disabled
path is a single global read plus an identity return, so hot loops pay
effectively nothing.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from typing import Any

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "format_trace",
]

#: Default histogram bucket upper bounds (seconds-flavoured: 10us .. 10s).
DEFAULT_BUCKETS: tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Histogram:
    """Fixed-bucket histogram of numeric observations.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything above the last edge.  Tracks count/total/min/max
    so means survive export even when bucket resolution is coarse.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100]).

        Linear interpolation over the fractional rank
        ``q/100 * (count - 1)``, located in bucket space and mapped to
        values across each bucket's edge range clamped to the observed
        ``[min, max]`` — so the estimate never leaves the observed
        range, an empty histogram reports 0.0, a single sample reports
        itself exactly, and two samples give the exact interpolated
        quantiles (e.g. ``percentile(50)`` is their midpoint) whenever
        they share a bucket.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        if self.count == 1 or self.min == self.max:
            return self.min
        rank = (q / 100.0) * (self.count - 1)
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            first, last = cumulative, cumulative + n - 1
            if rank <= last:
                lower = self.bounds[i - 1] if i > 0 else self.min
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lower, self.min)
                hi = max(min(upper, self.max), lo)
                # rank can land in the empty gap between the previous
                # bucket's last sample and this bucket's first (rank <
                # first); clamp so the estimate stays at this bucket's
                # floor instead of extrapolating below the observed range
                frac = (rank - first) / (n - 1) if n > 1 else 0.0
                frac = min(1.0, max(0.0, frac))
                return lo + frac * (hi - lo)
            cumulative += n
        return self.max  # pragma: no cover - rank <= count-1 always lands

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict[str, Any]:
        buckets: dict[str, int] = {}
        for bound, n in zip(self.bounds, self.bucket_counts):
            buckets[f"le_{bound:g}"] = n
        buckets[f"gt_{self.bounds[-1]:g}"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": buckets,
        }


class Span:
    """One timed region with attached counters, gauges, and histograms.

    Metric mutation is thread-safe: a span shared across worker threads
    (the tracer root is, via the module-level ``obs.add_counter`` /
    ``obs.observe`` helpers) serializes its read-modify-write updates
    through a per-span lock, so no increment is ever lost to a race.
    """

    __slots__ = (
        "name",
        "attrs",
        "children",
        "counters",
        "gauges",
        "histograms",
        "start_wall",
        "_start",
        "_end",
        "_lock",
    )

    def __init__(self, name: str, attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, Any] = {}
        self.histograms: dict[str, Histogram] = {}
        self.start_wall = time.time()
        self._start = time.perf_counter()
        self._end: float | None = None
        self._lock = threading.Lock()

    # -- metrics -------------------------------------------------------
    def add_counter(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: Any) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(bounds)
            hist.record(value)

    # -- timing --------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._end is not None

    @property
    def duration(self) -> float:
        end = self._end if self._end is not None else time.perf_counter()
        return end - self._start

    def finish(self) -> None:
        if self._end is None:
            self._end = time.perf_counter()

    # -- export --------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"name": self.name, "duration_s": self.duration}
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.counters:
            d["counters"] = dict(self.counters)
        if self.gauges:
            d["gauges"] = dict(self.gauges)
        if self.histograms:
            d["histograms"] = {k: h.to_dict() for k, h in self.histograms.items()}
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, duration={self.duration:.4f}s)"


class _NoopSpan:
    """Shared do-nothing span: the disabled-instrumentation fast path.

    Supports the full :class:`Span` metric/context API so call sites
    never branch on whether tracing is active.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def add_counter(self, name: str, value: float = 1) -> None:
        pass

    def set_gauge(self, name: str, value: Any) -> None:
        pass

    def observe(
        self, name: str, value: float, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        pass

    @property
    def duration(self) -> float:
        return 0.0


#: Singleton returned by :func:`repro.obs.span` when tracing is off.
NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager that opens a child span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self._tracer._open(self._name, self._attrs)
        return self.span

    def __exit__(self, *exc: object) -> bool:
        assert self.span is not None
        self._tracer._close(self.span)
        return False


class Tracer:
    """A span tree plus per-thread span stacks.

    The root span is created eagerly so metrics recorded outside any
    explicit span (or on worker threads with no active parent) still
    have a home.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.root = Span("root")
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span stack ----------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Span:
        stack = self._stack()
        return stack[-1] if stack else self.root

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        return _SpanContext(self, name, attrs)

    def _open(self, name: str, attrs: dict[str, Any]) -> Span:
        span = Span(name, attrs)
        parent = self.current_span()
        with self._lock:
            parent.children.append(span)
        self._stack().append(span)
        return span

    def _close(self, span: Span) -> None:
        span.finish()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- metric conveniences (current span) ----------------------------
    def add_counter(self, name: str, value: float = 1) -> None:
        self.current_span().add_counter(name, value)

    def set_gauge(self, name: str, value: Any) -> None:
        self.current_span().set_gauge(name, value)

    def observe(
        self,
        name: str,
        value: float,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.current_span().observe(name, value, bounds)

    # -- queries -------------------------------------------------------
    def find_spans(self, name: str) -> list[Span]:
        return [s for s in self.root.walk() if s.name == name]

    def total_counters(self) -> dict[str, float]:
        """Counters summed over the whole span tree."""
        totals: dict[str, float] = {}
        for span in self.root.walk():
            for key, value in span.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- export --------------------------------------------------------
    def export(self) -> dict[str, Any]:
        self.root.finish()
        return {
            "schema_version": 1,
            "kind": "trace",
            "tracer": self.name,
            "created_unix": self.root.start_wall,
            "total_counters": self.total_counters(),
            "trace": self.root.to_dict(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.export(), indent=indent, sort_keys=False)

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return path


def _format_span(span: Span, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    parts = [f"{pad}{span.name:<{max(36 - len(pad), 8)}} {span.duration * 1000:>10.1f} ms"]
    if span.attrs:
        parts.append(" ".join(f"{k}={v}" for k, v in span.attrs.items()))
    lines.append("  ".join(parts))
    for key in sorted(span.counters):
        lines.append(f"{pad}  · {key} = {span.counters[key]:g}")
    for key in sorted(span.gauges):
        lines.append(f"{pad}  · {key} := {span.gauges[key]}")
    for key in sorted(span.histograms):
        hist = span.histograms[key]
        lines.append(
            f"{pad}  · {key}: n={hist.count} mean={hist.mean:.2e} "
            f"max={hist.max if hist.count else 0:.2e}"
        )
    for child in span.children:
        _format_span(child, depth + 1, lines)


def format_trace(tracer: Tracer) -> str:
    """Human-readable indented rendering of a tracer's span tree."""
    lines = [f"trace {tracer.name!r} — {tracer.root.duration:.2f}s total"]
    for child in tracer.root.children:
        _format_span(child, 0, lines)
    totals = tracer.total_counters()
    if totals:
        lines.append("totals:")
        for key in sorted(totals):
            lines.append(f"  {key} = {totals[key]:g}")
    return "\n".join(lines)
