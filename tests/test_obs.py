"""Tests for repro.obs — spans, counters, bench artifacts, activation."""

import json
import threading

import pytest

import repro.obs as obs
from repro.dataflow.mapreduce import run_map
from repro.obs.trace import NOOP_SPAN, Histogram, Tracer


@pytest.fixture(autouse=True)
def _tracing_disabled():
    """Every test starts and ends with tracing disabled."""
    obs.disable()
    yield
    obs.disable()


# ---------------------------------------------------------------------------
# spans and nesting
# ---------------------------------------------------------------------------


def test_span_nesting_builds_a_tree():
    tracer = obs.enable(Tracer("t"))
    with obs.span("outer", task="CT1"):
        with obs.span("inner") as sp:
            sp.add_counter("rows", 5)
        with obs.span("inner"):
            pass
    outer = tracer.find_spans("outer")
    assert len(outer) == 1
    assert [c.name for c in outer[0].children] == ["inner", "inner"]
    assert outer[0].attrs == {"task": "CT1"}
    assert outer[0].children[0].counters == {"rows": 5}


def test_span_durations_are_ordered():
    tracer = obs.enable(Tracer("t"))
    with obs.span("outer"):
        with obs.span("inner"):
            pass
    outer = tracer.find_spans("outer")[0]
    inner = tracer.find_spans("inner")[0]
    assert outer.finished and inner.finished
    assert outer.duration >= inner.duration >= 0.0


def test_worker_thread_spans_attach_to_root():
    tracer = obs.enable(Tracer("t"))

    def work():
        with obs.span("worker") as sp:
            sp.add_counter("done")

    threads = [threading.Thread(target=work) for _ in range(3)]
    with obs.span("main"):
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert len(tracer.find_spans("worker")) == 3
    # worker spans hang off the root, not the main thread's span
    assert all(c.name in ("main", "worker") for c in tracer.root.children)
    assert tracer.total_counters()["done"] == 3


# ---------------------------------------------------------------------------
# counters, gauges, histograms
# ---------------------------------------------------------------------------


def test_total_counters_aggregate_across_the_tree():
    tracer = obs.enable(Tracer("t"))
    with obs.span("a") as sp:
        sp.add_counter("rows", 2)
        with obs.span("b") as inner:
            inner.add_counter("rows", 3)
            inner.add_counter("cells", 10)
    assert tracer.total_counters() == {"rows": 5, "cells": 10}


def test_module_helpers_attach_to_current_span():
    tracer = obs.enable(Tracer("t"))
    with obs.span("s"):
        obs.add_counter("n", 2)
        obs.set_gauge("k", "v")
        obs.observe("lat", 0.05)
    sp = tracer.find_spans("s")[0]
    assert sp.counters == {"n": 2}
    assert sp.gauges == {"k": "v"}
    assert sp.histograms["lat"].count == 1


def test_histogram_buckets_and_stats():
    h = Histogram(bounds=(0.1, 1.0))
    for v in (0.05, 0.5, 0.5, 2.0):
        h.record(v)
    assert h.count == 4
    assert h.bucket_counts == [1, 2, 1]
    assert h.mean == pytest.approx((0.05 + 0.5 + 0.5 + 2.0) / 4)
    assert h.min == 0.05 and h.max == 2.0
    d = h.to_dict()
    assert d["buckets"] == {"le_0.1": 1, "le_1": 2, "gt_1": 1}


def test_histogram_merge():
    a, b = Histogram(bounds=(1.0,)), Histogram(bounds=(1.0,))
    a.record(0.5)
    b.record(2.0)
    a.merge(b)
    assert a.count == 2 and a.bucket_counts == [1, 1]
    with pytest.raises(ValueError):
        a.merge(Histogram(bounds=(5.0,)))


# ---------------------------------------------------------------------------
# disabled fast path
# ---------------------------------------------------------------------------


def test_disabled_span_is_the_noop_singleton():
    assert not obs.enabled()
    assert obs.span("anything", k=1) is NOOP_SPAN
    # the metric helpers are harmless no-ops too
    obs.add_counter("x")
    obs.set_gauge("y", 1)
    obs.observe("z", 0.1)
    with obs.span("nested") as sp:
        sp.add_counter("rows", 1)
        assert sp.duration == 0.0


def test_timed_measures_even_when_disabled():
    with obs.timed("work") as t:
        sum(range(1000))
    assert t.duration > 0.0
    assert t.span is NOOP_SPAN


def test_timed_records_a_span_when_enabled():
    tracer = obs.enable(Tracer("t"))
    with obs.timed("work", stage="x") as t:
        pass
    assert t.duration >= 0.0
    spans = tracer.find_spans("work")
    assert len(spans) == 1
    assert spans[0].attrs == {"stage": "x"}


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------


def test_enable_disable_roundtrip():
    assert obs.current() is None
    tracer = obs.enable()
    assert obs.enabled()
    assert obs.current() is tracer
    obs.disable()
    assert not obs.enabled()
    assert obs.current() is None


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_json_export_round_trip(tmp_path):
    tracer = obs.enable(Tracer("roundtrip"))
    with obs.span("stage", task="CT1") as sp:
        sp.add_counter("rows", 7)
        sp.set_gauge("converged", True)
        sp.observe("lat", 0.02)
    path = tracer.write_json(str(tmp_path / "trace.json"))
    data = json.loads(open(path, encoding="utf-8").read())
    assert data["schema_version"] == 1
    assert data["kind"] == "trace"
    assert data["tracer"] == "roundtrip"
    assert data["total_counters"] == {"rows": 7}
    stage = data["trace"]["children"][0]
    assert stage["name"] == "stage"
    assert stage["attrs"] == {"task": "CT1"}
    assert stage["counters"] == {"rows": 7}
    assert stage["gauges"] == {"converged": True}
    assert stage["histograms"]["lat"]["count"] == 1
    assert stage["duration_s"] >= 0.0


def test_format_trace_renders_the_tree():
    tracer = obs.enable(Tracer("t"))
    with obs.span("outer") as sp:
        sp.add_counter("rows", 3)
        with obs.span("inner"):
            pass
    text = obs.format_trace(tracer)
    assert "outer" in text and "inner" in text
    assert "rows = 3" in text
    assert text.index("outer") < text.index("inner")


def test_bench_artifact_schema(tmp_path):
    art = obs.BenchArtifact(name="demo", scale=0.4, seed=1)
    art.time("wall_seconds", 1.25)
    art.record(auprc=0.9, n_tasks=5)
    path = art.write(str(tmp_path))
    assert path.endswith("BENCH_demo.json")
    data = json.loads(open(path, encoding="utf-8").read())
    assert data["schema_version"] == 1
    assert data["kind"] == "bench"
    assert data["name"] == "demo"
    assert data["timings"] == {"wall_seconds": 1.25}
    assert data["metrics"] == {"auprc": 0.9, "n_tasks": 5}


# ---------------------------------------------------------------------------
# integration with instrumented subsystems
# ---------------------------------------------------------------------------


def test_run_map_emits_a_map_span():
    tracer = obs.enable(Tracer("t"))
    result = run_map(["a b a", "b c", "a"], str.split)
    assert result == [["a", "b", "a"], ["b", "c"], ["a"]]
    (span,) = tracer.find_spans("mapreduce.map")
    assert span.attrs["n_records"] == 3
    assert span.counters == {"records_mapped": 3}
    assert tracer.total_counters()["records_mapped"] == 3


def test_untraced_mapreduce_result_is_identical():
    lines = ["a b a", "b c", "a"]
    untraced = run_map(lines, str.split)
    obs.enable(Tracer("t"))
    traced = run_map(lines, str.split)
    assert untraced == traced


def test_span_tree_survives_exceptions():
    tracer = obs.enable(Tracer("t"))
    with pytest.raises(RuntimeError):
        with obs.span("outer"):
            with obs.span("inner"):
                raise RuntimeError("boom")
    # both spans closed despite the exception; a new span nests at top level
    with obs.span("after"):
        pass
    assert tracer.find_spans("outer")[0].finished
    assert tracer.find_spans("inner")[0].finished
    assert [c.name for c in tracer.root.children] == ["outer", "after"]


# ---------------------------------------------------------------------------
# histogram percentiles (the serving latency report is built on these)
# ---------------------------------------------------------------------------
def test_percentile_empty_histogram_is_zero():
    h = Histogram(bounds=(1.0,))
    assert h.percentile(0.0) == 0.0
    assert h.percentile(50.0) == 0.0
    assert h.percentile(100.0) == 0.0


def test_percentile_single_sample_reports_itself():
    h = Histogram(bounds=(1.0, 10.0))
    h.record(3.7)
    for q in (0.0, 50.0, 99.0, 100.0):
        assert h.percentile(q) == 3.7


def test_percentile_two_samples_interpolate_in_shared_bucket():
    h = Histogram(bounds=(10.0,))
    h.record(2.0)
    h.record(4.0)
    assert h.percentile(0.0) == 2.0
    assert h.percentile(50.0) == pytest.approx(3.0)
    assert h.percentile(100.0) == 4.0


def test_percentile_rejects_out_of_range_q():
    h = Histogram(bounds=(1.0,))
    h.record(0.5)
    with pytest.raises(ValueError):
        h.percentile(-0.1)
    with pytest.raises(ValueError):
        h.percentile(100.1)


def test_percentile_identical_samples_exact():
    h = Histogram(bounds=(1.0, 2.0))
    for _ in range(5):
        h.record(1.5)
    assert h.percentile(50.0) == 1.5
    assert h.percentile(99.0) == 1.5


def test_percentile_monotone_and_clamped_to_observed_range():
    h = Histogram(bounds=(0.01, 0.1, 1.0, 10.0))
    values = [0.005, 0.02, 0.03, 0.5, 0.7, 2.0, 2.0, 4.0, 9.0]
    for v in values:
        h.record(v)
    grid = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0]
    estimates = [h.percentile(q) for q in grid]
    assert estimates == sorted(estimates)
    assert estimates[0] == min(values)
    assert estimates[-1] == max(values)
    for e in estimates:
        assert min(values) <= e <= max(values)


def test_percentile_after_merge_sees_both_populations():
    a, b = Histogram(bounds=(10.0,)), Histogram(bounds=(10.0,))
    a.record(1.0)
    b.record(9.0)
    a.merge(b)
    assert a.percentile(0.0) == 1.0
    assert a.percentile(100.0) == 9.0
    assert 1.0 < a.percentile(50.0) < 9.0
