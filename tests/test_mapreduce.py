"""Tests for repro.dataflow.mapreduce — the ordered per-record map."""

import pytest

from repro.core.exceptions import RecordError
from repro.dataflow.mapreduce import run_map
from repro.exec import ExecutorConfig


def test_run_map_order_preserved():
    records = list(range(100))
    assert run_map(records, lambda r: r * 2) == [r * 2 for r in records]


def test_run_map_threaded_order_preserved():
    records = list(range(100))
    assert run_map(records, lambda r: r + 1, executor=ExecutorConfig("thread", 4)) == [
        r + 1 for r in records
    ]


def test_run_map_raises_with_context():
    def fn(r):
        if r == 3:
            raise KeyError("boom")
        return r

    with pytest.raises(RecordError) as info:
        run_map(list(range(6)), fn)
    assert info.value.index == 3
    assert info.value.record == 3
    assert "boom" in str(info.value)
    assert isinstance(info.value.__cause__, KeyError)


# ----------------------------------------------------------------------
# counter aggregation: no lost increments under concurrency
# ----------------------------------------------------------------------
def test_span_counters_are_atomic_under_thread_hammer():
    """Regression: Span.add_counter used a non-atomic read-modify-write,
    so worker threads funnelling through the module-level
    ``obs.add_counter`` (which lands on the shared tracer root span)
    could lose increments.  Hammer one counter from many threads and
    demand the exact total."""
    import threading

    import repro.obs as obs
    from repro.obs import Tracer

    tracer = obs.enable(Tracer("race"))
    try:
        n_threads, per_thread = 8, 2000

        def hammer():
            for _ in range(per_thread):
                obs.add_counter("race.hits")
                obs.observe("race.latency", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        totals = tracer.total_counters()
        assert totals["race.hits"] == n_threads * per_thread
        hist = tracer.root.histograms["race.latency"]
        assert hist.count == n_threads * per_thread
    finally:
        obs.disable()
