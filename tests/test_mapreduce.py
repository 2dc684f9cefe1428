"""Tests for repro.dataflow.mapreduce — the local MapReduce engine."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.dataflow.mapreduce import MapReduceJob, run_map, run_mapreduce
from repro.exec import ExecutorConfig


def word_count_mapper(line):
    for word in line.split():
        yield word, 1


def sum_reducer(key, values):
    return sum(values)


def test_word_count():
    lines = ["a b a", "b c", "a"]
    result = run_mapreduce(lines, word_count_mapper, sum_reducer)
    assert result == {"a": 3, "b": 2, "c": 1}


def test_empty_input():
    assert run_mapreduce([], word_count_mapper, sum_reducer) == {}


def test_combiner_preserves_result():
    lines = ["x y x"] * 10
    plain = run_mapreduce(lines, word_count_mapper, sum_reducer)
    combined = run_mapreduce(
        lines,
        word_count_mapper,
        sum_reducer,
        combiner=lambda key, values: [sum(values)],
    )
    assert plain == combined


def test_threaded_matches_sequential():
    lines = [f"w{i % 7} w{i % 3}" for i in range(200)]
    seq = run_mapreduce(lines, word_count_mapper, sum_reducer)
    par = run_mapreduce(lines, word_count_mapper, sum_reducer, executor=ExecutorConfig("thread", 4))
    assert seq == par


def test_partition_count_does_not_change_result():
    lines = [f"w{i % 5}" for i in range(50)]
    a = run_mapreduce(lines, word_count_mapper, sum_reducer, n_partitions=1)
    b = run_mapreduce(lines, word_count_mapper, sum_reducer, n_partitions=13)
    assert a == b


def test_reducer_sees_deterministic_value_order():
    """Values arrive in (partition, input) order regardless of threads."""
    records = list(range(40))

    def mapper(r):
        yield "k", r

    def collect(key, values):
        return list(values)

    a = run_mapreduce(records, mapper, collect, n_partitions=4)
    b = run_mapreduce(
        records, mapper, collect, n_partitions=4, executor=ExecutorConfig("thread", 4)
    )
    assert a == b


def test_counters():
    job = MapReduceJob(mapper=word_count_mapper, reducer=sum_reducer)
    job.run(["a b", "c"])
    assert job.counters["input_records"] == 2
    assert job.counters["distinct_keys"] == 3


def test_invalid_config():
    with pytest.raises(ConfigurationError):
        MapReduceJob(mapper=word_count_mapper, reducer=sum_reducer, n_partitions=0)
    with pytest.raises(ConfigurationError):
        MapReduceJob(
            mapper=word_count_mapper,
            reducer=sum_reducer,
            executor=ExecutorConfig("thread", 0),
        )


def test_run_map_order_preserved():
    records = list(range(100))
    assert run_map(records, lambda r: r * 2) == [r * 2 for r in records]


def test_run_map_threaded_order_preserved():
    records = list(range(100))
    assert run_map(records, lambda r: r + 1, executor=ExecutorConfig("thread", 4)) == [
        r + 1 for r in records
    ]


def test_keys_sorted_in_output():
    result = run_mapreduce(["b a c"], word_count_mapper, sum_reducer)
    assert list(result) == sorted(result)


# ----------------------------------------------------------------------
# robustness: raising mappers, record retries, skip_bad_records
# ----------------------------------------------------------------------
from repro.core.exceptions import RecordError  # noqa: E402


def test_raising_mapper_surfaces_record_context():
    def mapper(record):
        if record == 13:
            raise ValueError("poisoned")
        yield record % 3, record

    with pytest.raises(RecordError) as info:
        run_mapreduce(list(range(20)), mapper, sum_reducer)
    assert info.value.index == 13
    assert info.value.record == 13
    assert "poisoned" in str(info.value)
    assert isinstance(info.value.__cause__, ValueError)


def test_raising_mapper_threaded_surfaces_record_context():
    def mapper(record):
        if record == 13:
            raise ValueError("poisoned")
        yield "k", record

    with pytest.raises(RecordError) as info:
        run_mapreduce(list(range(40)), mapper, sum_reducer, executor=ExecutorConfig("thread", 4))
    assert info.value.index == 13


def test_skip_bad_records_drops_only_poisoned():
    def mapper(record):
        if record % 7 == 0:
            raise ValueError("bad")
        yield "k", record

    job = MapReduceJob(
        mapper=mapper, reducer=lambda k, vs: sorted(vs), skip_bad_records=True
    )
    result = job.run(list(range(21)))
    expected = sorted(r for r in range(21) if r % 7 != 0)
    assert result["k"] == expected
    assert job.counters["failed_records"] == 3
    assert job.counters["records_mapped"] == 18


def test_skip_bad_records_threaded_matches_sequential():
    def mapper(record):
        if record % 5 == 0:
            raise ValueError("bad")
        yield record % 3, record

    seq = run_mapreduce(
        list(range(60)), mapper, lambda k, vs: sorted(vs),
        skip_bad_records=True,
    )
    par = run_mapreduce(
        list(range(60)), mapper, lambda k, vs: sorted(vs),
        skip_bad_records=True, executor=ExecutorConfig("thread", 4),
    )
    assert seq == par


def test_record_retries_recover_flaky_mapper():
    import threading

    attempts: dict[int, int] = {}
    lock = threading.Lock()

    def flaky_mapper(record):
        with lock:
            attempts[record] = attempts.get(record, 0) + 1
            if attempts[record] == 1 and record % 4 == 0:
                raise RuntimeError("first attempt always fails")
        yield "k", record

    job = MapReduceJob(
        mapper=flaky_mapper, reducer=lambda k, vs: sorted(vs),
        record_retries=1, executor=ExecutorConfig("thread", 4),
    )
    result = job.run(list(range(16)))
    assert result["k"] == list(range(16))
    assert job.counters["retried_records"] == 4
    assert job.counters["failed_records"] == 0


def test_mapper_side_counters_aggregated_across_threads():
    lines = [f"w{i % 7} w{i % 3}" for i in range(200)]
    job = MapReduceJob(
        mapper=word_count_mapper,
        reducer=sum_reducer,
        combiner=lambda key, values: [sum(values)],
        executor=ExecutorConfig("thread", 4),
        n_partitions=8,
    )
    job.run(lines)
    assert job.counters["records_mapped"] == 200
    assert job.counters["map_output_values"] == 400
    assert job.counters["combiner_values_in"] == 400
    # combiner folds each partition's values for a key into one
    assert 0 < job.counters["combiner_values_out"] < 400


def test_run_map_skip_and_counters():
    def fn(r):
        if r == 5:
            raise ValueError("bad")
        return r * 2

    counters: dict[str, int] = {}
    out = run_map(
        list(range(10)), fn, executor=ExecutorConfig("thread", 4),
        skip_bad_records=True, error_value=None, counters=counters,
    )
    assert out == [r * 2 if r != 5 else None for r in range(10)]
    assert counters["failed_records"] == 1
    assert counters["records_mapped"] == 9


def test_run_map_raises_with_context():
    def fn(r):
        if r == 3:
            raise KeyError("boom")
        return r

    with pytest.raises(RecordError) as info:
        run_map(list(range(6)), fn)
    assert info.value.index == 3


def test_run_map_retries_flaky_fn():
    import threading

    attempts: dict[int, int] = {}
    lock = threading.Lock()

    def flaky(r):
        with lock:
            attempts[r] = attempts.get(r, 0) + 1
            if attempts[r] == 1:
                raise RuntimeError("flake")
        return r + 1

    counters: dict[str, int] = {}
    out = run_map(
        list(range(8)), flaky, executor=ExecutorConfig("thread", 4),
        record_retries=2, counters=counters,
    )
    assert out == [r + 1 for r in range(8)]
    assert counters["retried_records"] == 8
    assert counters["failed_records"] == 0


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


def test_job_counters_identical_across_thread_counts():
    """MapReduce counters are aggregated on the coordinator from
    per-partition Counter payloads, so totals cannot depend on worker
    scheduling."""
    records = list(range(150))

    def run_with(executor):
        job = MapReduceJob(
            mapper=lambda r: [(r % 5, r)],
            reducer=lambda key, values: len(values),
            combiner=lambda key, values: values,
            n_partitions=6,
            executor=executor,
        )
        job.run(records)
        return dict(job.counters)

    serial = run_with(None)
    assert serial["records_mapped"] == len(records)
    for workers in (2, 4, 8):
        assert run_with(ExecutorConfig("thread", workers)) == serial


def test_traced_job_counters_match_untraced(tmp_path):
    """Tracing must observe, not perturb: the same job traced and
    untraced reports identical job counters, and the traced span tree's
    per-partition counters sum to the job totals."""
    import repro.obs as obs
    from repro.obs import Tracer

    records = list(range(60))

    def build():
        return MapReduceJob(
            mapper=lambda r: [(r % 3, r)],
            reducer=lambda key, values: sum(values),
            n_partitions=4,
            executor=ExecutorConfig("thread", 4),
        )

    untraced = build()
    untraced.run(records)

    tracer = obs.enable(Tracer("t"))
    try:
        traced = build()
        traced.run(records)
    finally:
        obs.disable()
    assert traced.counters == untraced.counters

    spans = tracer.find_spans("mapreduce.partition")
    assert len(spans) == 4
    mapped_total = sum(s.counters.get("records_mapped", 0) for s in spans)
    assert mapped_total == traced.counters["records_mapped"]
