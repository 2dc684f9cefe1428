"""Property-based backend equivalence: random clean MapReduce programs
must produce identical outputs and counters on the serial, thread, and
process backends, and a poisoned record must fail the job with the same
:class:`RecordError` — the earliest poisoned record and its index — on
every backend.

Mapper/combiner/reducer programs are drawn from a small space of
picklable building blocks (module-level task objects, never closures)
so every generated program is legal on the process backend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import RecordError
from repro.dataflow.mapreduce import MapReduceJob, run_map
from repro.exec import ExecutorConfig

PARALLEL_BACKENDS = (
    ExecutorConfig(backend="thread", workers=3),
    ExecutorConfig(backend="process", workers=2),
)


class _ModMapper:
    """record -> [(record % m, record * scale)], failing on multiples of
    ``poison`` (``0`` disables poisoning)."""

    __slots__ = ("m", "scale", "poison")

    def __init__(self, m, scale, poison):
        self.m = m
        self.scale = scale
        self.poison = poison

    def __call__(self, record):
        if self.poison and record % self.poison == 0:
            raise ValueError(f"poisoned {record}")
        return [(record % self.m, record * self.scale)]


def _sum_combiner(key, values):
    return [sum(values)]


def _identity_combiner(key, values):
    return list(values)


def _total_reducer(key, values):
    return sum(values)


def _list_reducer(key, values):
    return list(values)


_COMBINERS = (None, _sum_combiner, _identity_combiner)
_REDUCERS = (_total_reducer, _list_reducer)


def _run_job(records, mapper, combiner, reducer, n_partitions, executor):
    job = MapReduceJob(
        mapper=mapper,
        reducer=reducer,
        combiner=combiner,
        n_partitions=n_partitions,
        executor=executor,
    )
    output = job.run(records)
    return output, dict(job.counters)


@settings(max_examples=12, deadline=None)
@given(
    records=st.lists(st.integers(min_value=-50, max_value=200), max_size=60),
    m=st.integers(min_value=1, max_value=9),
    scale=st.integers(min_value=-3, max_value=3),
    combiner_index=st.integers(min_value=0, max_value=len(_COMBINERS) - 1),
    reducer_index=st.integers(min_value=0, max_value=len(_REDUCERS) - 1),
    n_partitions=st.integers(min_value=1, max_value=6),
)
def test_random_mapreduce_programs_agree_across_backends(
    records, m, scale, combiner_index, reducer_index, n_partitions
):
    mapper = _ModMapper(m, scale, 0)
    combiner = _COMBINERS[combiner_index]
    reducer = _REDUCERS[reducer_index]
    base_output, base_counters = _run_job(
        records, mapper, combiner, reducer, n_partitions, ExecutorConfig()
    )
    for executor in PARALLEL_BACKENDS:
        output, counters = _run_job(
            records, mapper, combiner, reducer, n_partitions, executor
        )
        assert output == base_output
        assert counters == base_counters
    assert base_counters["records_mapped"] == len(records)


@settings(max_examples=10, deadline=None)
@given(
    records=st.lists(st.integers(min_value=0, max_value=500), max_size=50),
    poison=st.sampled_from([2, 3, 7]),
    n_partitions=st.integers(min_value=1, max_value=6),
)
def test_earliest_poisoned_record_raises_on_every_backend(
    records, poison, n_partitions
):
    """``run_map`` and ``MapReduceJob`` fail on the earliest poisoned
    record, with its index, on serial, thread, and process alike.  A
    job maps partition by partition (record ``i`` lands in partition
    ``i % n``), so its earliest record is the first in that order."""
    mapper = _ModMapper(3, 1, poison)
    poisoned = [i for i, r in enumerate(records) if r % poison == 0]
    n = min(n_partitions, max(len(records), 1))
    job_first = min(poisoned, key=lambda i: (i % n, i), default=None)
    for executor in (ExecutorConfig(),) + PARALLEL_BACKENDS:
        if not poisoned:
            assert run_map(records, mapper, executor=executor) == [
                [(r % 3, r)] for r in records
            ]
            continue
        with pytest.raises(RecordError) as excinfo:
            run_map(records, mapper, executor=executor)
        assert excinfo.value.index == poisoned[0]
        assert excinfo.value.record == records[poisoned[0]]
        with pytest.raises(RecordError) as excinfo:
            _run_job(
                records, mapper, None, _total_reducer, n_partitions, executor
            )
        assert excinfo.value.index == job_first


def test_error_identity_is_backend_free():
    """The earliest poisoned record's error surfaces, carrying the same
    record/index on every backend."""
    records = [1, 5, 14, 21, 35]  # poison=7 -> first failure at index 2
    mapper = _ModMapper(3, 1, 7)
    failures = []
    for executor in (ExecutorConfig(),) + PARALLEL_BACKENDS:
        with pytest.raises(RecordError) as excinfo:
            run_map(records, mapper, executor=executor)
        failures.append((excinfo.value.index, excinfo.value.record))
    assert failures == [(2, 14)] * 3
