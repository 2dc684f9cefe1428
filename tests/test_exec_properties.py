"""Property-based backend equivalence: random clean ``run_map``
programs must produce identical outputs and ``records_mapped`` counts
on the serial, thread, and process backends, and a poisoned record must
fail the map with the same :class:`RecordError` — the earliest poisoned
record and its index — on every backend.

Programs are drawn from a small space of picklable building blocks
(module-level task objects, never closures) so every generated program
is legal on the process backend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.exceptions import RecordError
from repro.dataflow.mapreduce import run_map
from repro.exec import ExecutorConfig
from repro.obs import Tracer

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


class _DivMod:
    """record -> divmod(record, m)."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __call__(self, record):
        return divmod(record, self.m)


def _map_traced(records, fn, executor):
    """``run_map`` under a fresh tracer: (output, records_mapped)."""
    tracer = obs.enable(Tracer("prop"))
    try:
        output = run_map(records, fn, executor=executor)
    finally:
        obs.disable()
    return output, tracer.total_counters()["records_mapped"]


@settings(max_examples=12, deadline=None)
@given(
    records=st.lists(st.integers(min_value=-50, max_value=200), max_size=60),
    m=st.integers(min_value=1, max_value=9),
    scale=st.integers(min_value=-3, max_value=3),
    use_divmod=st.booleans(),
)
def test_random_mapreduce_programs_agree_across_backends(
    records, m, scale, use_divmod
):
    fn = _DivMod(m) if use_divmod else _ModMapper(m, scale, 0)
    base = _map_traced(records, fn, ExecutorConfig())
    assert base == ([fn(r) for r in records], len(records))
    for executor in PARALLEL_BACKENDS:
        assert _map_traced(records, fn, executor) == base


@settings(max_examples=10, deadline=None)
@given(
    records=st.lists(st.integers(min_value=0, max_value=500), max_size=50),
    poison=st.sampled_from([2, 3, 7]),
)
def test_earliest_poisoned_record_raises_on_every_backend(records, poison):
    """``run_map`` fails on the earliest poisoned record, with its
    index, on serial, thread, and process alike."""
    mapper = _ModMapper(3, 1, poison)
    poisoned = [i for i, r in enumerate(records) if r % poison == 0]
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
