"""A small in-process MapReduce engine.

Semantics match the classic model:

* ``mapper(record) -> iterable[(key, value)]`` runs once per input
  record (optionally across an execution backend, partitioned
  deterministically so output order does not depend on scheduling);
* an optional ``combiner(key, values) -> iterable[value]`` pre-reduces
  each partition's output;
* the shuffle groups values by key (keys must be hashable and sortable);
* ``reducer(key, values) -> output`` runs once per key, in sorted key
  order.

Determinism: values arrive at the reducer in (partition, input-order)
order regardless of scheduling, so jobs are reproducible — and since
every partition is an independent pure task, the job computes the
byte-identical result on the serial, thread, and process backends of
:mod:`repro.exec` (``executor=`` selects one).

Failures: a mapper that raises fails the job with a
:class:`RecordError` carrying the record and its input index — the
earliest failing record on every backend.  Retrying a flaky
organizational resource is :class:`repro.resilience.ResiliencePolicy`'s
job, one level down.  Per-partition mapper-side counts (records
mapped, combiner reductions) are aggregated into ``job.counters`` on
the coordinating thread — process workers return their counters as
data, so no accounting is lost to workers that carry no tracer.

Process-backend constraints: the mapper/combiner (and records) must be
picklable — module-level functions, not closures.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, TypeVar

import repro.obs as obs
from repro.core.exceptions import ConfigurationError, RecordError
from repro.exec import Executor, ExecutorConfig, as_executor, iter_chunks

__all__ = ["MapReduceJob", "run_mapreduce", "run_map"]

Record = TypeVar("Record")
Key = Hashable
Mapper = Callable[[Any], Iterable[tuple[Key, Any]]]
Combiner = Callable[[Key, list[Any]], Iterable[Any]]
Reducer = Callable[[Key, list[Any]], Any]


def _call(fn: Callable[[Any], Any], record: Any, index: int) -> Any:
    """``fn(record)``; a raise becomes :class:`RecordError` carrying the
    record and its input index."""
    try:
        return fn(record)
    except Exception as exc:  # noqa: BLE001 - mapper may raise anything
        raise RecordError(
            f"record {index} failed: {type(exc).__name__}: {exc} "
            f"(record={record!r:.200})",
            record=record,
            index=index,
        ) from exc


def _map_partition_core(
    mapper: Mapper,
    combiner: Combiner | None,
    partition: list[tuple[int, Any]],
) -> tuple[dict[Key, list[Any]], Counter]:
    """Map one partition of (index, record) pairs; pure function of its
    arguments, shared verbatim by every execution backend so their
    outputs cannot diverge."""
    counts: Counter = Counter()
    grouped: dict[Key, list[Any]] = defaultdict(list)
    for index, record in partition:
        pairs = _call(lambda r: list(mapper(r)), record, index)
        counts["records_mapped"] += 1
        for key, value in pairs:
            grouped[key].append(value)
            counts["map_output_values"] += 1
    if combiner is not None:
        combined: dict[Key, list[Any]] = {}
        for key, values in grouped.items():
            counts["combiner_values_in"] += len(values)
            combined[key] = list(combiner(key, values))
            counts["combiner_values_out"] += len(combined[key])
        grouped = combined
    return dict(grouped), counts


@dataclass(frozen=True)
class _PartitionTask:
    """Picklable partition-map task shipped to process-pool workers."""

    mapper: Mapper
    combiner: Combiner | None

    def __call__(
        self, partition: list[tuple[int, Any]]
    ) -> tuple[dict[Key, list[Any]], Counter]:
        return _map_partition_core(self.mapper, self.combiner, partition)


@dataclass(frozen=True)
class _MapChunkTask:
    """Picklable map-only task over one contiguous chunk of (index,
    record) pairs; returns the mapped values in chunk order."""

    fn: Callable[[Any], Any]

    def __call__(self, chunk: list[tuple[int, Any]]) -> list[Any]:
        return [_call(self.fn, record, index) for index, record in chunk]


@dataclass
class MapReduceJob:
    """A configured MapReduce job; call :meth:`run` with the input."""

    mapper: Mapper
    reducer: Reducer
    combiner: Combiner | None = None
    n_partitions: int = 8
    counters: dict[str, int] = field(default_factory=dict)
    #: execution backend for the map phase: an :class:`Executor`, an
    #: :class:`ExecutorConfig`, a backend name, or ``None`` (serial)
    executor: Executor | ExecutorConfig | str | None = None

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise ConfigurationError("n_partitions must be >= 1")

    def _partitions(self, records: Sequence[Any]) -> list[list[tuple[int, Any]]]:
        n = min(self.n_partitions, max(len(records), 1))
        parts: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
        for i, record in enumerate(records):
            parts[i % n].append((i, record))
        return parts

    def _map_partition(
        self, partition: list[tuple[int, Any]], partition_index: int = 0
    ) -> tuple[dict[Key, list[Any]], Counter]:
        """Map one partition; returns (grouped output, local counters).

        Local counters are merged by the coordinator after all
        partitions finish, so no counts are lost to thread races.  A
        traced run gets one span per partition (attached to the tracer
        root when mapped on a worker thread) carrying those counters.
        """
        with obs.span(
            "mapreduce.partition",
            partition=partition_index,
            n_records=len(partition),
        ) as sp:
            grouped, counts = _map_partition_core(
                self.mapper, self.combiner, partition
            )
            for name, value in counts.items():
                sp.add_counter(name, value)
        return grouped, counts

    def _run_partitions_process(
        self,
        executor: Executor,
        partitions: list[list[tuple[int, Any]]],
    ) -> list[tuple[dict[Key, list[Any]], Counter]]:
        """Map partitions on a process pool.

        Workers run the pure partition task; the coordinator records one
        ``mapreduce.partition`` span per partition carrying the worker's
        counters, so traced accounting is complete.
        """
        task = _PartitionTask(mapper=self.mapper, combiner=self.combiner)
        results = executor.map_ordered(task, partitions, chunk_size=1)
        for index, (_, counts) in enumerate(results):
            with obs.span(
                "mapreduce.partition",
                partition=index,
                n_records=len(partitions[index]),
                backend=executor.backend,
            ) as sp:
                for name, value in counts.items():
                    sp.add_counter(name, value)
        return results

    def run(self, records: Sequence[Any]) -> dict[Key, Any]:
        """Execute the job; returns {key: reducer output} in key order."""
        partitions = self._partitions(list(records))
        self.counters["input_records"] = len(records)
        executor = as_executor(self.executor)

        with obs.span(
            "mapreduce.job",
            n_records=len(records),
            n_partitions=len(partitions),
            backend=executor.backend,
            workers=executor.workers,
        ) as job_span:
            if executor.backend == "process":
                results = self._run_partitions_process(executor, partitions)
            elif executor.backend == "serial" or len(partitions) == 1:
                results = [
                    self._map_partition(p, i) for i, p in enumerate(partitions)
                ]
            else:
                results = executor.map_ordered(
                    lambda ip: self._map_partition(ip[1], ip[0]),
                    list(enumerate(partitions)),
                )
            output = self._shuffle_and_reduce(results)
            # per-record counters already live on the partition spans;
            # the job span carries only the job-level ones so totals
            # over the tree don't double-count
            for name in ("input_records", "distinct_keys", "reduced_keys"):
                job_span.add_counter(name, self.counters[name])
        return output

    def _shuffle_and_reduce(
        self, results: list[tuple[dict[Key, list[Any]], Counter]]
    ) -> dict[Key, Any]:
        """Counter aggregation, shuffle, and the reduce phase.

        Counter aggregation happens here, on the coordinating thread,
        from the per-partition ``Counter`` objects the workers returned
        as data — worker threads and processes never mutate
        ``self.counters`` directly, so there is no write race and no
        lost increment regardless of backend or scheduling.
        """
        totals: Counter = Counter()
        for _, counts in results:
            totals.update(counts)
        for name in ("records_mapped", "map_output_values"):
            self.counters[name] = totals.get(name, 0)
        if self.combiner is not None:
            self.counters["combiner_values_in"] = totals.get("combiner_values_in", 0)
            self.counters["combiner_values_out"] = totals.get("combiner_values_out", 0)

        shuffled: dict[Key, list[Any]] = defaultdict(list)
        for grouped, _ in results:
            for key, values in grouped.items():
                shuffled[key].extend(values)
        self.counters["distinct_keys"] = len(shuffled)

        output: dict[Key, Any] = {}
        for key in sorted(shuffled, key=repr):
            output[key] = self.reducer(key, shuffled[key])
        self.counters["reduced_keys"] = len(output)
        return output


def run_mapreduce(
    records: Sequence[Any],
    mapper: Mapper,
    reducer: Reducer,
    combiner: Combiner | None = None,
    n_partitions: int = 8,
    executor: Executor | ExecutorConfig | str | None = None,
) -> dict[Key, Any]:
    """One-shot convenience wrapper around :class:`MapReduceJob`."""
    job = MapReduceJob(
        mapper=mapper,
        reducer=reducer,
        combiner=combiner,
        n_partitions=n_partitions,
        executor=executor,
    )
    return job.run(records)


def run_map(
    records: Sequence[Any],
    fn: Callable[[Any], Any],
    executor: Executor | ExecutorConfig | str | None = None,
) -> list[Any]:
    """Map-only job preserving input order (a common degenerate case:
    per-record featurization with no aggregation).

    A record whose ``fn`` raises fails the job with
    :class:`RecordError` carrying the record and its index.
    ``executor`` selects the backend; the process backend dispatches
    contiguous chunks (``fn`` must be picklable) and flattens results
    in chunk order, so the output is byte-identical to the serial run.
    """
    ex = as_executor(executor)
    indexed = list(enumerate(records))
    with obs.span(
        "mapreduce.map",
        n_records=len(records),
        backend=ex.backend,
        workers=ex.workers,
    ) as sp:
        if ex.backend == "process" and len(indexed) > 1:
            chunks = iter_chunks(indexed, ex.workers * 4)
            results = [
                value
                for chunk_result in ex.map_ordered(
                    _MapChunkTask(fn), chunks, chunk_size=1
                )
                for value in chunk_result
            ]
        elif ex.backend == "serial" or len(indexed) < 2:
            results = [_call(fn, record, index) for index, record in indexed]
        else:
            results = ex.map_ordered(lambda ir: _call(fn, ir[1], ir[0]), indexed)
        sp.add_counter("records_mapped", len(results))
    return results
