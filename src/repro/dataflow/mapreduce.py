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

Robustness: ``record_retries`` re-runs a failing mapper call on the
same record (for mappers that call flaky services), and
``skip_bad_records`` drops records that still fail instead of killing
the job — the classic "skip bad records" escape hatch for poisoned
inputs.  Failures surface as :class:`RecordError` carrying the record
and its input index; ``failed_records`` / ``retried_records`` counters
account for every skip and re-run.  Per-partition mapper-side counts
(records mapped, combiner reductions) are aggregated into
``job.counters`` on the coordinating thread — process workers return
their counters as data, so no accounting is lost to workers that carry
no tracer.

Process-backend constraints: the mapper/combiner (and records) must be
picklable — module-level functions, not closures.  With a partition
checkpoint, the coordinator persists each partition's payload as its
result arrives (in partition order), so a killed process-backend run
resumes bit-identically, exactly like the threaded path.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, TypeVar

import repro.obs as obs
from repro.core.exceptions import ConfigurationError, RecordError
from repro.exec import Executor, ExecutorConfig, as_executor, iter_chunks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runs.checkpoint import PartitionCheckpointer

__all__ = ["MapReduceJob", "run_mapreduce", "run_map"]

Record = TypeVar("Record")
Key = Hashable
Mapper = Callable[[Any], Iterable[tuple[Key, Any]]]
Combiner = Callable[[Key, list[Any]], Iterable[Any]]
Reducer = Callable[[Key, list[Any]], Any]


def _call_with_retries(
    fn: Callable[[Any], Any],
    record: Any,
    index: int,
    retries: int,
    skip_bad: bool,
    counts: Counter,
) -> tuple[bool, Any]:
    """(ok, result) for one record; raises :class:`RecordError` when the
    record exhausts its retries and skipping is off."""
    last_exc: Exception | None = None
    for attempt in range(1 + retries):
        try:
            return True, fn(record)
        except Exception as exc:  # noqa: BLE001 - mapper may raise anything
            last_exc = exc
            if attempt < retries:
                counts["retried_records"] += 1
    counts["failed_records"] += 1
    if skip_bad:
        return False, None
    raise RecordError(
        f"record {index} failed after {1 + retries} attempt(s): "
        f"{type(last_exc).__name__}: {last_exc} (record={record!r:.200})",
        record=record,
        index=index,
    ) from last_exc


def _map_partition_core(
    mapper: Mapper,
    combiner: Combiner | None,
    partition: list[tuple[int, Any]],
    record_retries: int,
    skip_bad_records: bool,
) -> tuple[dict[Key, list[Any]], Counter]:
    """Map one partition of (index, record) pairs; pure function of its
    arguments, shared verbatim by every execution backend so their
    outputs cannot diverge."""
    counts: Counter = Counter()
    grouped: dict[Key, list[Any]] = defaultdict(list)
    for index, record in partition:
        ok, pairs = _call_with_retries(
            lambda r: list(mapper(r)),
            record,
            index,
            record_retries,
            skip_bad_records,
            counts,
        )
        if not ok:
            continue
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
    record_retries: int
    skip_bad_records: bool

    def __call__(
        self, partition: list[tuple[int, Any]]
    ) -> tuple[dict[Key, list[Any]], Counter]:
        return _map_partition_core(
            self.mapper,
            self.combiner,
            partition,
            self.record_retries,
            self.skip_bad_records,
        )


@dataclass(frozen=True)
class _MapChunkTask:
    """Picklable map-only task over one contiguous chunk of (index,
    record) pairs; returns ``[(value, counts), ...]`` in chunk order."""

    fn: Callable[[Any], Any]
    record_retries: int
    skip_bad_records: bool
    error_value: Any

    def __call__(
        self, chunk: list[tuple[int, Any]]
    ) -> list[tuple[Any, Counter]]:
        out: list[tuple[Any, Counter]] = []
        for index, record in chunk:
            local: Counter = Counter()
            ok, value = _call_with_retries(
                self.fn,
                record,
                index,
                self.record_retries,
                self.skip_bad_records,
                local,
            )
            if not ok:
                out.append((self.error_value, local))
                continue
            local["records_mapped"] += 1
            out.append((value, local))
        return out


@dataclass
class MapReduceJob:
    """A configured MapReduce job; call :meth:`run` with the input."""

    mapper: Mapper
    reducer: Reducer
    combiner: Combiner | None = None
    n_partitions: int = 8
    record_retries: int = 0
    skip_bad_records: bool = False
    counters: dict[str, int] = field(default_factory=dict)
    #: optional completed-partition checkpointing: each partition's mapped
    #: output is persisted on completion, and a re-run of the same job
    #: (same checkpoint ``job_key``) loads finished partitions from disk
    checkpoint: PartitionCheckpointer | None = None
    #: execution backend for the map phase: an :class:`Executor`, an
    #: :class:`ExecutorConfig`, a backend name, or ``None`` (serial)
    executor: Executor | ExecutorConfig | str | None = None

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise ConfigurationError("n_partitions must be >= 1")
        if self.record_retries < 0:
            raise ConfigurationError("record_retries must be >= 0")

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
                self.mapper,
                self.combiner,
                partition,
                self.record_retries,
                self.skip_bad_records,
            )
            for name, value in counts.items():
                sp.add_counter(name, value)
        return grouped, counts

    def _map_partition_durable(
        self, partition: list[tuple[int, Any]], partition_index: int
    ) -> tuple[dict[Key, list[Any]], Counter]:
        """Checkpoint-aware partition map: load a completed partition's
        payload if the checkpoint has one, else map it and persist the
        result before crossing the crash boundary."""
        if self.checkpoint is None:
            return self._map_partition(partition, partition_index)
        cached = self.checkpoint.load(partition_index)
        if cached is not None:
            return cached
        from repro.runs.crash import crash_boundary

        grouped, counts = self._map_partition(partition, partition_index)
        self.checkpoint.save(partition_index, (grouped, counts))
        crash_boundary(f"partition:{partition_index}")
        return grouped, counts

    def _run_partitions_process(
        self,
        executor: Executor,
        partitions: list[list[tuple[int, Any]]],
    ) -> list[tuple[dict[Key, list[Any]], Counter]]:
        """Map partitions on a process pool.

        Workers run the pure partition task; the coordinator replays
        checkpointed partitions without dispatching them, records one
        ``mapreduce.partition`` span per computed partition (carrying
        the worker's counters, so traced accounting is complete), and
        persists each payload as it arrives — in partition order — so a
        kill mid-job leaves a resumable prefix exactly like the
        threaded path.
        """
        from repro.runs.crash import crash_boundary

        results: dict[int, tuple[dict[Key, list[Any]], Counter]] = {}
        pending: list[int] = []
        for index in range(len(partitions)):
            cached = (
                self.checkpoint.load(index) if self.checkpoint is not None else None
            )
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)

        if pending:
            task = _PartitionTask(
                mapper=self.mapper,
                combiner=self.combiner,
                record_retries=self.record_retries,
                skip_bad_records=self.skip_bad_records,
            )
            mapped = executor.imap_ordered(
                task, [partitions[i] for i in pending], chunk_size=1
            )
            for index, (grouped, counts) in zip(pending, mapped):
                with obs.span(
                    "mapreduce.partition",
                    partition=index,
                    n_records=len(partitions[index]),
                    backend=executor.backend,
                ) as sp:
                    for name, value in counts.items():
                        sp.add_counter(name, value)
                if self.checkpoint is not None:
                    self.checkpoint.save(index, (grouped, counts))
                    crash_boundary(f"partition:{index}")
                results[index] = (grouped, counts)
        return [results[i] for i in range(len(partitions))]

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
                    self._map_partition_durable(p, i)
                    for i, p in enumerate(partitions)
                ]
            else:
                results = executor.map_ordered(
                    lambda ip: self._map_partition_durable(ip[1], ip[0]),
                    list(enumerate(partitions)),
                )
            mapped = [grouped for grouped, _ in results]
            output = self._shuffle_and_reduce(results, mapped)
            # per-record counters already live on the partition spans;
            # the job span carries only the job-level ones so totals
            # over the tree don't double-count
            for name in ("input_records", "distinct_keys", "reduced_keys"):
                job_span.add_counter(name, self.counters[name])
        return output

    def _shuffle_and_reduce(
        self,
        results: list[tuple[dict[Key, list[Any]], Counter]],
        mapped: list[dict[Key, list[Any]]],
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
        for name in (
            "records_mapped",
            "map_output_values",
            "failed_records",
            "retried_records",
        ):
            self.counters[name] = totals.get(name, 0)
        if self.combiner is not None:
            self.counters["combiner_values_in"] = totals.get("combiner_values_in", 0)
            self.counters["combiner_values_out"] = totals.get("combiner_values_out", 0)

        shuffled: dict[Key, list[Any]] = defaultdict(list)
        for part in mapped:
            for key, values in part.items():
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
    record_retries: int = 0,
    skip_bad_records: bool = False,
    checkpoint: PartitionCheckpointer | None = None,
    executor: Executor | ExecutorConfig | str | None = None,
) -> dict[Key, Any]:
    """One-shot convenience wrapper around :class:`MapReduceJob`."""
    job = MapReduceJob(
        mapper=mapper,
        reducer=reducer,
        combiner=combiner,
        n_partitions=n_partitions,
        record_retries=record_retries,
        skip_bad_records=skip_bad_records,
        checkpoint=checkpoint,
        executor=executor,
    )
    return job.run(records)


def run_map(
    records: Sequence[Any],
    fn: Callable[[Any], Any],
    record_retries: int = 0,
    skip_bad_records: bool = False,
    error_value: Any = None,
    counters: dict[str, int] | None = None,
    executor: Executor | ExecutorConfig | str | None = None,
) -> list[Any]:
    """Map-only job preserving input order (a common degenerate case:
    per-record featurization with no aggregation).

    A record whose ``fn`` raises is retried ``record_retries`` times;
    if it still fails, the job raises :class:`RecordError` with the
    record and its index — unless ``skip_bad_records`` is set, in which
    case the output slot holds ``error_value`` so alignment with the
    input is preserved.  Pass a dict as ``counters`` to receive
    ``records_mapped`` / ``failed_records`` / ``retried_records``
    (always merged on the coordinator from per-record/per-chunk local
    counters, never mutated from workers).

    ``executor`` selects the backend; the process backend dispatches
    contiguous chunks (``fn`` must be picklable) and flattens results
    in chunk order, so output and counters are byte-identical to the
    serial run.
    """
    ex = as_executor(executor)

    def _one(indexed: tuple[int, Any]) -> tuple[Any, Counter]:
        index, record = indexed
        local: Counter = Counter()
        ok, value = _call_with_retries(
            fn, record, index, record_retries, skip_bad_records, local
        )
        if not ok:
            return error_value, local
        local["records_mapped"] += 1
        return value, local

    indexed = list(enumerate(records))
    with obs.span(
        "mapreduce.map",
        n_records=len(records),
        backend=ex.backend,
        workers=ex.workers,
    ) as sp:
        if ex.backend == "process" and len(indexed) > 1:
            task = _MapChunkTask(
                fn=fn,
                record_retries=record_retries,
                skip_bad_records=skip_bad_records,
                error_value=error_value,
            )
            chunks = iter_chunks(indexed, ex.workers * 4)
            results = [
                pair
                for chunk_result in ex.map_ordered(task, chunks, chunk_size=1)
                for pair in chunk_result
            ]
        elif ex.backend == "serial" or len(indexed) < 2:
            results = [_one(pair) for pair in indexed]
        else:
            results = ex.map_ordered(_one, indexed)
        if counters is not None or obs.enabled():
            totals: Counter = Counter()
            for _, local in results:
                totals.update(local)
            for name in ("records_mapped", "failed_records", "retried_records"):
                sp.add_counter(name, totals.get(name, 0))
                if counters is not None:
                    counters[name] = totals.get(name, 0)
    return [value for value, _ in results]
