"""An ordered, backend-free per-record map.

The paper runs feature generation and LF application as MapReduce
jobs; both are per-record maps, so the one primitive kept here is
:func:`run_map`: ``fn(record)`` runs once per input record, optionally
across an execution backend of :mod:`repro.exec`, and the results come
back in input order.  Every backend computes the byte-identical output
(``executor=`` selects one).

Failures: an ``fn`` that raises fails the map with a
:class:`RecordError` carrying the record and its input index — the
earliest failing record on every backend.  Retrying a flaky
organizational resource is :class:`repro.resilience.ResiliencePolicy`'s
job, one level down.  A traced run gets one ``mapreduce.map`` span
carrying the ``records_mapped`` counter.

Process-backend constraints: ``fn`` (and the records) must be
picklable — module-level functions, not closures.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import repro.obs as obs
from repro.core.exceptions import RecordError
from repro.exec import Executor, ExecutorConfig, as_executor, iter_chunks

__all__ = ["run_map"]


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


@dataclass(frozen=True)
class _MapChunkTask:
    """Picklable map task over one contiguous chunk of (index, record)
    pairs; returns the mapped values in chunk order."""

    fn: Callable[[Any], Any]

    def __call__(self, chunk: list[tuple[int, Any]]) -> list[Any]:
        return [_call(self.fn, record, index) for index, record in chunk]


def run_map(
    records: Sequence[Any],
    fn: Callable[[Any], Any],
    executor: Executor | ExecutorConfig | str | None = None,
) -> list[Any]:
    """``[fn(r) for r in records]`` on an execution backend, in input
    order.

    A record whose ``fn`` raises fails the map with
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
