"""Pluggable parallel execution backends.

One abstraction — :class:`Executor` — with three interchangeable
implementations:

* :class:`SerialExecutor` — inline on the calling thread (reference);
* :class:`ThreadExecutor` — a thread pool (GIL-releasing workloads);
* :class:`ProcessExecutor` — a process pool (Python-bound workloads).

The dataflow layer merges results in input order and
derives every RNG stream from recorded seeds, so **all three backends
produce byte-identical artifacts** — the differential suite in
``tests/test_exec_equivalence.py`` holds them to that via RunStore
content hashes.  See DESIGN.md §11 for the determinism contract and
pickling constraints.
"""

from repro.exec.base import (
    BACKENDS,
    Executor,
    ExecutorConfig,
    as_executor,
    iter_chunks,
)
from repro.exec.local import SerialExecutor, ThreadExecutor
from repro.exec.process import ProcessExecutor, ensure_picklable

__all__ = [
    "BACKENDS",
    "Executor",
    "ExecutorConfig",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "as_executor",
    "ensure_picklable",
    "iter_chunks",
]
