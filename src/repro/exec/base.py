"""Executor abstraction: *where* dataflow partitions run.

The dataflow layer (the per-record map, featurization, graph build)
describes *what* to compute over ordered partitions; an
:class:`Executor` decides *how* those partition tasks are scheduled —
inline on the calling thread, on a thread pool, or on a pool of worker
processes.  The
contract every backend must honour:

* **Order.** ``map_ordered(fn, items)`` returns results in input order,
  and ``imap_ordered`` yields them in input order, regardless of which
  worker finished first.  Callers merge in input order, so results
  are byte-identical across backends.
* **Errors.** The exception of the earliest-ordered failing item
  propagates to the caller (parallel backends may have computed later
  items already; their results are discarded).
* **Purity.** ``fn`` must not rely on shared mutable state: the process
  backend runs it in another interpreter.  All determinism comes from
  the arguments (derived RNG seeds travel *in* the task).

:class:`ExecutorConfig` is the serializable selection of a backend —
what :class:`~repro.core.config.PipelineConfig` and the experiments CLI
(``--backend serial|thread|process --workers N``) carry around.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.core.exceptions import ConfigurationError

__all__ = ["BACKENDS", "Executor", "ExecutorConfig", "as_executor"]

#: recognised backend names, in cost order
BACKENDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class ExecutorConfig:
    """Serializable executor selection.

    ``backend`` — one of :data:`BACKENDS`.  ``workers`` — pool size for
    the parallel backends (ignored by ``serial``).  ``chunk_size`` —
    items per dispatch for the process backend (``None`` = derived from
    the item count so each worker gets a few chunks); thread and serial
    backends ignore it.
    """

    backend: str = "serial"
    workers: int = 1
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1 (or None)")

    def create(self) -> "Executor":
        """Instantiate the configured executor."""
        from repro.exec.local import SerialExecutor, ThreadExecutor
        from repro.exec.process import ProcessExecutor

        if self.backend == "serial":
            return SerialExecutor()
        if self.backend == "thread":
            return ThreadExecutor(workers=self.workers)
        return ProcessExecutor(workers=self.workers, chunk_size=self.chunk_size)


class Executor(abc.ABC):
    """Ordered map over independent tasks; see the module docstring for
    the determinism contract all backends share."""

    #: backend name, matching :data:`BACKENDS`
    backend: ClassVar[str]
    #: worker-pool size (1 for the serial backend)
    workers: int = 1

    @abc.abstractmethod
    def imap_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: int | None = None,
    ) -> Iterator[Any]:
        """Yield ``fn(item)`` for each item, **in input order**.

        Lazy where the backend allows it: callers that persist results
        (partition checkpoints) can make each result durable as it
        arrives instead of after the whole map.
        """

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: int | None = None,
    ) -> list[Any]:
        """``[fn(item) for item in items]`` under this backend."""
        return list(self.imap_ordered(fn, items, chunk_size=chunk_size))

    def close(self) -> None:
        """Release pooled resources (no-op for poolless backends)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


def as_executor(spec: "Executor | ExecutorConfig | str | None") -> "Executor":
    """Coerce any executor spec to a live :class:`Executor`.

    ``None`` is the serial default; strings name a backend with default
    workers.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None:
        spec = ExecutorConfig()
    elif isinstance(spec, str):
        spec = ExecutorConfig(backend=spec)
    if isinstance(spec, ExecutorConfig):
        return spec.create()
    raise ConfigurationError(
        f"cannot interpret {spec!r} as an executor; pass an Executor, "
        f"ExecutorConfig, backend name, or None"
    )


def iter_chunks(items: Sequence[Any], n_chunks: int) -> list[list[Any]]:
    """Split ``items`` into at most ``n_chunks`` contiguous chunks.

    Contiguity is what keeps chunked dispatch order-deterministic:
    flattening chunk results in chunk order reproduces input order
    exactly, and the earliest failing record stays the earliest across
    any chunking.
    """
    items = list(items)
    if not items:
        return []
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks: list[list[Any]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks
