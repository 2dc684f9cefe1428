"""Weighted fair queuing of stage work across tenants.

:class:`FairScheduler` owns a small pool of worker threads and one
bounded queue per registered tenant.  Workers always take the next item
from the backlogged tenant with the smallest *virtual time* (classic
WFQ: a tenant's virtual time advances by ``1/weight`` per dispatched
item), so a tenant flooding its queue cannot starve the others — it
just advances its own virtual time faster and yields the floor.

Each tenant sees the scheduler through a :class:`TenantExecutor`, a
normal :class:`repro.exec.Executor`, so the whole pipeline stack
(featurize, LF application, graph build) runs its parallel stages
through the shared fair queue without knowing it.

Backpressure by shedding: a full tenant queue never blocks the
submitter; it *sheds* the item — runs it inline on the submitting
tenant's thread.  Inline execution produces the identical value (tasks
are pure functions of their arguments), so item-level shedding is
output-neutral load control: it costs the tenant its own cycles instead
of a queue slot, and is counted per tenant.

Determinism: the scheduler decides *when and where* an item runs, never
*what it computes*; results are reassembled in input order by
:meth:`TenantExecutor.imap_ordered`, exactly like every other backend.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any, ClassVar

import repro.obs as obs
from repro.core.exceptions import ConfigurationError, ExecutorError
from repro.exec.base import Executor

__all__ = ["FairQueueConfig", "FairScheduler", "TenantExecutor"]


@dataclass(frozen=True)
class FairQueueConfig:
    """Scheduler sizing.

    ``workers`` — shared worker threads executing stage work;
    ``max_queue`` — per-tenant bounded queue length; an item submitted
    to a full queue runs inline on the submitter instead.
    """

    workers: int = 2
    max_queue: int = 512

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")


class _WorkItem:
    __slots__ = ("fn", "arg", "done", "result", "error", "shed")

    def __init__(self, fn: Callable[[Any], Any], arg: Any) -> None:
        self.fn = fn
        self.arg = arg
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.shed = False

    def run(self) -> None:
        try:
            self.result = self.fn(self.arg)
        except BaseException as exc:  # noqa: BLE001 - relayed to the consumer
            self.error = exc
        finally:
            self.done.set()


class _TenantQueue:
    __slots__ = ("name", "weight", "items", "vtime",
                 "submitted", "dispatched", "shed_items")

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.weight = weight
        self.items: deque[_WorkItem] = deque()
        self.vtime = 0.0
        self.submitted = 0
        self.dispatched = 0
        self.shed_items = 0


class FairScheduler:
    """Shared WFQ worker pool; one bounded lane per tenant."""

    def __init__(self, config: FairQueueConfig | None = None) -> None:
        self.config = config or FairQueueConfig()
        self._tenants: dict[str, _TenantQueue] = {}
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._closed = False
        self._started = False
        self._vclock = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FairScheduler":
        with self._cond:
            if self._started:
                return self
            self._started = True
            for i in range(self.config.workers):
                t = threading.Thread(
                    target=self._worker_loop,
                    name=f"fairq-worker-{i}",
                    daemon=True,
                )
                t.start()
                self._threads.append(t)
        return self

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            # fail queued-but-undispatched items loudly instead of
            # leaving their consumers waiting forever
            for lane in self._tenants.values():
                while lane.items:
                    item = lane.items.popleft()
                    item.error = ExecutorError(
                        "fair scheduler closed before the item ran"
                    )
                    item.done.set()
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)

    def __enter__(self) -> "FairScheduler":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # registration / submission
    # ------------------------------------------------------------------
    def register(self, tenant: str, weight: float = 1.0) -> "TenantExecutor":
        """Create ``tenant``'s lane and hand back its executor facade."""
        if weight <= 0:
            raise ConfigurationError("tenant weight must be positive")
        with self._cond:
            if tenant in self._tenants:
                raise ConfigurationError(f"tenant {tenant!r} already registered")
            self._tenants[tenant] = _TenantQueue(tenant, weight)
        return TenantExecutor(self, tenant)

    def submit(self, tenant: str, fn: Callable[[Any], Any], arg: Any) -> _WorkItem:
        """Enqueue one work item on ``tenant``'s lane.

        A full lane sheds: the item runs inline, on the calling thread,
        before this returns.
        """
        item = _WorkItem(fn, arg)
        with self._cond:
            lane = self._lane(tenant)
            if self._closed:
                raise ExecutorError("fair scheduler is closed")
            if len(lane.items) >= self.config.max_queue:
                lane.shed_items += 1
                lane.submitted += 1
                item.shed = True
            else:
                if not lane.items:
                    # a lane idle long enough to drain must not bank its
                    # lag as future priority: rejoin at the global clock
                    lane.vtime = max(lane.vtime, self._vclock)
                lane.submitted += 1
                lane.items.append(item)
                self._cond.notify()
        if item.shed:
            obs.add_counter(f"fairq.shed/{tenant}")
            item.run()
        return item

    def _lane(self, tenant: str) -> _TenantQueue:
        lane = self._tenants.get(tenant)
        if lane is None:
            raise ConfigurationError(f"tenant {tenant!r} is not registered")
        return lane

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _next_item(self) -> _WorkItem | None:
        """Pop from the backlogged lane with the least virtual time.
        Returns None when the scheduler closes.  Lock held by caller."""
        while True:
            if self._closed:
                return None
            best: _TenantQueue | None = None
            for lane in self._tenants.values():
                if not lane.items:
                    continue
                if (
                    best is None
                    or lane.vtime < best.vtime
                    or (lane.vtime == best.vtime and lane.name < best.name)
                ):
                    best = lane
            if best is not None:
                best.vtime += 1.0 / best.weight
                self._vclock = best.vtime
                best.dispatched += 1
                return best.items.popleft()
            self._cond.wait()

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                item = self._next_item()
            if item is None:
                return
            item.run()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, dict[str, float]]:
        """Per-tenant {submitted, dispatched, shed_items, vtime}."""
        with self._cond:
            return {
                lane.name: {
                    "submitted": lane.submitted,
                    "dispatched": lane.dispatched,
                    "shed_items": lane.shed_items,
                    "weight": lane.weight,
                    "vtime": round(lane.vtime, 4),
                }
                for lane in self._tenants.values()
            }


class TenantExecutor(Executor):
    """One tenant's :class:`Executor` view of a shared fair scheduler.

    Honours the executor contract (input-order results, earliest-ordered
    failure propagates, pure tasks); ``close()`` is a no-op because the
    scheduler owns the worker pool.
    """

    backend: ClassVar[str] = "fair"

    def __init__(self, scheduler: FairScheduler, tenant: str) -> None:
        self.scheduler = scheduler
        self.tenant = tenant
        self.workers = scheduler.config.workers

    def imap_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: int | None = None,
    ) -> Iterator[Any]:
        # submit eagerly (work starts regardless of consumption pace),
        # yield lazily in input order
        pending = [self.scheduler.submit(self.tenant, fn, item) for item in items]

        def _results() -> Iterator[Any]:
            for work in pending:
                work.done.wait()
                if work.error is not None:
                    raise work.error
                yield work.result

        return _results()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TenantExecutor(tenant={self.tenant!r}, workers={self.workers})"
