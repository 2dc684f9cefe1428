"""Composable resilience policy and per-service health accounting.

:class:`ResiliencePolicy` is the single entry point the featurization
layer talks to: it wraps one (resource, point) call with retry +
exponential backoff (deterministic jitter) and a fallback chain, while
recording per-service :class:`ServiceHealth` stats and emitting a
:class:`DegradationEvent` for every call that needed more than one
clean dial.

Determinism: a policy's results are independent of thread
interleaving.  Backoff jitter draws from a stream derived per
(service, point) at the call's first retry, and fault schedules live
in the wrapped :class:`~repro.resilience.faults.ServiceClient`, keyed
by (service, point, attempt), so a retry+fallback policy produces
bit-identical results for any thread count.  An optional shared
governor paces dials but never changes a value.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.exceptions import (
    DeadlineExceeded,
    ServiceUnavailableError,
    TransientServiceError,
)
from repro.core.rng import spawn
from repro.datagen.entities import DataPoint
from repro.features.table import MISSING
from repro.resilience.deadline import Deadline
from repro.resilience.fallback import FallbackChain
from repro.resilience.retry import RetryConfig, backoff_delay
from repro.resources.base import OrganizationalResource

__all__ = [
    "ServiceHealth",
    "HealthReport",
    "DegradationEvent",
    "DegradationReport",
    "ResiliencePolicy",
]


@dataclass
class ServiceHealth:
    """Counters for one service under a policy."""

    service: str
    attempts: int = 0
    successes: int = 0
    failures: int = 0
    retries: int = 0
    fallbacks: int = 0
    deadline_exceeded: int = 0
    simulated_delay: float = 0.0

    @property
    def failure_rate(self) -> float:
        return self.failures / self.attempts if self.attempts else 0.0


@dataclass
class HealthReport:
    """Snapshot of every service's health under one policy."""

    services: dict[str, ServiceHealth]

    @property
    def total_attempts(self) -> int:
        return sum(h.attempts for h in self.services.values())

    @property
    def total_retries(self) -> int:
        return sum(h.retries for h in self.services.values())

    @property
    def total_fallbacks(self) -> int:
        return sum(h.fallbacks for h in self.services.values())

    @property
    def total_deadline_exceeded(self) -> int:
        return sum(h.deadline_exceeded for h in self.services.values())

    def render(self) -> str:
        header = (
            f"{'service':<22} {'attempts':>8} {'fail':>6} {'retry':>6} "
            f"{'fallbk':>6} {'delay(s)':>9}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.services):
            h = self.services[name]
            lines.append(
                f"{name:<22} {h.attempts:>8} {h.failures:>6} {h.retries:>6} "
                f"{h.fallbacks:>6} {h.simulated_delay:>9.2f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class DegradationEvent:
    """One (point, service) call that did not succeed on a clean first
    dial.  ``outcome`` is ``recovered`` (a retry eventually succeeded),
    ``stale_cache``, ``substitute:<name>``, or ``missing``."""

    point_id: int
    service: str
    outcome: str
    retries: int = 0
    error: str | None = None

    @property
    def degraded(self) -> bool:
        """Whether the cell's value is not the primary fresh response."""
        return self.outcome != "recovered"


@dataclass
class DegradationReport:
    """Degradation summary a resilient featurization run hands back."""

    events: list[DegradationEvent] = field(default_factory=list)
    n_cells: int = 0

    @property
    def n_recovered(self) -> int:
        return sum(1 for e in self.events if e.outcome == "recovered")

    @property
    def n_degraded(self) -> int:
        return sum(1 for e in self.events if e.degraded)

    @property
    def n_missing(self) -> int:
        return sum(1 for e in self.events if e.outcome == "missing")

    @property
    def total_retries(self) -> int:
        return sum(e.retries for e in self.events)

    @property
    def degraded_fraction(self) -> float:
        return self.n_degraded / self.n_cells if self.n_cells else 0.0

    @property
    def ok(self) -> bool:
        return self.n_degraded == 0

    def by_service(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            if event.degraded:
                out[event.service] = out.get(event.service, 0) + 1
        return out

    def by_outcome(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            out[event.outcome] = out.get(event.outcome, 0) + 1
        return out

    def render(self) -> str:
        lines = [
            f"degradation: {self.n_degraded}/{self.n_cells} cells degraded "
            f"({self.degraded_fraction:.1%}), {self.n_recovered} recovered "
            f"via {self.total_retries} retries"
        ]
        for outcome, count in sorted(self.by_outcome().items()):
            lines.append(f"  {outcome:<20} {count}")
        return "\n".join(lines)


class ResiliencePolicy:
    """Retry + fallback around resource service calls.

    Parameters
    ----------
    retry:
        Backoff policy (defaults to 3 attempts).
    fallback:
        Chain consulted when attempts are exhausted; ``None`` degrades
        straight to :data:`MISSING`.
    seed:
        Seeds the backoff-jitter streams.
    governor:
        Optional shared :class:`~repro.scheduler.ServiceGovernor`.
        When set, every dial first passes through the governor's
        per-service token bucket and process-shared breaker — both act
        purely on *wall-clock pacing* (waits, never value changes), so
        governed results stay bit-identical to ungoverned ones.
    deadline_budget:
        Optional simulated-seconds budget per guarded call.  Backoff
        delays are charged against it; a backoff that no longer fits is
        capped and the call degrades via :class:`DeadlineExceeded`
        (counted in ``ServiceHealth.deadline_exceeded``).  Deterministic:
        simulated time only.
    """

    def __init__(
        self,
        retry: RetryConfig | None = None,
        fallback: FallbackChain | None = None,
        seed: int = 0,
        governor: "ServiceGovernorProtocol | None" = None,
        deadline_budget: float | None = None,
    ) -> None:
        self.retry = retry or RetryConfig()
        self.fallback = fallback
        self.seed = seed
        self.governor = governor
        self.deadline_budget = deadline_budget
        self._health: dict[str, ServiceHealth] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # snapshot under the lock so a concurrent call() can't mutate
        # (or resize) _health mid-copy
        with self._lock:
            state = {k: v for k, v in self.__dict__.items() if k != "_lock"}
            state["_health"] = dict(state["_health"])
            return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # state accessors
    # ------------------------------------------------------------------
    def health(self, service: str) -> ServiceHealth:
        with self._lock:
            if service not in self._health:
                self._health[service] = ServiceHealth(service=service)
            return self._health[service]

    def health_report(self) -> HealthReport:
        with self._lock:
            return HealthReport(
                services={
                    name: ServiceHealth(**vars(h))
                    for name, h in self._health.items()
                }
            )

    # ------------------------------------------------------------------
    # the guarded call
    # ------------------------------------------------------------------
    def call(
        self,
        resource: OrganizationalResource,
        point: DataPoint,
        rng_factory: Callable[[], np.random.Generator],
        seed: int = 0,
    ) -> tuple[object, DegradationEvent | None]:
        """Apply ``resource`` to ``point`` under this policy.

        ``rng_factory`` builds a *fresh* value-RNG per attempt, so a
        retried call that finally succeeds yields exactly the value a
        fault-free run would have produced.  ``seed`` is the
        featurization seed, forwarded to substitute-service fallbacks.
        Returns ``(value, event)``; ``event`` is ``None`` for a clean
        first-dial success.
        """
        name = resource.name
        health = self.health(name)

        # derived at the first retry: a clean first dial never draws
        # jitter, and a retried call consumes the stream in the same
        # order whenever it is derived
        backoff_rng: np.random.Generator | None = None
        deadline = (
            Deadline(self.deadline_budget)
            if self.deadline_budget is not None
            else None
        )
        retries = 0
        delay = 0.0
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            if self.governor is not None:
                # wall-clock pacing only (token bucket + shared breaker
                # dial-rate); never changes the value path
                self.governor.acquire(name)
            with self._lock:
                health.attempts += 1
            try:
                value = resource.apply(point, rng_factory())
            except TransientServiceError as exc:
                last_error = exc
                with self._lock:
                    health.failures += 1
                if self.governor is not None:
                    self.governor.on_failure(name)
                if attempt + 1 < self.retry.max_attempts:
                    if backoff_rng is None:
                        backoff_rng = spawn(
                            self.seed, f"backoff/{name}/{point.point_id}"
                        )
                    step = backoff_delay(self.retry, attempt + 1, backoff_rng)
                    if deadline is not None:
                        capped = deadline.cap(step)
                        deadline.consume(capped)
                        delay += capped
                        if capped < step:
                            # the full backoff no longer fits: pay the
                            # remainder, stop retrying, degrade
                            last_error = DeadlineExceeded(
                                f"deadline budget {deadline.budget}s "
                                f"exhausted after attempt {attempt + 1} "
                                f"for service {name!r} "
                                f"(point {point.point_id})"
                            )
                            last_error.__cause__ = exc
                            with self._lock:
                                health.deadline_exceeded += 1
                            break
                    else:
                        delay += step
                    retries += 1
                    with self._lock:
                        health.retries += 1
                continue
            except ServiceUnavailableError as exc:
                last_error = exc
                with self._lock:
                    health.failures += 1
                if self.governor is not None:
                    self.governor.on_failure(name)
                break
            else:
                with self._lock:
                    health.successes += 1
                    health.simulated_delay += delay
                if self.governor is not None:
                    self.governor.on_success(name)
                if self.fallback is not None and self.fallback.stale_cache is not None:
                    self.fallback.stale_cache.put(name, point.point_id, value)
                event = None
                if retries:
                    event = DegradationEvent(
                        point_id=point.point_id,
                        service=name,
                        outcome="recovered",
                        retries=retries,
                    )
                return value, event

        with self._lock:
            health.simulated_delay += delay
        return self._degrade(
            name, point, seed, health, retries=retries, error=str(last_error)
        )

    def _degrade(
        self,
        service: str,
        point: DataPoint,
        seed: int,
        health: ServiceHealth,
        retries: int,
        error: str | None,
    ) -> tuple[object, DegradationEvent]:
        with self._lock:
            health.fallbacks += 1
        if self.fallback is not None:
            value, source = self.fallback.resolve(service, point, seed)
        else:
            value, source = MISSING, "missing"
        event = DegradationEvent(
            point_id=point.point_id,
            service=service,
            outcome=source,
            retries=retries,
            error=error,
        )
        return value, event
