"""Per-service circuit breaker with closed / open / half-open states.

Standard semantics: ``failure_threshold`` consecutive failures trip the
breaker (closed -> open); while open, calls are short-circuited without
dialing the service; after ``recovery_ticks`` of simulated time the
breaker admits up to ``half_open_max_calls`` probe calls (open ->
half-open); ``success_threshold`` probe successes re-close it, any probe
failure re-opens it.

Time is a logical clock: every :meth:`allow` / :meth:`record_success` /
:meth:`record_failure` advances one tick.  This keeps breaker behaviour
fully deterministic for a fixed call sequence — no wall-clock — while
preserving the real state machine.

The one breaker that runs is the
:class:`~repro.scheduler.governor.ServiceGovernor`'s: one per service,
shared by every tenant, and it only paces dials (an open breaker turns
a call into waits), so its order-dependent state never reaches a value.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from repro.core.exceptions import ConfigurationError

__all__ = ["CircuitState", "CircuitConfig", "CircuitBreaker"]


class CircuitState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class CircuitConfig:
    failure_threshold: int = 5
    recovery_ticks: int = 20
    half_open_max_calls: int = 1
    success_threshold: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.recovery_ticks < 1:
            raise ConfigurationError("recovery_ticks must be >= 1")
        if self.half_open_max_calls < 1:
            raise ConfigurationError("half_open_max_calls must be >= 1")
        if self.success_threshold < 1:
            raise ConfigurationError("success_threshold must be >= 1")


class CircuitBreaker:
    """Thread-safe breaker guarding one service."""

    def __init__(self, config: CircuitConfig | None = None, name: str = ""):
        self.config = config or CircuitConfig()
        self.name = name
        self._state = CircuitState.CLOSED
        self._clock = 0
        self._opened_at = 0
        self._consecutive_failures = 0
        self._half_open_in_flight = 0
        self._half_open_successes = 0
        self.trips = 0
        self.short_circuits = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # locks don't pickle; each process-pool worker gets its own.
        # Snapshot under the lock: a concurrent record_failure() mid-copy
        # must not yield a torn view (e.g. OPEN state with a stale
        # _opened_at), and dict iteration races with mutation.
        with self._lock:
            return {k: v for k, v in self.__dict__.items() if k != "_lock"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def state(self) -> CircuitState:
        with self._lock:
            return self._state

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def allow(self) -> bool:
        """Whether the next call may dial the service.

        Advances the logical clock; a ``False`` return counts as a
        short-circuit.
        """
        with self._lock:
            now = self._tick()
            if self._state is CircuitState.OPEN:
                if now - self._opened_at >= self.config.recovery_ticks:
                    self._state = CircuitState.HALF_OPEN
                    self._half_open_in_flight = 0
                    self._half_open_successes = 0
                else:
                    self.short_circuits += 1
                    return False
            if self._state is CircuitState.HALF_OPEN:
                if self._half_open_in_flight >= self.config.half_open_max_calls:
                    self.short_circuits += 1
                    return False
                self._half_open_in_flight += 1
            return True

    def record_success(self) -> None:
        with self._lock:
            self._tick()
            self._consecutive_failures = 0
            if self._state is CircuitState.HALF_OPEN:
                self._half_open_successes += 1
                self._half_open_in_flight = max(0, self._half_open_in_flight - 1)
                if self._half_open_successes >= self.config.success_threshold:
                    self._state = CircuitState.CLOSED

    def record_failure(self) -> bool:
        """Record one failed dial; returns whether *this call* tripped
        the breaker.

        The return value exists so callers can attribute a trip to a
        specific failure without a read-modify-write over ``trips``
        spanning two lock acquisitions (which double-counts under
        concurrent failers).
        """
        with self._lock:
            now = self._tick()
            self._consecutive_failures += 1
            if self._state is CircuitState.HALF_OPEN:
                self._trip(now)
                return True
            if (
                self._state is CircuitState.CLOSED
                and self._consecutive_failures >= self.config.failure_threshold
            ):
                self._trip(now)
                return True
            return False

    def _trip(self, now: int) -> None:
        self._state = CircuitState.OPEN
        self._opened_at = now
        self._consecutive_failures = 0
        self._half_open_in_flight = 0
        self._half_open_successes = 0
        self.trips += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker(name={self.name!r}, state={self._state.value}, "
            f"trips={self.trips})"
        )
