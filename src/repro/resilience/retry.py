"""Exponential backoff with deterministic jitter.

The retry loop itself is :meth:`repro.resilience.ResiliencePolicy.call`,
the one place a call is retried; this module holds its schedule.

Delays are *simulated*: callers accumulate them into health stats
instead of sleeping, so fault-injection experiments run at full speed
while still modelling the latency cost of a retry storm.  Jitter is
drawn from a caller-supplied RNG so the full schedule is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ConfigurationError

__all__ = ["RetryConfig", "backoff_delay"]


@dataclass(frozen=True)
class RetryConfig:
    """Exponential-backoff retry policy.

    ``max_attempts`` counts the initial call, so ``max_attempts=1``
    disables retrying.  The delay before attempt ``k`` (k >= 2) is
    ``min(base_delay * multiplier**(k-2), max_delay)`` scaled by a
    deterministic jitter factor in ``[1-jitter, 1+jitter]``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be non-negative")


def backoff_delay(
    config: RetryConfig, attempt: int, rng: np.random.Generator
) -> float:
    """Simulated delay before retry number ``attempt`` (1-based)."""
    if attempt < 1:
        raise ConfigurationError("attempt must be >= 1")
    raw = min(
        config.base_delay * config.multiplier ** (attempt - 1), config.max_delay
    )
    if config.jitter == 0.0:
        return raw
    return raw * (1.0 + config.jitter * (2.0 * rng.random() - 1.0))
