"""Resilient service layer: fault injection, retry, breaker, fallback.

The paper runs feature generation against dozens of organizational
resources exposed as remote services, where partial failure is routine.
This subpackage simulates that reality and defends against it:

* :mod:`repro.resilience.faults` — deterministic, seeded transient
  fault injection wrapping any resource in a flaky
  :class:`ServiceClient`;
* :mod:`repro.resilience.retry` — the exponential-backoff schedule
  with deterministic jitter (simulated delays, no wall-clock sleeps);
* :mod:`repro.resilience.circuit` — the closed/open/half-open circuit
  breaker on a logical clock, run per service by the multi-tenant
  :class:`~repro.scheduler.governor.ServiceGovernor`;
* :mod:`repro.resilience.deadline` — the per-call simulated-time
  budget that caps retry backoff;
* :mod:`repro.resilience.fallback` — stale-cache -> substitute-service
  -> MISSING degradation chain;
* :mod:`repro.resilience.policy` — the composable
  :class:`ResiliencePolicy` tying it together — its ``call`` is the
  one retry loop in the package — with per-service
  :class:`ServiceHealth` stats and per-cell degradation events.

``featurize_corpus(..., policy=...)`` threads a policy through the
featurization map so a failed (point, resource) pair degrades to
a missing cell instead of aborting the run, and the returned table
carries a :class:`DegradationReport`.
"""

from repro.resilience.circuit import CircuitBreaker, CircuitConfig, CircuitState
from repro.resilience.deadline import Deadline
from repro.resilience.fallback import (
    FallbackChain,
    StaleValueCache,
    build_substitute_map,
)
from repro.resilience.faults import FaultInjector, FaultSpec, ServiceClient
from repro.resilience.policy import (
    DegradationEvent,
    DegradationReport,
    HealthReport,
    ResiliencePolicy,
    ServiceHealth,
)
from repro.resilience.retry import RetryConfig, backoff_delay

__all__ = [
    "CircuitBreaker",
    "CircuitConfig",
    "CircuitState",
    "Deadline",
    "DegradationEvent",
    "DegradationReport",
    "FallbackChain",
    "FaultInjector",
    "FaultSpec",
    "HealthReport",
    "ResiliencePolicy",
    "RetryConfig",
    "ServiceClient",
    "ServiceHealth",
    "StaleValueCache",
    "backoff_delay",
    "build_substitute_map",
]
