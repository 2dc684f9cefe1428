"""Deterministic fault injection for simulated resource services.

The paper's pipeline calls organizational resources as remote services,
where partial failure is the norm.  This module turns any in-process
:class:`~repro.resources.base.OrganizationalResource` into a simulated
RPC :class:`ServiceClient` that fails transiently at the rate a
:class:`FaultSpec` sets: a failed call raises
:class:`~repro.core.exceptions.TransientServiceError` (a flaky network,
a straggler), and a retry of the same call may succeed.

The schedule is deterministic: every (service, point, attempt) triple
derives its own RNG stream via :func:`repro.core.rng.spawn`, whose first
uniform decides the fault, so a schedule is reproducible bit-for-bit
given a seed — independent of thread scheduling and of which other
services run.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ConfigurationError, TransientServiceError
from repro.core.rng import spawn
from repro.datagen.entities import DataPoint
from repro.resources.base import OrganizationalResource

__all__ = ["FaultSpec", "FaultInjector", "ServiceClient"]


@dataclass(frozen=True)
class FaultSpec:
    """Fault configuration for one simulated service: the per-call
    probability ``transient_rate`` that a dial raises
    :class:`TransientServiceError`."""

    transient_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.transient_rate <= 1.0:
            raise ConfigurationError(
                f"transient_rate must be in [0, 1], got {self.transient_rate}"
            )

    @property
    def faultless(self) -> bool:
        return self.transient_rate == 0.0


class ServiceClient(OrganizationalResource):
    """An :class:`OrganizationalResource` behind a simulated flaky RPC.

    Wraps ``inner`` and re-raises scheduled faults from ``spec``.  The
    per-point attempt counter makes retries see *fresh* fault draws (the
    second attempt of a call is a different RPC), while keeping the
    schedule deterministic: attempt ``k`` of (service, point) always
    sees the same draw regardless of thread count or call interleaving.
    """

    def __init__(self, inner: OrganizationalResource, fault_spec: FaultSpec, seed: int = 0):
        super().__init__(inner.spec)
        self.inner = inner
        self.fault_spec = fault_spec
        self.seed = seed
        self.faults_raised = 0
        self._attempts: dict[int, int] = defaultdict(int)
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_lock"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _next_attempt(self, point_id: int) -> int:
        with self._lock:
            attempt = self._attempts[point_id]
            self._attempts[point_id] = attempt + 1
            return attempt

    def _compute(self, point: DataPoint, rng: np.random.Generator) -> object:
        # apply() in the base class handles modality/spec validation;
        # fault checks happen here so every dialed call sees them.
        spec = self.fault_spec
        attempt = self._next_attempt(point.point_id)
        if spec.faultless:
            return self.inner._compute(point, rng)
        fault_rng = spawn(self.seed, f"fault/{self.name}/{point.point_id}/{attempt}")
        if fault_rng.random() < spec.transient_rate:
            with self._lock:
                self.faults_raised += 1
            raise TransientServiceError(
                f"service {self.name!r} transient failure "
                f"(point {point.point_id}, attempt {attempt})"
            )
        return self.inner._compute(point, rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServiceClient({self.inner!r}, spec={self.fault_spec})"


class FaultInjector:
    """Factory wrapping resources in :class:`ServiceClient` instances.

    ``default`` applies to every service; ``overrides`` replaces the
    spec for named services (e.g. make one backend much flakier).  Each
    wrapped client derives its schedule from this injector's seed plus
    the service name, so two injectors with the same seed produce the
    identical fault schedule.
    """

    def __init__(
        self,
        default: FaultSpec,
        overrides: dict[str, FaultSpec] | None = None,
        seed: int = 0,
    ):
        self.default = default
        self.overrides = dict(overrides or {})
        self.seed = seed
        self._clients: list[ServiceClient] = []

    def spec_for(self, name: str) -> FaultSpec:
        return self.overrides.get(name, self.default)

    def wrap(self, resource: OrganizationalResource) -> ServiceClient:
        client = ServiceClient(resource, self.spec_for(resource.name), seed=self.seed)
        self._clients.append(client)
        return client

    def wrap_all(
        self, resources: list[OrganizationalResource]
    ) -> list[ServiceClient]:
        return [self.wrap(r) for r in resources]

    @property
    def total_faults(self) -> int:
        return sum(c.faults_raised for c in self._clients)
