"""Fallback chain: stale cache -> substitute service -> MISSING.

When retries are exhausted (or a breaker is open) the resilience layer
degrades instead of failing the run, in escalating order of quality
loss:

1. **stale cache** — the last value this service successfully returned
   for the same point (a prior featurization pass, a warm serving
   cache);
2. **substitute service** — a sibling resource from the same
   ``service_set`` producing the same feature kind (the paper's service
   sets group redundant views of the same upstream signal: e.g.
   ``page_topics`` standing in for ``topics``);
3. **MISSING** — the paper's own missing-feature semantics (§6.6):
   models already tolerate empty features, so a blank cell is the
   graceful floor.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable

from repro.core.exceptions import ConfigurationError, ServiceError
from repro.core.rng import spawn
from repro.datagen.entities import DataPoint
from repro.features.schema import FeatureKind
from repro.features.table import MISSING
from repro.resources.base import OrganizationalResource

__all__ = ["StaleValueCache", "FallbackChain", "build_substitute_map"]


class StaleValueCache:
    """Thread-safe (service, point_id) -> last successful value store.

    Bounded: ``capacity`` caps the number of entries; inserting past it
    evicts the least-recently-used entry (both :meth:`get` and
    :meth:`put` count as use).  ``capacity=None`` means unbounded — fine
    for batch runs, a memory leak for a long-lived serving process.

    Every entry records its insert time (``clock``, default
    :func:`time.monotonic`; injectable for tests), refreshed on each
    :meth:`put`.  The timestamp is what the serving layer's TTL tier is
    built on; the fallback chain itself ignores age — any stale value
    beats a substitute or a missing cell.
    """

    def __init__(
        self,
        capacity: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError("capacity must be >= 1 (or None)")
        self.capacity = capacity
        self._clock = clock
        #: key -> (value, inserted_at); insertion order is LRU order
        self._values: OrderedDict[tuple[str, int], tuple[object, float]] = (
            OrderedDict()
        )
        #: entries dropped to keep the cache within capacity
        self.evictions = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # locks don't pickle; snapshot under the lock so a concurrent
        # put() can't resize the dict mid-copy.  A non-default clock
        # must itself be picklable (time.monotonic is).
        with self._lock:
            state = {k: v for k, v in self.__dict__.items() if k != "_lock"}
            state["_values"] = OrderedDict(state["_values"])
            return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def put(self, service: str, point_id: int, value: object) -> None:
        with self._lock:
            key = (service, point_id)
            if key in self._values:
                self._values.move_to_end(key)
            self._values[key] = (value, self._clock())
            while self.capacity is not None and len(self._values) > self.capacity:
                self._values.popitem(last=False)
                self.evictions += 1

    def get(self, service: str, point_id: int) -> tuple[bool, object]:
        """(hit, value); a cached ``None`` (no output) is a valid hit."""
        hit, value, _ = self.entry(service, point_id)
        return hit, value

    def entry(self, service: str, point_id: int) -> tuple[bool, object, float]:
        """(hit, value, inserted_at); a hit refreshes LRU recency.

        ``inserted_at`` is the cache clock's reading when the entry was
        last :meth:`put` (0.0 on a miss) — the substrate for TTL
        freshness decisions.
        """
        with self._lock:
            key = (service, point_id)
            if key in self._values:
                self._values.move_to_end(key)
                value, inserted_at = self._values[key]
                return True, value, inserted_at
            return False, MISSING, 0.0

    def now(self) -> float:
        """The cache clock's current reading (comparable to
        ``inserted_at`` from :meth:`entry`)."""
        return self._clock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)


def build_substitute_map(
    resources: Iterable[OrganizationalResource],
) -> dict[str, list[OrganizationalResource]]:
    """Same-service-set, same-kind substitutes for each resource.

    Substitutes keep catalog order, so the chain is deterministic.
    Resources without a service set (or with no same-kind sibling) get
    an empty list.

    Numeric features never substitute: two numeric siblings in a
    service set usually score on different scales (a historical *rate*
    vs. a raw *count*), so standing one in for the other poisons the
    column — measurably worse than a missing value (the chaos
    experiment shows an AUPRC cliff with numeric substitution on).
    Categorical token sets and same-dimension embeddings degrade far
    more benignly.
    """
    resources = list(resources)
    substitutes: dict[str, list[OrganizationalResource]] = {}
    for resource in resources:
        spec = resource.spec
        subs = []
        if spec.service_set is not None and spec.kind is not FeatureKind.NUMERIC:
            for other in resources:
                if other.name == resource.name:
                    continue
                if (
                    other.spec.service_set == spec.service_set
                    and other.spec.kind is spec.kind
                ):
                    subs.append(other)
        substitutes[resource.name] = subs
    return substitutes


class FallbackChain:
    """Resolves a degraded value for a failed (service, point) call."""

    def __init__(
        self,
        substitutes: dict[str, list[OrganizationalResource]] | None = None,
        stale_cache: StaleValueCache | None = None,
    ) -> None:
        self.substitutes = dict(substitutes or {})
        self.stale_cache = stale_cache

    def resolve(
        self, service: str, point: DataPoint, seed: int
    ) -> tuple[object, str]:
        """(value, source) where source is ``stale_cache``,
        ``substitute:<name>``, or ``missing``.

        Substitute calls use the substitute's *own* per-point RNG tag,
        so the stand-in value equals what that sibling service would
        have produced anyway — deterministic and consistent with a
        featurization run that included it.  A substitute that itself
        raises a :class:`ServiceError` is skipped (fault cascades fall
        through to the next link).
        """
        if self.stale_cache is not None:
            hit, value = self.stale_cache.get(service, point.point_id)
            if hit:
                return value, "stale_cache"
        for substitute in self.substitutes.get(service, ()):
            if not substitute.supports(point.modality):
                continue
            rng = spawn(seed, f"feat/{point.point_id}/{substitute.name}")
            try:
                return substitute.apply(point, rng), f"substitute:{substitute.name}"
            except ServiceError:
                continue
        return MISSING, "missing"
