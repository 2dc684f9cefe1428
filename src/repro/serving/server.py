"""The online decision service over a completed run's artifacts.

:class:`ModelServer` answers "is this point in the target class?" for
single data points, featurizing on demand through the same
:class:`~repro.resilience.policy.ResiliencePolicy` stack the batch
pipeline uses, with two serving-specific layers on top:

* a :class:`~repro.serving.cache.TTLFeatureCache` over the fallback
  chain's stale tier (fresh hit -> no dial; expired hit -> refresh
  through the policy, degrading to the stale entry if the dial fails);
* a :class:`~repro.serving.batcher.MicroBatcher` that coalesces
  concurrent requests into micro-batches.

**The determinism contract.**  A decision depends only on
``(run artifacts, catalog, point, availability schedule)`` — never on
batch composition, cache temperature, or thread interleaving:

* feature values re-derive the batch run's per-``(point, resource)``
  RNG streams from the recorded featurize seed, so an on-demand dial
  returns exactly the batch value;
* the cache is written only with policy-successful values (or the
  batch run's own table cells during warm-up), so a cache hit serves
  exactly what a dial would have computed;
* the model scores **one row at a time** even when requests arrive as
  a micro-batch.  BLAS kernels may choose different instruction
  schedules for different matrix shapes (a gemv for one row, a blocked
  gemm for eight), and float addition is not associative — per-point
  inference keeps the forward pass shape-stable so a decision cannot
  depend on which requests happened to share its batch.  Batching
  still amortizes queueing, locking, and cache probes, which is where
  the coordination cost lives for these small models.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.exceptions import ConfigurationError
from repro.core.rng import derive_seed, spawn
from repro.datagen.entities import DataPoint, Modality
from repro.features.schema import FeatureSchema
from repro.features.table import MISSING, FeatureTable
from repro.resilience.fallback import (
    FallbackChain,
    StaleValueCache,
    build_substitute_map,
)
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import RetryConfig
from repro.resources.base import OrganizationalResource
from repro.resources.service_sets import model_feature_schema
from repro.serving.artifacts import ServingArtifacts
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import TTLFeatureCache

__all__ = ["Decision", "ModelServer", "ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for one :class:`ModelServer`.

    ``cache_ttl_s=None`` never expires warm values (static corpus,
    batch values authoritative); ``0.0`` expires everything instantly
    (every request refreshes through the policy — the chaos-test
    setting).  ``cache_capacity=None`` is unbounded; bound it for a
    long-lived process.  ``threshold`` is the decision cut on P(y=1),
    matching the batch pipeline's ``f1@0.5`` operating point.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.002
    queue_capacity: int = 256
    cache_ttl_s: float | None = None
    cache_capacity: int | None = None
    warm_cache: bool = True
    threshold: float = 0.5
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError("threshold must be in (0, 1)")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")


@dataclass(frozen=True)
class Decision:
    """One served verdict.

    ``degraded`` lists ``"service:outcome"`` for every feature dial
    that did not succeed cleanly; ``cache`` counts how the point's
    feature reads classified (``fresh``/``stale``/``miss``).  Equality
    of decisions for identity checks should compare ``key`` — the
    value-bearing fields only, not the telemetry.
    """

    point_id: int
    score: float
    label: int
    degraded: tuple[str, ...] = ()
    cache: dict[str, int] = field(default_factory=dict)

    @property
    def key(self) -> tuple[int, float, int]:
        return (self.point_id, self.score, self.label)


class ModelServer:
    """Serve decisions from a completed run's artifacts.

    ``resources`` is the live service catalog (possibly fault-wrapped
    :class:`ServiceClient`\\ s); it must carry exactly the features the
    run was featurized with.
    """

    def __init__(
        self,
        artifacts: ServingArtifacts,
        resources: list[OrganizationalResource],
        config: ServingConfig | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        self.artifacts = artifacts
        resources = list(resources)
        artifacts.validate_catalog(resources)
        self._resources = {r.name: r for r in resources}
        #: full catalog schema in catalog order — selection below must
        #: mirror the batch pipeline's, which orders by catalog
        self.schema = FeatureSchema(r.spec for r in resources)
        store = StaleValueCache(capacity=self.config.cache_capacity)
        self.cache = TTLFeatureCache(store, ttl_s=self.config.cache_ttl_s)
        self.policy = ResiliencePolicy(
            retry=RetryConfig(max_attempts=self.config.max_attempts),
            fallback=FallbackChain(
                substitutes=build_substitute_map(resources),
                stale_cache=store,
            ),
            seed=derive_seed(artifacts.featurize_seed, "serving-policy"),
        )
        self.warmed = 0
        if self.config.warm_cache:
            for service, point_id, value in artifacts.warm_entries():
                store.put(service, point_id, value)
                self.warmed += 1
        self._schema_lock = threading.Lock()
        self._model_schemas: dict[Modality, FeatureSchema] = {}
        self._batcher = MicroBatcher(
            self.decide_batch,
            max_batch_size=self.config.max_batch_size,
            max_wait_s=self.config.max_wait_s,
            queue_capacity=self.config.queue_capacity,
        )

    # ------------------------------------------------------------------
    # feature selection (memoized per modality: on every request's path)
    # ------------------------------------------------------------------
    def model_schema(self, modality: Modality) -> FeatureSchema:
        """Servable features the deployed model consumes for ``modality``."""
        with self._schema_lock:
            if modality not in self._model_schemas:
                self._model_schemas[modality] = model_feature_schema(
                    self.schema,
                    self.artifacts.model_service_sets,
                    self.artifacts.include_image_features,
                    modality,
                )
            return self._model_schemas[modality]

    # ------------------------------------------------------------------
    # the decision path
    # ------------------------------------------------------------------
    def decide(self, point: DataPoint) -> Decision:
        """Serve one request through the micro-batcher (blocking)."""
        return self._batcher.submit(point)

    def decide_batch(self, points: list[DataPoint]) -> list[Decision]:
        """Serve a batch; each point is featurized and scored alone."""
        return [self._decide_point(p) for p in points]

    def _decide_point(self, point: DataPoint) -> Decision:
        schema = self.model_schema(point.modality)
        seed = self.artifacts.featurize_seed
        row: dict[str, object] = {}
        degraded: list[str] = []
        cache_counts = {"fresh": 0, "stale": 0, "miss": 0}
        for name in schema.names:
            resource = self._resources[name]
            if not resource.supports(point.modality):
                row[name] = MISSING
                continue
            state, cached = self.cache.lookup(name, point.point_id)
            cache_counts[state] += 1
            if state == "fresh":
                row[name] = cached
                continue
            # miss or expired: dial through the policy.  On success the
            # policy writes the fresh value back to the shared store;
            # on exhaustion its fallback chain finds the expired entry
            # in the stale tier and serves that.
            tag = f"feat/{point.point_id}/{name}"
            value, event = self.policy.call(
                resource,
                point,
                rng_factory=lambda: spawn(seed, tag),
                seed=seed,
            )
            row[name] = value
            if event is not None and event.degraded:
                degraded.append(f"{name}:{event.outcome}")
        table = FeatureTable(
            schema=schema,
            columns={name: [row[name]] for name in schema.names},
            point_ids=[point.point_id],
            modalities=[point.modality],
        )
        score = float(self.artifacts.model.predict_proba(table)[0])
        return Decision(
            point_id=point.point_id,
            score=score,
            label=int(score >= self.config.threshold),
            degraded=tuple(degraded),
            cache=cache_counts,
        )

    # ------------------------------------------------------------------
    # lifecycle / telemetry
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._batcher.close()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict[str, object]:
        health = self.policy.health_report()
        return {
            "batcher": self._batcher.stats(),
            "cache": self.cache.stats(),
            "warmed": self.warmed,
            "attempts": health.total_attempts,
            "retries": health.total_retries,
            "fallbacks": health.total_fallbacks,
        }
