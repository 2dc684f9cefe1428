"""Featurization pipeline: corpus x resources -> FeatureTable.

This is the paper's feature-generation step (§3) run on the MapReduce
substrate ("We implement the feature engineering and LF pipeline using
our MapReduce framework").  Each point gets its own derived RNG, so the
output is deterministic and independent of partitioning or thread
scheduling, and featurizing the same corpus with a *subset* of resources
yields values identical to selecting columns from the full run.

The streams are keyed by ``feat/{point}/{resource}`` and are exactly the
ones :func:`~repro.core.rng.spawn` returns for those tags, but
:func:`featurize_corpus` *derives* them for the whole corpus in one
vectorized pass (:func:`~repro.core.rng.spawn_states`) before mapping,
and each point's task loads its rows into one reusable generator.

When a :class:`~repro.resilience.policy.ResiliencePolicy` is supplied,
every (point, resource) call is guarded: transient service faults are
retried with backoff, exhausted calls degrade through the policy's
fallback chain to :data:`MISSING` instead of aborting the run, and the
returned table carries a :class:`DegradationReport`.  The value RNG is
re-derived per attempt, so a retried call that eventually succeeds
yields exactly the value a fault-free run would have produced — a
resilient run with the same seed is bit-identical across thread counts.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

import numpy as np

import repro.obs as obs
from repro.core.exceptions import ConfigurationError
from repro.core.rng import reseed, spawn_states
from repro.dataflow.mapreduce import run_map
from repro.exec import Executor, ExecutorConfig, as_executor
from repro.datagen.corpus import Corpus
from repro.datagen.entities import DataPoint, Modality
from repro.features.schema import FeatureSchema
from repro.features.table import MISSING, FeatureTable
from repro.resilience.policy import (
    DegradationEvent,
    DegradationReport,
    ResiliencePolicy,
)
from repro.resources.base import OrganizationalResource

__all__ = ["featurize_corpus", "featurize_point"]


def _point_records(
    seed: int,
    points: Sequence[DataPoint],
    resources: Sequence[OrganizationalResource],
) -> list[tuple[DataPoint, np.ndarray]]:
    """Pair every point with its stream rows: one :func:`spawn_states`
    row per supporting resource, in resource order.  The whole list's
    rows come from one derivation pass and are slices of one array."""
    supported: dict[Modality, list[str]] = {}
    for point in points:
        if point.modality not in supported:
            supported[point.modality] = [
                r.name for r in resources if r.supports(point.modality)
            ]
    states = spawn_states(
        seed,
        (
            f"feat/{point.point_id}/{name}"
            for point in points
            for name in supported[point.modality]
        ),
    )
    records = []
    start = 0
    for point in points:
        stop = start + len(supported[point.modality])
        records.append((point, states[start:stop]))
        start = stop
    return records


def featurize_point(
    point: DataPoint,
    resources: Iterable[OrganizationalResource],
    seed: int = 0,
    policy: ResiliencePolicy | None = None,
    events: list[DegradationEvent] | None = None,
    latencies: list[tuple[str, float]] | None = None,
    states: np.ndarray | None = None,
) -> dict[str, object]:
    """Apply every supporting resource to one point.

    Each (point, resource) pair draws from its own derived RNG stream,
    so values do not depend on which other resources run.  ``states``
    holds the point's stream rows (one per supporting resource, in
    order); :func:`featurize_corpus` passes each point its slice of the
    corpus's rows, and without it the point derives its own.  With a
    ``policy``, service faults degrade to :data:`MISSING` under the
    policy's retry/fallback rules and per-cell
    :class:`DegradationEvent`\\ s are appended to ``events`` (when
    provided).  ``latencies`` (only passed by traced runs) collects one
    ``(service, seconds)`` sample per applied resource.
    """
    resources = list(resources)
    if states is None:
        [(_, states)] = _point_records(seed, [point], resources)
    cell_states = iter(states.tolist())
    # one generator per point, reloaded for every cell (and, under a
    # policy, for every attempt)
    rng = np.random.default_rng(0)
    row: dict[str, object] = {}
    for resource in resources:
        if not resource.supports(point.modality):
            row[resource.name] = MISSING
            continue
        state = next(cell_states)
        if latencies is None:
            if policy is None:
                row[resource.name] = resource.apply(point, reseed(rng, state))
                continue
            value, event = policy.call(
                resource, point, rng_factory=lambda: reseed(rng, state), seed=seed
            )
        else:
            t0 = time.perf_counter()
            if policy is None:
                value, event = resource.apply(point, reseed(rng, state)), None
            else:
                value, event = policy.call(
                    resource, point, rng_factory=lambda: reseed(rng, state), seed=seed
                )
            latencies.append((resource.name, time.perf_counter() - t0))
        row[resource.name] = value
        if event is not None and events is not None:
            events.append(event)
    return row


class _PlainFeaturizeTask:
    """Picklable per-point featurization task (no policy, untraced).

    A module-level task object — not a closure — so the process backend
    can ship it to workers; its state is the resource list and the
    featurization seed, and each record is a ``(point, states)`` pair
    carrying the point's stream rows, which is all the determinism
    contract needs.
    """

    __slots__ = ("resources", "seed")

    def __init__(
        self, resources: list[OrganizationalResource], seed: int
    ) -> None:
        self.resources = resources
        self.seed = seed

    def __call__(self, record: tuple[DataPoint, np.ndarray]) -> dict[str, object]:
        point, states = record
        return featurize_point(point, self.resources, seed=self.seed, states=states)


class _RichFeaturizeTask:
    """Picklable per-point task collecting degradation events and
    (optionally) per-service latencies alongside the feature row.

    Events and latencies return *as data* and are folded into the
    report / trace on the coordinator, so a traced process worker —
    which carries no tracer — loses no accounting.  A policy runs only
    on the serial and thread backends (see :func:`featurize_corpus`),
    where every worker dials through the caller's one policy object.
    """

    __slots__ = ("resources", "seed", "policy", "collect_latencies")

    def __init__(
        self,
        resources: list[OrganizationalResource],
        seed: int,
        policy: ResiliencePolicy | None,
        collect_latencies: bool,
    ) -> None:
        self.resources = resources
        self.seed = seed
        self.policy = policy
        self.collect_latencies = collect_latencies

    def __call__(
        self, record: tuple[DataPoint, np.ndarray]
    ) -> tuple[dict[str, object], list, list]:
        point, states = record
        local_events: list[DegradationEvent] = []
        local_latencies: list[tuple[str, float]] = []
        row = featurize_point(
            point,
            self.resources,
            seed=self.seed,
            policy=self.policy,
            events=local_events,
            latencies=local_latencies if self.collect_latencies else None,
            states=states,
        )
        return row, local_events, local_latencies


def featurize_corpus(
    corpus: Corpus,
    resources: list[OrganizationalResource],
    seed: int = 0,
    include_labels: bool = False,
    policy: ResiliencePolicy | None = None,
    executor: Executor | ExecutorConfig | str | None = None,
) -> FeatureTable:
    """Featurize a corpus into a row-aligned :class:`FeatureTable`.

    ``include_labels=True`` attaches the corpus's ground-truth labels —
    only do this for corpora the pipeline is allowed to see labels for
    (old-modality training data, dev sets, test sets).

    With a ``policy``, the run survives service faults: failed cells
    degrade per the policy and ``table.degradation`` reports every
    retried or degraded (point, resource) pair in row order.

    ``executor`` selects the execution backend (serial, thread, or
    process); every point's value derives from its own
    ``(seed, point, resource)`` RNG stream — derived here for the whole
    corpus, before mapping — and rows merge in input order, so all
    backends produce the byte-identical table.  A ``policy`` cannot run
    on the process backend: each worker would dial through its own
    pickled copy, and the caller's policy would account for nothing.
    """
    executor = as_executor(executor)
    if policy is not None and executor.backend == "process":
        raise ConfigurationError(
            "a resilience policy cannot run on the process backend: worker "
            "processes dial through pickled copies of it, so its health "
            "accounting is lost — featurize on the serial or thread backend"
        )
    schema = FeatureSchema(r.spec for r in resources)
    traced = obs.enabled()

    with obs.span(
        "featurize_corpus",
        corpus=corpus.name,
        n_points=len(corpus.points),
        n_resources=len(resources),
    ) as sp:
        # every supported cell's stream, derived in one pass; each
        # point's record carries its rows, so all backends load the
        # same streams
        records = _point_records(seed, corpus.points, resources)
        if policy is None and not traced:
            rows = run_map(
                records,
                _PlainFeaturizeTask(resources, seed),
                executor=executor,
            )
            report = None
        else:
            mapped = run_map(
                records,
                _RichFeaturizeTask(resources, seed, policy, collect_latencies=traced),
                executor=executor,
            )
            rows = [row for row, _, _ in mapped]
            if policy is None:
                report = None
            else:
                report = DegradationReport(
                    events=[e for _, local, _ in mapped for e in local],
                    n_cells=len(corpus.points) * len(resources),
                )
            if traced:
                # per-service call counters + latency histograms,
                # aggregated on the coordinating thread
                for _, _, local_latencies in mapped:
                    for service, seconds in local_latencies:
                        sp.add_counter(f"calls/{service}")
                        sp.observe(f"latency_s/{service}", seconds)

        if traced and report is not None:
            # degradation accounting fed from the resilience layer
            sp.add_counter("cells_degraded", report.n_degraded)
            sp.add_counter("cells_recovered", report.n_recovered)
            sp.add_counter("service_retries", report.total_retries)
            for service, count in sorted(report.by_service().items()):
                sp.add_counter(f"degraded/{service}", count)
            if policy is not None:
                health = policy.health_report()
                sp.set_gauge("service_failure_rates", {
                    name: round(h.failure_rate, 4)
                    for name, h in sorted(health.services.items())
                    if h.attempts
                })

        columns: dict[str, list[object]] = {name: [] for name in schema.names}
        for row in rows:
            for name in schema.names:
                columns[name].append(row[name])
        sp.add_counter("cells", len(corpus.points) * len(resources))
    return FeatureTable(
        schema=schema,
        columns=columns,
        point_ids=corpus.point_ids,
        modalities=[p.modality for p in corpus.points],
        labels=corpus.labels if include_labels else None,
        degradation=report,
    )
