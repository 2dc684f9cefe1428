"""Multi-tenant orchestration of concurrent pipeline runs.

N tenants — each a full cross-modal adaptation run with its own seed,
fault regime, and retry budget — execute concurrently against one
shared service catalog, one shared artifact store, and one shared
governor.  The orchestrator composes the scheduler building blocks:

* :class:`~repro.scheduler.governor.ServiceGovernor` — shared per-
  service token buckets, a process-shared circuit breaker, and a
  per-call deadline budget.  Pacing only: it delays calls, never
  changes their values.
* :class:`~repro.scheduler.fairqueue.FairScheduler` — stage work from
  every tenant flows through one weighted-fair-queued worker pool; a
  flooding tenant yields the floor instead of starving the rest.
* :class:`~repro.scheduler.dedup.StageDeduper` + a shared
  :class:`~repro.runs.store.RunStore` — identical stage work (same
  fingerprint) computes once; the other tenants decode the owner's
  artifacts.
* Admission control — at most ``max_active`` tenants run concurrently;
  arrivals beyond ``max_active + max_waiting`` are *shed*: they still
  run, but with a degraded retry budget (one attempt, leaning on the
  fallback chain), trading quality for load.

The determinism contract, which every piece above is built around:
**contention never changes values**.  All value-affecting state — fault
schedules, retry budgets, deadline budgets (simulated time), derived
RNG seeds — is per-tenant and configuration-determined, so a tenant's
outputs are bit-identical whether it runs alone or among N noisy
neighbours (:meth:`MultiTenantOrchestrator.run_solo` +
:meth:`TenantResult.matches` prove it per run).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import repro.obs as obs
from repro.core.config import PipelineConfig
from repro.core.exceptions import ConfigurationError
from repro.core.pipeline import CrossModalPipeline
from repro.core.rng import derive_seed
from repro.resilience import (
    FallbackChain,
    FaultInjector,
    FaultSpec,
    ResiliencePolicy,
    RetryConfig,
    build_substitute_map,
)
from repro.resources.catalog import ResourceCatalog
from repro.runs.checkpoint import RunCheckpointer
from repro.runs.store import RunStore, run_directory
from repro.scheduler.dedup import StageDeduper
from repro.scheduler.fairqueue import FairQueueConfig, FairScheduler
from repro.scheduler.governor import GovernorConfig, ServiceGovernor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.corpus import CorpusSplits
    from repro.datagen.world import TaskRuntime, World

__all__ = [
    "TenantSpec",
    "TenantResult",
    "OrchestratorConfig",
    "MultiTenantReport",
    "MultiTenantOrchestrator",
    "jain_index",
]


def jain_index(values: list[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` over non-negative
    allocations: 1.0 is perfectly fair, ``1/n`` maximally unfair."""
    xs = [float(v) for v in values]
    if not xs or all(x == 0.0 for x in xs):
        return 1.0
    total = sum(xs)
    return total * total / (len(xs) * sum(x * x for x in xs))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's run configuration.

    ``availability`` is the per-call success probability of the
    tenant's faulty services; ``faulty_services`` names which services
    fault (empty tuple = all of them).  All of these are value-
    affecting and flow into the run's checkpoint fingerprints.
    """

    name: str
    seed: int = 1
    weight: float = 1.0
    availability: float = 1.0
    faulty_services: tuple[str, ...] = ()
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if not 0.0 < self.availability <= 1.0:
            raise ConfigurationError(
                f"availability must be in (0, 1], got {self.availability}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")


@dataclass(frozen=True)
class OrchestratorConfig:
    """Shared-infrastructure sizing for one orchestrated batch.

    ``max_active`` bounds concurrently *running* tenants (0 =
    unbounded); ``max_waiting`` bounds the admission queue — tenants
    beyond ``max_active + max_waiting`` are shed into degraded mode
    (single attempt, fallback chain) instead of being rejected.
    """

    governor: GovernorConfig = field(default_factory=GovernorConfig)
    fair_queue: FairQueueConfig = field(default_factory=FairQueueConfig)
    max_active: int = 0
    max_waiting: int | None = None

    def __post_init__(self) -> None:
        if self.max_active < 0:
            raise ConfigurationError("max_active must be >= 0")
        if self.max_waiting is not None:
            if self.max_waiting < 0:
                raise ConfigurationError("max_waiting must be >= 0")
            if self.max_active == 0:
                raise ConfigurationError(
                    "max_waiting requires max_active > 0 (an unbounded "
                    "orchestrator has no admission queue to cap)"
                )


@dataclass
class TenantResult:
    """Everything one tenant's run produced (or the error that ended it)."""

    name: str
    seed: int
    availability: float
    ok: bool
    shed: bool
    max_attempts: int
    wall_s: float = 0.0
    error: str | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    #: {stage: fingerprint} and {stage: {artifact: content_hash}} from
    #: the tenant's manifest — the bit-identity comparison material
    stage_fingerprints: dict[str, str] = field(default_factory=dict)
    artifact_hashes: dict[str, dict[str, str]] = field(default_factory=dict)
    reused_stages: list[str] = field(default_factory=list)
    deduped_stages: list[str] = field(default_factory=list)
    #: resilience accounting sampled from this tenant's policy
    counters: dict[str, int] = field(default_factory=dict)

    def signature(self) -> dict[str, dict]:
        """Stage fingerprints + artifact content hashes + metrics: equal
        signatures mean bit-identical runs (artifacts are content-
        addressed, so equal hashes are equal bytes)."""
        return {
            "fingerprints": dict(self.stage_fingerprints),
            "artifacts": {k: dict(v) for k, v in self.artifact_hashes.items()},
            "metrics": dict(self.metrics),
        }

    def matches(self, other: "TenantResult") -> bool:
        return self.ok and other.ok and self.signature() == other.signature()


@dataclass
class MultiTenantReport:
    """Aggregate outcome of one orchestrated batch."""

    tenants: list[TenantResult]
    wall_s: float
    #: completed tenant runs per wall-clock second
    throughput: float
    #: Jain fairness over per-tenant completion rates (1/wall_s)
    jain_fairness: float
    governor: dict[str, float] = field(default_factory=dict)
    governor_services: dict[str, dict] = field(default_factory=dict)
    fair_queue: dict[str, dict[str, float]] = field(default_factory=dict)
    dedup: dict[str, int] = field(default_factory=dict)
    shed_tenants: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tenants)

    @property
    def total_shed_items(self) -> int:
        return int(sum(c.get("shed_items", 0) for c in self.fair_queue.values()))

    def render(self) -> str:
        from repro.experiments.reporting import render_table

        rows = []
        for t in sorted(self.tenants, key=lambda r: r.name):
            rows.append(
                [
                    t.name,
                    t.availability,
                    "shed" if t.shed else "full",
                    f"{t.wall_s:.2f}s",
                    round(t.metrics.get("auprc", float("nan")), 3)
                    if t.ok
                    else f"ERROR: {t.error}",
                    len(t.deduped_stages),
                    t.counters.get("retries", 0),
                    t.counters.get("deadline_exceeded", 0),
                ]
            )
        table = render_table(
            ["tenant", "avail", "admission", "wall", "auprc",
             "deduped", "retries", "deadline"],
            rows,
            title=(
                f"Multi-tenant batch — {len(self.tenants)} tenants, "
                f"{self.wall_s:.2f}s wall, Jain fairness "
                f"{self.jain_fairness:.3f}"
            ),
        )
        extras = (
            f"governor: {self.governor}\n"
            f"fair queue shed items: {self.total_shed_items}, "
            f"dedup: {self.dedup}, shed tenants: {self.shed_tenants or '-'}"
        )
        return table + "\n" + extras


class MultiTenantOrchestrator:
    """Run N tenant pipelines concurrently over shared infrastructure.

    All tenants share one generated world/task/splits and one resource
    catalog (resources are pure: value RNGs are passed in per call, so
    the catalog is safe to share across threads).  Each tenant gets its
    own fault-injecting view of the catalog, its own resilience policy,
    and its own manifest directory; artifacts live in one shared
    content-hashed store so identical stages dedup across tenants.
    """

    def __init__(
        self,
        world: "World",
        task: "TaskRuntime",
        splits: "CorpusSplits",
        catalog: ResourceCatalog,
        config: OrchestratorConfig | None = None,
        base_config: PipelineConfig | None = None,
        context: dict | None = None,
        run_root: str | Path | None = None,
    ) -> None:
        self.world = world
        self.task = task
        self.splits = splits
        self.catalog = catalog
        self.config = config or OrchestratorConfig()
        self.base_config = base_config or PipelineConfig()
        #: manifest context shared by every tenant with the same seed —
        #: deliberately excludes the tenant *name* so identical configs
        #: fingerprint identically (dedup across tenants, and solo runs
        #: compare equal)
        self.context = dict(context or {"experiment": "multitenant"})
        self.run_root = Path(run_root) if run_root is not None else None

    # ------------------------------------------------------------------
    # per-tenant assembly
    # ------------------------------------------------------------------
    def _build_pipeline(
        self,
        spec: TenantSpec,
        max_attempts: int,
        governor: ServiceGovernor | None,
        executor=None,
    ) -> tuple[CrossModalPipeline, ResiliencePolicy, dict]:
        """One tenant's pipeline: faulty catalog view + policy + context.

        Everything value-affecting here derives from the *spec* (never
        from the shared infrastructure), which is what makes solo and
        contended runs bit-identical.
        """
        fault_rate = 1.0 - spec.availability
        fault_seed = derive_seed(spec.seed, "faults")
        if spec.faulty_services:
            injector = FaultInjector(
                FaultSpec(),
                overrides={
                    name: FaultSpec(transient_rate=fault_rate)
                    for name in spec.faulty_services
                },
                seed=fault_seed,
            )
        else:
            injector = FaultInjector(
                FaultSpec(transient_rate=fault_rate), seed=fault_seed
            )
        wrapped = injector.wrap_all(list(self.catalog))
        deadline = self.config.governor.call_deadline
        policy_seed = derive_seed(spec.seed, "policy")
        policy = ResiliencePolicy(
            retry=RetryConfig(max_attempts=max_attempts),
            fallback=FallbackChain(substitutes=build_substitute_map(wrapped)),
            seed=policy_seed,
            governor=governor,
            deadline_budget=deadline,
        )
        resilience_context = {
            "availability": spec.availability,
            "faulty_services": sorted(spec.faulty_services) or "all",
            "max_attempts": max_attempts,
            "deadline": deadline,
            "fault_seed": fault_seed,
            "policy_seed": policy_seed,
        }
        pipeline = CrossModalPipeline(
            self.world,
            self.task,
            ResourceCatalog(wrapped),
            config=replace(self.base_config, seed=spec.seed),
            executor=executor,
            resilience=policy,
            resilience_context=resilience_context,
        )
        return pipeline, policy, {**self.context, "seed": spec.seed}

    def _finish(
        self,
        result: TenantResult,
        pipeline_result,
        checkpoint: RunCheckpointer,
        policy: ResiliencePolicy,
        wall_s: float,
    ) -> TenantResult:
        health = policy.health_report()
        result.ok = True
        result.wall_s = wall_s
        result.metrics = dict(pipeline_result.metrics)
        result.reused_stages = list(checkpoint.reused_stages)
        result.deduped_stages = list(checkpoint.deduped_stages)
        result.stage_fingerprints = {
            name: record.fingerprint
            for name, record in sorted(checkpoint.manifest.stages.items())
        }
        result.artifact_hashes = {
            name: {k: ref.hash for k, ref in sorted(record.artifacts.items())}
            for name, record in sorted(checkpoint.manifest.stages.items())
        }
        result.counters = {
            "retries": health.total_retries,
            "fallbacks": health.total_fallbacks,
            "deadline_exceeded": health.total_deadline_exceeded,
        }
        return result

    # ------------------------------------------------------------------
    # solo baseline
    # ------------------------------------------------------------------
    def run_solo(
        self,
        spec: TenantSpec,
        run_dir: str | Path | None = None,
        shed: bool = False,
    ) -> TenantResult:
        """Run one tenant alone: no governor, no fair queue, no dedup,
        fresh store.  The determinism oracle — a contended run of the
        same spec must match this result bit for bit.  Without a
        ``run_dir`` the run goes to a temporary directory that is
        removed on return."""
        max_attempts = 1 if shed else spec.max_attempts
        pipeline, policy, context = self._build_pipeline(
            spec, max_attempts, governor=None
        )
        result = TenantResult(
            name=spec.name,
            seed=spec.seed,
            availability=spec.availability,
            ok=False,
            shed=shed,
            max_attempts=max_attempts,
        )
        with run_directory(run_dir, f"solo-{spec.name}-") as directory:
            checkpoint = RunCheckpointer(directory, context=context)
            t0 = time.perf_counter()
            out = pipeline.run(self.splits, checkpoint)
            return self._finish(
                result, out, checkpoint, policy, time.perf_counter() - t0
            )

    # ------------------------------------------------------------------
    # the orchestrated batch
    # ------------------------------------------------------------------
    def run(self, tenants: list[TenantSpec]) -> MultiTenantReport:
        """Run every tenant concurrently; never raises for a tenant
        failure — failed tenants come back with ``ok=False`` and the
        rest complete."""
        if not tenants:
            raise ConfigurationError("at least one tenant is required")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in {names}")

        cfg = self.config
        deduper = StageDeduper()
        governor = ServiceGovernor(
            cfg.governor, services=[r.name for r in self.catalog]
        )
        # admission control: declared-load based, decided in spec order
        # (deterministic).  The semaphore then enforces max_active at
        # runtime; shed tenants still run, on a degraded retry budget.
        if cfg.max_active > 0 and cfg.max_waiting is not None:
            admitted_cap = cfg.max_active + cfg.max_waiting
        else:
            admitted_cap = len(tenants)
        shed_names = [t.name for t in tenants[admitted_cap:]]
        slots = (
            threading.BoundedSemaphore(cfg.max_active)
            if cfg.max_active > 0
            else None
        )

        results: list[TenantResult | None] = [None] * len(tenants)

        def _tenant_body(index: int, spec: TenantSpec, lane) -> None:
            shed = spec.name in shed_names
            max_attempts = 1 if shed else spec.max_attempts
            result = TenantResult(
                name=spec.name,
                seed=spec.seed,
                availability=spec.availability,
                ok=False,
                shed=shed,
                max_attempts=max_attempts,
            )
            results[index] = result
            try:
                with obs.span(
                    "scheduler.tenant", tenant=spec.name, shed=shed
                ):
                    if shed:
                        obs.add_counter("scheduler.tenants_shed")
                    pipeline, policy, context = self._build_pipeline(
                        spec, max_attempts, governor=governor, executor=lane
                    )
                    checkpoint = RunCheckpointer(
                        root / "tenants" / spec.name,
                        context=context,
                        store=store,
                        deduper=deduper,
                    )
                    t0 = time.perf_counter()
                    if slots is not None:
                        with slots:
                            out = pipeline.run(self.splits, checkpoint)
                    else:
                        out = pipeline.run(self.splits, checkpoint)
                    self._finish(
                        result, out, checkpoint, policy,
                        time.perf_counter() - t0,
                    )
            except BaseException as exc:  # noqa: BLE001 - reported per tenant
                result.error = f"{type(exc).__name__}: {exc}"
                result.wall_s = 0.0
                obs.add_counter("scheduler.tenant_failures")
                # keep the stack around for debugging without crashing
                # the batch: other tenants must still complete
                traceback.clear_frames(exc.__traceback__)

        t_start = time.perf_counter()
        # tenant threads read root and store; both scopes close only
        # after the scheduler has joined every tenant
        with (
            run_directory(self.run_root, "multitenant-") as root,
            FairScheduler(cfg.fair_queue) as scheduler,
        ):
            root.mkdir(parents=True, exist_ok=True)
            store = RunStore(root / "store")
            # register lanes up front (deterministic order) so weights
            # are in place before any work arrives
            lanes = [scheduler.register(t.name, t.weight) for t in tenants]
            threads = [
                threading.Thread(
                    target=_tenant_body,
                    args=(i, spec, lanes[i]),
                    name=f"tenant-{spec.name}",
                )
                for i, spec in enumerate(tenants)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            fair_counters = scheduler.counters()
        wall_s = time.perf_counter() - t_start

        finished = [r for r in results if r is not None]
        rates = [1.0 / r.wall_s for r in finished if r.ok and r.wall_s > 0]
        report = MultiTenantReport(
            tenants=finished,
            wall_s=wall_s,
            throughput=sum(1 for r in finished if r.ok) / max(wall_s, 1e-9),
            jain_fairness=jain_index(rates),
            governor=governor.totals(),
            governor_services={
                name: asdict(stats)
                for name, stats in sorted(governor.report().items())
            },
            fair_queue=fair_counters,
            dedup=deduper.stats(),
            shed_tenants=shed_names,
        )
        obs.set_gauge("scheduler.jain_fairness", round(report.jain_fairness, 4))
        return report
