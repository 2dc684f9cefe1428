"""Multi-tenant chaos-under-contention experiment.

N tenants — each a full cross-modal adaptation run — share one service
catalog behind a :class:`~repro.scheduler.ServiceGovernor` (per-service
token buckets, a process-shared circuit breaker, per-call deadline
budgets) and one weighted-fair-queued worker pool.  One *victim*
service is simultaneously fault-injected (transient failures at
``1 - availability``) and rate-limited, so the sweep exercises every
protection at once: retries and fallbacks on the value path, breaker
trips and throttle waits on the pacing path, admission shedding and
stage dedup across tenants.

Gates (see :meth:`MultiTenantResult.gates`):

* ``all_complete`` — every tenant finishes, even shed ones; zero
  unhandled exceptions;
* ``all_graceful`` — mean tenant AUPRC declines smoothly with victim
  availability (the chaos experiment's no-cliff rule, per cell).  Only
  cells whose tenants ran at two or more availability levels are
  judged (a two-tenant cell is one level: tenant 1 is tenant 0's dedup
  twin), and the gate fails when no cell is judged;
* ``solo_identical`` — a tenant's outputs are bit-identical to the
  same config run solo (fingerprints + artifact content hashes),
  proving the shared machinery is pacing-only.

Jain's index over per-tenant completion rates is recorded per cell
but not gated.

    python -m repro.experiments multitenant --scale 0.1 --seed 7
    python -m repro.experiments multitenant --tenants 2 6 \
        --rate-limits 0 400 --availabilities 1.0 0.5
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.rng import derive_seed
from repro.experiments.common import ExperimentContext
from repro.experiments.reporting import no_cliff, render_table
from repro.obs.bench import BenchArtifact, bench_dir
from repro.resilience.circuit import CircuitConfig
from repro.scheduler import (
    FairQueueConfig,
    GovernorConfig,
    MultiTenantOrchestrator,
    MultiTenantReport,
    OrchestratorConfig,
    TenantSpec,
)

__all__ = [
    "MultiTenantCell",
    "MultiTenantResult",
    "build_tenants",
    "run_multitenant",
    "DEFAULT_TENANT_COUNTS",
    "DEFAULT_RATE_LIMITS",
    "DEFAULT_MT_AVAILABILITIES",
    "VICTIM_SERVICE",
]

DEFAULT_TENANT_COUNTS: tuple[int, ...] = (2, 6)
#: victim-service rate limits in calls/second (0 = unlimited)
DEFAULT_RATE_LIMITS: tuple[float, ...] = (0.0, 400.0)
DEFAULT_MT_AVAILABILITIES: tuple[float, ...] = (1.0, 0.5)
#: the shared service that gets both the faults and the rate limit —
#: the org-wide embedding is the busiest resource in the suite
VICTIM_SERVICE = "org_embedding"
#: simulated-seconds deadline budget per guarded call; tight enough
#: that a second retry backoff (0.05 + 0.1s) no longer fits, so
#: deadline exhaustion actually occurs at low availability
CALL_DEADLINE = 0.08


def build_tenants(
    n_tenants: int,
    seed: int,
    availabilities: tuple[float, ...],
    victim: str = VICTIM_SERVICE,
) -> list[TenantSpec]:
    """Deterministic tenant roster for one cell.

    Tenant ``i`` gets a derived seed and cycles through the
    availability levels; tenant 1 (when present) *duplicates* tenant
    0's seed and availability so every multi-tenant cell demonstrates
    cross-tenant stage dedup.  Admission shedding (decided in spec
    order) hits the tail of the list, never the dedup pair.
    """
    specs: list[TenantSpec] = []
    for i in range(n_tenants):
        if i == 1:
            # dedup twin: identical value-affecting config to tenant 0
            specs.append(
                TenantSpec(
                    name="tenant-1",
                    seed=specs[0].seed,
                    availability=specs[0].availability,
                    faulty_services=specs[0].faulty_services,
                )
            )
            continue
        availability = availabilities[i % len(availabilities)]
        specs.append(
            TenantSpec(
                name=f"tenant-{i}",
                seed=derive_seed(seed, f"tenant-{i}"),
                availability=availability,
                faulty_services=(victim,) if availability < 1.0 else (),
            )
        )
    return specs


@dataclass
class MultiTenantCell:
    """One (tenant count, victim rate limit) sweep cell."""

    n_tenants: int
    rate_limit: float
    wall_s: float
    throughput: float
    jain_fairness: float
    all_ok: bool
    #: mean AUPRC of non-shed tenants per availability level
    auprc_by_availability: dict[float, float]
    shed_tenant_auprcs: dict[str, float] = field(default_factory=dict)
    breaker_trips: int = 0
    throttle_waits: int = 0
    shed_items: int = 0
    shed_tenants: int = 0
    dedup_hits: int = 0
    deadline_exceeded: int = 0
    retries: int = 0
    errors: list[str] = field(default_factory=list)

    def graceful(self) -> bool | None:
        """The no-cliff verdict; None when the tenants ran at a single
        availability level, which leaves no step to judge."""
        if len(self.auprc_by_availability) < 2:
            return None
        return no_cliff(self.auprc_by_availability)


@dataclass
class MultiTenantResult:
    """The full sweep plus the headline-cell isolation check."""

    cells: list[MultiTenantCell]
    availabilities: list[float]
    victim: str
    scale: float
    seed: int
    #: contended-vs-solo bit-identity of the headline cell's tenant 0
    #: (None when the check was skipped)
    solo_identical: bool | None = None

    def gates(self) -> dict[str, bool]:
        judged = [g for c in self.cells if (g := c.graceful()) is not None]
        gates = {
            "all_complete": all(c.all_ok for c in self.cells),
            # no judged cell means the no-cliff rule checked nothing
            "all_graceful": bool(judged) and all(judged),
        }
        if self.solo_identical is not None:
            gates["solo_identical"] = self.solo_identical
        return gates

    def render(self) -> str:
        rows = []
        for c in self.cells:
            curve = ", ".join(
                f"{a:.2f}→{auprc:.3f}"
                for a, auprc in sorted(
                    c.auprc_by_availability.items(), reverse=True
                )
            )
            rows.append(
                [
                    c.n_tenants,
                    c.rate_limit or "-",
                    f"{c.wall_s:.1f}s",
                    round(c.jain_fairness, 3),
                    curve,
                    c.breaker_trips,
                    c.shed_items + c.shed_tenants,
                    c.dedup_hits,
                    c.deadline_exceeded,
                    {True: "ok", False: "FAIL", None: "unjudged"}[c.graceful()],
                    "ok" if c.all_ok else "FAIL",
                ]
            )
        table = render_table(
            ["tenants", "victim qps", "wall", "Jain",
             "AUPRC by availability", "trips", "shed", "dedup",
             "deadline", "no-cliff", "complete"],
            rows,
            title=(
                f"Multi-tenant chaos under contention — victim "
                f"{self.victim!r} (scale={self.scale}, seed={self.seed})"
            ),
        )
        return table


def _summarize_cell(
    report: MultiTenantReport,
    specs: list[TenantSpec],
    rate_limit: float,
) -> MultiTenantCell:
    by_avail: dict[float, list[float]] = {}
    shed_auprcs: dict[str, float] = {}
    for result in report.tenants:
        if not result.ok:
            continue
        if result.shed:
            shed_auprcs[result.name] = result.metrics.get("auprc", 0.0)
        else:
            by_avail.setdefault(result.availability, []).append(
                result.metrics.get("auprc", 0.0)
            )
    counters = {
        key: sum(t.counters.get(key, 0) for t in report.tenants)
        for key in ("retries", "deadline_exceeded")
    }
    return MultiTenantCell(
        n_tenants=len(specs),
        rate_limit=rate_limit,
        wall_s=report.wall_s,
        throughput=report.throughput,
        jain_fairness=report.jain_fairness,
        all_ok=report.ok,
        auprc_by_availability={
            a: float(np.mean(vals)) for a, vals in sorted(by_avail.items())
        },
        shed_tenant_auprcs=shed_auprcs,
        breaker_trips=int(report.governor.get("breaker_trips", 0)),
        throttle_waits=int(report.governor.get("throttle_waits", 0)),
        shed_items=report.total_shed_items,
        shed_tenants=len(report.shed_tenants),
        dedup_hits=int(report.dedup.get("hits", 0)),
        deadline_exceeded=counters["deadline_exceeded"],
        retries=counters["retries"],
        errors=[
            f"{t.name}: {t.error}" for t in report.tenants if not t.ok
        ],
    )


def run_multitenant(
    scale: float = 0.1,
    seed: int = 7,
    tenant_counts: tuple[int, ...] = DEFAULT_TENANT_COUNTS,
    rate_limits: tuple[float, ...] = DEFAULT_RATE_LIMITS,
    availabilities: tuple[float, ...] = DEFAULT_MT_AVAILABILITIES,
    victim: str = VICTIM_SERVICE,
    workers: int = 2,
    verify_solo: bool = True,
    out_dir: str | None = None,
    ctx: ExperimentContext | None = None,
) -> MultiTenantResult:
    """Sweep tenant count x victim rate limit under injected faults.

    Every cell runs ``n`` full tenant pipelines concurrently over the
    shared catalog/store/governor; cells with four or more tenants also
    exercise admission control (one tenant is shed into degraded mode).
    After the final (headline) cell, tenant 0 is re-run solo — no
    governor, no fair queue, fresh store — and compared fingerprint-
    for-fingerprint against its contended result.

    Writes ``BENCH_multitenant.json`` into ``$REPRO_BENCH_DIR``, else
    ``out_dir``, else nowhere (:func:`repro.obs.bench.bench_dir`).
    """
    if ctx is None:
        ctx = ExperimentContext(task_name="CT1", scale=scale, seed=seed)
    artifact = BenchArtifact("multitenant", scale=ctx.scale, seed=seed)

    cells: list[MultiTenantCell] = []
    cell_dicts: list[dict] = []
    solo_identical: bool | None = None
    headline = (max(tenant_counts), max(rate_limits))

    for n_tenants in tenant_counts:
        specs = build_tenants(n_tenants, seed, availabilities, victim)
        for rate_limit in rate_limits:
            config = OrchestratorConfig(
                governor=GovernorConfig(
                    rate_overrides=(
                        {victim: rate_limit} if rate_limit > 0 else {}
                    ),
                    circuit=CircuitConfig(),
                    call_deadline=CALL_DEADLINE,
                ),
                fair_queue=FairQueueConfig(workers=workers, max_queue=64),
                # four or more tenants: cap concurrency below the roster
                # so admission control sheds exactly one tenant
                max_active=max(2, n_tenants - 2) if n_tenants >= 4 else 0,
                max_waiting=1 if n_tenants >= 4 else None,
            )
            orchestrator = MultiTenantOrchestrator(
                ctx.world,
                ctx.task,
                ctx.splits,
                ctx.catalog,
                config=config,
                base_config=ctx.config,
                context={
                    "experiment": "multitenant",
                    "task": ctx.task_name,
                    "scale": ctx.scale,
                },
                run_root=tempfile.mkdtemp(
                    prefix=f"mt-{n_tenants}x{rate_limit:g}-"
                ),
            )
            report = orchestrator.run(specs)
            cell = _summarize_cell(report, specs, rate_limit)
            cells.append(cell)
            artifact.time(f"cell_{n_tenants}x{rate_limit:g}", cell.wall_s)
            cell_dicts.append(
                {
                    "n_tenants": n_tenants,
                    "rate_limit": rate_limit,
                    "wall_s": round(cell.wall_s, 3),
                    "throughput_runs_per_s": round(cell.throughput, 4),
                    "jain_fairness": round(cell.jain_fairness, 4),
                    "all_ok": cell.all_ok,
                    "graceful": cell.graceful(),
                    "auprc_by_availability": {
                        str(a): round(v, 4)
                        for a, v in cell.auprc_by_availability.items()
                    },
                    "breaker_trips": cell.breaker_trips,
                    "throttle_waits": cell.throttle_waits,
                    "shed_items": cell.shed_items,
                    "shed_tenants": cell.shed_tenants,
                    "dedup_hits": cell.dedup_hits,
                    "deadline_exceeded": cell.deadline_exceeded,
                    "retries": cell.retries,
                    "errors": cell.errors,
                }
            )
            if verify_solo and (n_tenants, rate_limit) == headline:
                contended = next(
                    t for t in report.tenants if t.name == specs[0].name
                )
                solo = orchestrator.run_solo(specs[0])
                solo_identical = solo.matches(contended)

    result = MultiTenantResult(
        cells=cells,
        availabilities=list(availabilities),
        victim=victim,
        scale=ctx.scale,
        seed=seed,
        solo_identical=solo_identical,
    )
    gates = result.gates()
    artifact.record(
        cells=cell_dicts,
        victim=victim,
        availabilities=list(availabilities),
        call_deadline=CALL_DEADLINE,
        min_jain_fairness=round(min(c.jain_fairness for c in cells), 4),
        total_breaker_trips=sum(c.breaker_trips for c in cells),
        total_shed=sum(c.shed_items + c.shed_tenants for c in cells),
        total_dedup_hits=sum(c.dedup_hits for c in cells),
        total_deadline_exceeded=sum(c.deadline_exceeded for c in cells),
        all_graceful=gates["all_graceful"],
        solo_identical=solo_identical,
        ok=all(gates.values()),
    )
    directory = bench_dir(out_dir)
    if directory:
        path = artifact.write(directory)
        print(f"[bench artifact written to {Path(path)}]")
    return result
