"""Serving experiment — load, latency, and chaos against ModelServer.

The batch pipeline's claims stop at the last checkpoint; this
experiment carries them into the online path.  It completes (or
reuses) a checkpointed end-to-end run, deploys its artifacts behind a
:class:`~repro.serving.server.ModelServer`, and measures three things:

* **identity** — the same request must yield a bit-identical decision
  regardless of micro-batch composition, cache temperature (cold /
  fresh / expired-to-stale), client concurrency, and service
  availability.  Each check serves the full request schedule under a
  different serving configuration and compares every decision against
  a cold-cache, batch-of-one, single-client, fault-free reference.
* **load** — p50/p99 request latency and sustained closed-loop QPS per
  (availability x clients) cell, written to ``BENCH_serving.json``.
* **graceful degradation** — with a *cold* cache the fallback chain
  actually changes values (substitutes, MISSING), so decision
  agreement with the reference declines as availability drops; the
  no-cliff gate asserts no adjacent availability step loses more than
  half the remaining agreement (same rule as the batch chaos sweep).

The chaos cells serve with ``cache_ttl_s=0.0`` over a warm cache:
every lookup is expired, so every request dials the (faulty) service
and the stale tier must absorb the failures — the worst case for the
serving path that still has a correctness oracle (the warm values are
the batch run's own tables, so decisions must stay bit-identical at
every availability).

    python -m repro.experiments serve --scale 0.15 --seed 1
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rng import derive_seed
from repro.datagen.entities import DataPoint
from repro.experiments.reporting import no_cliff, render_table
from repro.obs.bench import BenchArtifact, bench_dir
from repro.resilience import FaultInjector, FaultSpec
from repro.runs.manifest import RunManifest
from repro.runs.store import run_directory
from repro.serving import (
    Decision,
    ModelServer,
    ServingArtifacts,
    ServingConfig,
    run_load,
)

__all__ = ["ServeResult", "run_serve", "DEFAULT_SERVE_AVAILABILITIES"]

DEFAULT_SERVE_AVAILABILITIES: tuple[float, ...] = (1.0, 0.9, 0.75, 0.5)
DEFAULT_CLIENT_COUNTS: tuple[int, ...] = (1, 8)


@dataclass
class LoadCell:
    """One (availability x clients) measurement."""

    availability: float
    clients: int
    p50_ms: float
    p99_ms: float
    qps: float
    identical: bool
    degraded_requests: int
    fresh_hits: int
    stale_hits: int
    batches: int
    max_batch: int
    errors: int


@dataclass
class ServeResult:
    """Everything the serving experiment measured."""

    scale: float
    seed: int
    n_points: int
    n_requests: int
    warmed: int
    cells: list[LoadCell]
    #: named fault-free identity checks (cold / warm / expired / batch)
    identity_checks: dict[str, bool]
    availabilities: list[float]
    #: cold-cache decision agreement with the reference, per availability
    cold_agreements: list[float]
    #: label agreement between served decisions and the batch pipeline's
    #: whole-table scores (recorded, not gated: the batch path scores
    #: all rows in one BLAS call, which is a different forward shape)
    batch_agreement: float
    batch_score_max_diff: float

    def gates(self) -> dict[str, bool]:
        return {
            "identity_ok": all(self.identity_checks.values())
            and all(c.identical for c in self.cells),
            "graceful": no_cliff(
                dict(zip(self.availabilities, self.cold_agreements))
            ),
        }

    def render(self) -> str:
        rows = [
            [
                cell.availability,
                cell.clients,
                round(cell.p50_ms, 2),
                round(cell.p99_ms, 2),
                round(cell.qps, 1),
                "yes" if cell.identical else "NO",
                cell.degraded_requests,
                cell.stale_hits,
                cell.errors,
            ]
            for cell in self.cells
        ]
        table = render_table(
            ["Avail", "clients", "p50 ms", "p99 ms", "QPS",
             "identical", "degraded", "stale", "errors"],
            rows,
            title=(
                f"Serving under chaos — latency/QPS per (availability x "
                f"clients), warm cache, ttl=0 (scale={self.scale}, "
                f"seed={self.seed}, {self.n_requests} requests over "
                f"{self.n_points} points)"
            ),
        )
        agreement_rows = [
            [a, f"{agree:.1%}"]
            for a, agree in zip(self.availabilities, self.cold_agreements)
        ]
        agreement = render_table(
            ["Avail", "cold-cache decision agreement"],
            agreement_rows,
            title="(cold cache: degradation changes values; agreement vs "
                  "fault-free reference)",
        )
        checks = ", ".join(
            f"{name}={'ok' if ok else 'FAIL'}"
            for name, ok in sorted(self.identity_checks.items())
        )
        batch_line = (
            f"batch-pipeline agreement: {self.batch_agreement:.1%} of labels "
            f"(max |score delta| {self.batch_score_max_diff:.2e}); "
            f"warm cache primed with {self.warmed} entries"
        )
        return "\n\n".join(
            [table, agreement, f"identity checks: {checks}", batch_line]
        )


def _serve_all(
    server: ModelServer, points: list[DataPoint]
) -> dict[int, Decision]:
    """Serve every point once, sequentially, through the batcher."""
    return {p.point_id: server.decide(p) for p in points}


def _identical(
    decisions: dict[int, Decision], reference: dict[int, Decision]
) -> bool:
    return all(
        pid in decisions and decisions[pid].key == reference[pid].key
        for pid in reference
    )


def run_serve(
    scale: float = 0.15,
    seed: int = 1,
    availabilities: tuple[float, ...] = DEFAULT_SERVE_AVAILABILITIES,
    client_counts: tuple[int, ...] = DEFAULT_CLIENT_COUNTS,
    n_requests: int = 200,
    max_points: int = 120,
    run_dir: str | None = None,
) -> ServeResult:
    """Deploy a completed run behind a server; measure identity + load.

    ``run_dir`` reuses an existing checkpointed end-to-end run when its
    manifest is already complete (the batch stages are by far the
    expensive part); otherwise the run is computed there first.  With
    no ``run_dir`` the run goes to a temporary directory, removed once
    its artifacts are loaded into memory.  ``BENCH_serving.json``
    goes to ``$REPRO_BENCH_DIR``, else ``run_dir``, else nowhere
    (:func:`repro.obs.bench.bench_dir`).
    """
    from repro.experiments.end_to_end import build_pipeline_for_run, run_pipeline

    with run_directory(run_dir, "serve-run-") as directory:
        needs_run = not RunManifest.exists(directory)
        if not needs_run:
            manifest = RunManifest.load(directory)
            needs_run = any(
                manifest.stages.get(s) is None
                or manifest.stages[s].status != "complete"
                for s in ("featurize", "train")
            )
        if needs_run:
            run_pipeline(
                task="CT1", scale=scale, seed=seed,
                run_dir=str(directory), resume=RunManifest.exists(directory),
            )
        artifacts = ServingArtifacts.load(directory)

    # the live catalog, rebuilt exactly as the batch run built it
    pipeline, splits = build_pipeline_for_run("CT1", scale, seed)
    resources = list(pipeline.catalog)
    # never keep more points than requests: the round-robin schedule
    # must cover every point at least once for the identity comparison
    # against the full reference serve to be meaningful
    points = list(splits.image_test.points)[: min(max_points, n_requests)]

    # ------------------------------------------------------------------
    # reference: cold cache, batch of one, single client, no faults
    # ------------------------------------------------------------------
    with ModelServer(
        artifacts, resources,
        ServingConfig(warm_cache=False, max_batch_size=1, max_wait_s=0.0),
    ) as server:
        reference = _serve_all(server, points)

    # ------------------------------------------------------------------
    # fault-free identity checks across serving configurations
    # ------------------------------------------------------------------
    identity_checks: dict[str, bool] = {}
    warmed = 0
    for name, config, clients in (
        ("warm_fresh", ServingConfig(), 8),
        ("cold_batched", ServingConfig(warm_cache=False), 4),
        ("warm_expired", ServingConfig(cache_ttl_s=0.0, max_wait_s=0.001), 4),
    ):
        with ModelServer(artifacts, resources, config) as server:
            warmed = max(warmed, server.warmed)
            load = run_load(
                server, points, n_clients=clients, n_requests=n_requests
            )
            identity_checks[name] = load.ok and _identical(
                load.decisions, reference
            )

    # ------------------------------------------------------------------
    # chaos cells: warm cache + ttl=0 forces every request through the
    # faulty service with the stale tier as the safety net
    # ------------------------------------------------------------------
    cells: list[LoadCell] = []
    for availability in availabilities:
        for clients in client_counts:
            injector = FaultInjector(
                FaultSpec(transient_rate=1.0 - availability),
                seed=derive_seed(seed, f"serve-faults-{availability}-{clients}"),
            )
            wrapped = injector.wrap_all(resources)
            with ModelServer(
                artifacts, wrapped,
                ServingConfig(cache_ttl_s=0.0, max_wait_s=0.001),
            ) as server:
                load = run_load(
                    server, points, n_clients=clients, n_requests=n_requests
                )
                stats = server.stats()
            cells.append(
                LoadCell(
                    availability=availability,
                    clients=clients,
                    p50_ms=load.p50_ms,
                    p99_ms=load.p99_ms,
                    qps=load.qps,
                    identical=load.ok and _identical(load.decisions, reference),
                    degraded_requests=sum(
                        1 for d in load.decisions.values() if d.degraded
                    ),
                    fresh_hits=stats["cache"]["fresh_hits"],
                    stale_hits=stats["cache"]["stale_hits"],
                    batches=stats["batcher"]["batches"],
                    max_batch=stats["batcher"]["max_batch"],
                    errors=len(load.errors),
                )
            )

    # ------------------------------------------------------------------
    # cold-cache degradation curve: no warm values to fall back on, so
    # availability really does change decisions — gate on no-cliff
    # ------------------------------------------------------------------
    cold_agreements: list[float] = []
    for availability in availabilities:
        injector = FaultInjector(
            FaultSpec(transient_rate=1.0 - availability),
            seed=derive_seed(seed, f"serve-cold-{availability}"),
        )
        wrapped = injector.wrap_all(resources)
        with ModelServer(
            artifacts, wrapped,
            ServingConfig(warm_cache=False, max_batch_size=1, max_wait_s=0.0),
        ) as server:
            decisions = _serve_all(server, points)
        matches = sum(
            1
            for pid, ref in reference.items()
            if decisions[pid].label == ref.label
        )
        cold_agreements.append(matches / max(len(reference), 1))

    # ------------------------------------------------------------------
    # agreement with the batch pipeline's whole-table forward pass
    # ------------------------------------------------------------------
    test_table = artifacts.tables["test"]
    modality = test_table.modalities[0]
    with ModelServer(artifacts, resources) as server:
        model_names = [
            n for n in server.model_schema(modality).names
            if n in test_table.schema
        ]
    batch_scores = artifacts.model.predict_proba(
        test_table.select_features(model_names)
    )
    by_pid = {
        int(pid): float(score)
        for pid, score in zip(test_table.point_ids, batch_scores)
    }
    diffs = [
        abs(by_pid[pid] - ref.score)
        for pid, ref in reference.items()
        if pid in by_pid
    ]
    label_matches = [
        int(by_pid[pid] >= 0.5) == ref.label
        for pid, ref in reference.items()
        if pid in by_pid
    ]
    batch_agreement = (
        sum(label_matches) / len(label_matches) if label_matches else 0.0
    )
    batch_score_max_diff = max(diffs) if diffs else 0.0

    result = ServeResult(
        scale=scale,
        seed=seed,
        n_points=len(points),
        n_requests=n_requests,
        warmed=warmed,
        cells=cells,
        identity_checks=identity_checks,
        availabilities=list(availabilities),
        cold_agreements=cold_agreements,
        batch_agreement=batch_agreement,
        batch_score_max_diff=batch_score_max_diff,
    )

    directory_out = bench_dir(run_dir)
    if directory_out:
        gates = result.gates()
        artifact = BenchArtifact("serving", scale=scale, seed=seed)
        artifact.record(
            n_points=result.n_points,
            n_requests=result.n_requests,
            warmed=result.warmed,
            cells=[
                {
                    "availability": c.availability,
                    "clients": c.clients,
                    "p50_ms": round(c.p50_ms, 3),
                    "p99_ms": round(c.p99_ms, 3),
                    "qps": round(c.qps, 1),
                    "identical": c.identical,
                    "degraded_requests": c.degraded_requests,
                    "stale_hits": c.stale_hits,
                    "batches": c.batches,
                    "max_batch": c.max_batch,
                    "errors": c.errors,
                }
                for c in result.cells
            ],
            identity_checks=result.identity_checks,
            identity_ok=gates["identity_ok"],
            availabilities=result.availabilities,
            cold_agreements=[round(a, 4) for a in result.cold_agreements],
            graceful=gates["graceful"],
            batch_agreement=round(result.batch_agreement, 4),
            batch_score_max_diff=float(result.batch_score_max_diff),
        )
        artifact.write(directory_out)
    return result
