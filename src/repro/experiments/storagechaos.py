"""Storage chaos — self-healing under injected filesystem faults.

The gate this experiment enforces: **under every injected fault type, a
checkpointed run either completes bit-identical to the fault-free
reference after auto-repair, or fails with a typed error — it never
serves or returns wrong bytes.**

Protocol, per (fault type × rate) cell:

1. run the end-to-end pipeline with :class:`FaultyFS` injecting that
   fault into every artifact write (seeded, so the cell is
   reproducible); the run either completes (silent damage — bit flips,
   torn directory entries — lands on disk but the live values are
   right) or aborts with a typed :class:`CheckpointError`;
2. audit the damage with a report-only scrub;
3. heal, alternating between the two repair paths so both stay
   honest: even cells run offline ``scrub --repair`` (lineage replay
   via :class:`RepairEngine`) and then resume; odd cells resume with
   ``auto_repair=True`` (in-checkpointer recompute/verify/restore);
4. verify: final scrub reports healthy, every manifest artifact hash
   equals the fault-free reference's, result metrics are bit-identical,
   and :class:`ServingArtifacts` loads from the healed run.

A cell passes iff the faulty run's failure (if any) was typed AND the
healed run verifies bit-identical.  ``BENCH_storagechaos.json`` records
the sweep.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import repro.obs as obs
from repro.core.exceptions import CheckpointError
from repro.experiments.end_to_end import run_end_to_end
from repro.experiments.reporting import render_table
from repro.experiments.scrub import make_repair_engine
from repro.obs.bench import BenchArtifact, bench_dir
from repro.runs import FAULT_TYPES, FaultFSConfig, RunManifest, inject_faults, scrub_run

__all__ = [
    "ChaosCell",
    "StorageChaosResult",
    "run_storagechaos",
    "DEFAULT_FAULT_RATES",
]

#: per-write fault probabilities swept by default (a run persists only a
#: handful of artifacts, so rates must be aggressive to bite)
DEFAULT_FAULT_RATES = (0.25, 0.6)


def _manifest_hashes(run_dir: Path) -> dict[str, dict[str, str]]:
    manifest = RunManifest.load(run_dir)
    return {
        name: {key: ref.hash for key, ref in sorted(record.artifacts.items())}
        for name, record in manifest.stages.items()
    }


@dataclass
class ChaosCell:
    """One (fault type × rate) cell's full life cycle."""

    fault: str
    rate: float
    #: completed | typed_failure | untyped_failure
    outcome: str
    error: str
    faults_injected: int
    #: damage the post-run audit found (corrupt + missing counts)
    damage_found: int
    heal_path: str
    repaired: int
    healed: bool
    healthy_after: bool
    hashes_match: bool
    metrics_match: bool
    serving_loads: bool

    @property
    def ok(self) -> bool:
        """The gate, per cell: typed failures only, and the healed run
        is bit-identical to the fault-free reference end to end."""
        return (
            self.outcome != "untyped_failure"
            and self.healed
            and self.healthy_after
            and self.hashes_match
            and self.metrics_match
            and self.serving_loads
        )


@dataclass
class StorageChaosResult:
    """The full sweep plus the reference run it verified against."""

    task: str
    scale: float
    seed: int
    cells: list[ChaosCell]
    wall_seconds: float = 0.0
    reference_metrics: dict[str, float] = field(default_factory=dict)

    def gates(self) -> dict[str, bool]:
        return {"holds": all(cell.ok for cell in self.cells)}

    def render(self) -> str:
        rows = []
        for c in self.cells:
            rows.append(
                [
                    c.fault,
                    c.rate,
                    c.outcome,
                    c.faults_injected,
                    c.damage_found,
                    c.heal_path,
                    c.repaired,
                    "yes" if c.hashes_match else "NO",
                    "yes" if c.metrics_match else "NO",
                    "yes" if c.serving_loads else "NO",
                    "ok" if c.ok else "FAIL",
                ]
            )
        table = render_table(
            ["fault", "rate", "run outcome", "injected", "damaged",
             "heal path", "repaired", "hashes=ref", "metrics=ref",
             "serves", "cell"],
            rows,
            title=(
                f"storage chaos — {self.task} scale={self.scale} "
                f"seed={self.seed} ({self.wall_seconds:.0f}s)"
            ),
        )
        return table


def run_storagechaos(
    task: str = "CT1",
    scale: float = 0.08,
    seed: int = 7,
    fault_types: tuple[str, ...] | None = None,
    fault_rates: tuple[float, ...] | None = None,
    out_dir: str | None = None,
) -> StorageChaosResult:
    """Sweep fault type × rate and verify the self-healing gate."""
    fault_types = tuple(fault_types) if fault_types else FAULT_TYPES
    fault_rates = tuple(fault_rates) if fault_rates else DEFAULT_FAULT_RATES
    t0 = time.perf_counter()
    root = Path(out_dir) if out_dir else Path(tempfile.mkdtemp(prefix="storagechaos_"))
    root.mkdir(parents=True, exist_ok=True)

    with obs.span("experiments.storagechaos.reference"):
        ref_dir = root / "reference"
        reference = run_end_to_end(task=task, scale=scale, seed=seed,
                                   run_dir=str(ref_dir))
    ref_hashes = _manifest_hashes(ref_dir)

    cells: list[ChaosCell] = []
    for index, (fault, rate) in enumerate(product(fault_types, fault_rates)):
        cell_dir = root / f"cell_{index:02d}_{fault}_{rate:g}"
        config = FaultFSConfig.single(
            fault,
            rate,
            seed=seed * 1000 + index,
            # scope injection to this cell's artifact store: the
            # manifest, result.json, and BENCH files stay undamaged so
            # the experiment measures artifact self-healing, not
            # manifest loss
            path_substring=str(cell_dir / "artifacts"),
        )

        # phase 1: the faulty run
        with obs.span("experiments.storagechaos.cell", fault=fault, rate=rate):
            with inject_faults(config) as fs:
                metrics = None
                try:
                    run = run_end_to_end(task=task, scale=scale, seed=seed,
                                         run_dir=str(cell_dir))
                    outcome, error = "completed", ""
                    metrics = dict(run.metrics)
                except CheckpointError as exc:
                    outcome, error = "typed_failure", type(exc).__name__
                except Exception as exc:  # noqa: BLE001 - the gate itself
                    outcome, error = "untyped_failure", type(exc).__name__
            faults_injected = len(fs.events)

            # phase 2: audit (faults are no longer injected)
            audit = scrub_run(cell_dir)
            damage_found = sum(
                count
                for status, count in audit.counts.items()
                if status in ("corrupt", "missing")
            )

            # phase 3: heal — alternate the two repair paths
            repaired = 0
            healed = True
            if index % 2 == 0 and any(
                e.status in ("corrupt", "missing") for e in audit.entries
            ):
                heal_path = "scrub --repair + resume"
                try:
                    engine = make_repair_engine(cell_dir)
                    repair_report = scrub_run(cell_dir, engine=engine, repair=True)
                    repaired = repair_report.repaired
                    healed = repair_report.healthy
                except CheckpointError:
                    healed = False
            else:
                heal_path = "resume --auto-repair"
            metrics_after = None
            if healed:
                try:
                    resumed = run_end_to_end(
                        task=task, scale=scale, seed=seed,
                        run_dir=str(cell_dir), resume=True, auto_repair=True,
                    )
                    metrics_after = dict(resumed.metrics)
                    repaired += len(resumed.repaired_stages)
                except CheckpointError:
                    healed = False

            # phase 4: verify bit-identical to the fault-free reference
            healthy_after = hashes_match = metrics_match = serving_loads = False
            if healed and metrics_after is not None:
                healthy_after = scrub_run(cell_dir).healthy
                hashes_match = _manifest_hashes(cell_dir) == ref_hashes
                metrics_match = metrics_after == reference.metrics and (
                    metrics is None or metrics == reference.metrics
                )
                try:
                    from repro.serving.artifacts import ServingArtifacts

                    ServingArtifacts.load(cell_dir)
                    serving_loads = True
                except Exception:  # noqa: BLE001 - verdict, not control flow
                    serving_loads = False

        cells.append(
            ChaosCell(
                fault=fault,
                rate=rate,
                outcome=outcome,
                error=error,
                faults_injected=faults_injected,
                damage_found=damage_found,
                heal_path=heal_path,
                repaired=repaired,
                healed=healed,
                healthy_after=healthy_after,
                hashes_match=hashes_match,
                metrics_match=metrics_match,
                serving_loads=serving_loads,
            )
        )

    result = StorageChaosResult(
        task=task,
        scale=scale,
        seed=seed,
        cells=cells,
        wall_seconds=time.perf_counter() - t0,
        reference_metrics=dict(reference.metrics),
    )

    artifact = BenchArtifact("storagechaos", scale=scale, seed=seed)
    artifact.time("wall_seconds", result.wall_seconds)
    per_fault: dict[str, int] = {}
    for cell in cells:
        per_fault[cell.fault] = per_fault.get(cell.fault, 0) + cell.faults_injected
    artifact.record(
        task=task,
        n_cells=len(cells),
        n_ok=sum(1 for c in cells if c.ok),
        holds=result.gates()["holds"],
        faults_injected=sum(c.faults_injected for c in cells),
        damage_found=sum(c.damage_found for c in cells),
        repaired=sum(c.repaired for c in cells),
        typed_failures=sum(1 for c in cells if c.outcome == "typed_failure"),
        untyped_failures=sum(1 for c in cells if c.outcome == "untyped_failure"),
        **{f"faults_{k}": v for k, v in per_fault.items()},
    )
    directory = bench_dir(out_dir)
    if directory:
        artifact.write(directory)
    return result
