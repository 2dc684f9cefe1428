"""Store scrubbing: audit every artifact a run manifest references.

A scrub walks the manifest, re-hashes each referenced artifact on disk,
and classifies it ``healthy`` / ``corrupt`` / ``missing``; files in the
artifact directory that no stage references are reported as *orphans*
(informational, not damage — a store shared across runs legitimately
holds other runs' artifacts).  With ``repair=True`` and a
:class:`~repro.runs.repair.RepairEngine`, damaged artifacts are rebuilt
from lineage and re-verified, and each entry records whether the repair
restored the original bytes (``repaired``) or failed (``unrepaired``,
with the reason).

The audit pass completes before any repair runs, so the report always
shows the damage as found — a stage replay that heals several artifacts
at once does not mask how many were broken.

Library layer only: the CLI wrapper (run-dir argument parsing, the
pipeline-specific ``recompute`` callback, ``BENCH_scrub.json``) lives in
:mod:`repro.experiments.scrub`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import repro.obs as obs
from repro.core.exceptions import CheckpointError, ConfigurationError
from repro.runs.manifest import RunManifest
from repro.runs.repair import RepairEngine
from repro.runs.store import RunStore

__all__ = ["ScrubEntry", "ScrubReport", "scrub_run"]


@dataclass
class ScrubEntry:
    """One referenced artifact's audit (and, optionally, repair) outcome."""

    stage: str
    key: str
    hash: str
    kind: str
    #: healthy | corrupt | missing | repaired | unrepaired
    status: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "key": self.key,
            "hash": self.hash,
            "kind": self.kind,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class ScrubReport:
    """The full outcome of one scrub pass over a run directory."""

    run_dir: str
    entries: list[ScrubEntry]
    #: unreferenced file names in the artifact dir (informational)
    orphans: list[str] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for entry in self.entries:
            out[entry.status] = out.get(entry.status, 0) + 1
        out["orphaned"] = len(self.orphans)
        return out

    @property
    def repaired(self) -> int:
        return sum(1 for e in self.entries if e.status == "repaired")

    @property
    def unrepaired(self) -> int:
        return sum(
            1 for e in self.entries if e.status in ("unrepaired", "corrupt", "missing")
        )

    @property
    def healthy(self) -> bool:
        """No referenced artifact is currently damaged."""
        return self.unrepaired == 0

    def gates(self) -> dict[str, bool]:
        return {"store_healthy": self.healthy}

    def verdict(self) -> str:
        if not self.healthy:
            return (
                f"scrub verdict: UNREPAIRED damage — {self.unrepaired} "
                f"artifact(s) still corrupt or missing"
            )
        if self.repaired:
            return (
                f"scrub verdict: repaired {self.repaired} artifact(s); "
                f"store healthy"
            )
        return "scrub verdict: store healthy"

    def render(self) -> str:
        lines = [f"scrub of {self.run_dir}"]
        header = f"  {'stage':<12} {'artifact':<16} {'hash':<14} status"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for e in self.entries:
            line = f"  {e.stage:<12} {e.key:<16} {e.hash[:12]:<14} {e.status}"
            if e.detail:
                line += f" ({e.detail})"
            lines.append(line)
        if self.orphans:
            lines.append(
                f"  orphans: {len(self.orphans)} unreferenced file(s) "
                f"(other runs' artifacts, or debris)"
            )
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        lines.append(f"  totals: {counts}")
        lines.append(self.verdict())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "run_dir": self.run_dir,
            "counts": self.counts,
            "healthy": self.healthy,
            "entries": [e.to_dict() for e in self.entries],
            "orphans": list(self.orphans),
        }


def scrub_run(
    run_dir: str | Path,
    engine: RepairEngine | None = None,
    repair: bool = False,
) -> ScrubReport:
    """Audit (and optionally repair) every artifact the run references.

    The audit reads the engine's store when one is given, else the run
    directory's own.  ``repair=True`` requires an ``engine`` — repair is
    lineage replay, and the replay recipe is experiment-specific.
    """
    run_dir = Path(run_dir)
    if repair and engine is None:
        raise ConfigurationError(
            "scrub_run(repair=True) requires a RepairEngine; build one with "
            "repro.experiments.scrub.make_repair_engine or pass repair=False "
            "for a report-only audit"
        )
    manifest = RunManifest.load(run_dir)
    store = engine.store if engine is not None else RunStore(run_dir)

    # audit pass: classify everything before touching anything
    entries: list[ScrubEntry] = []
    referenced: set[str] = set()
    with obs.span("runs.scrub.audit", run_dir=str(run_dir)):
        for record in manifest.stages.values():
            for key, ref in record.artifacts.items():
                referenced.add(store.path_for(ref).name)
                status = store.check(ref)
                obs.add_counter(f"runs.scrub.{status}")
                entries.append(
                    ScrubEntry(
                        stage=record.name,
                        key=key,
                        hash=ref.hash,
                        kind=ref.kind,
                        status=status,
                    )
                )
    orphans = sorted(
        path.name
        for path in store.artifact_dir.iterdir()
        if path.is_file()
        and path.name not in referenced
        and not path.name.endswith(".tmp")
    )
    for _ in orphans:
        obs.add_counter("runs.scrub.orphaned")

    # repair pass
    if repair:
        for entry in entries:
            if entry.status not in ("corrupt", "missing"):
                continue
            was = entry.status
            with obs.span("runs.scrub.repair", hash=entry.hash[:12]):
                try:
                    ref = engine.ensure_healthy(entry.hash)
                except CheckpointError as exc:
                    entry.status = "unrepaired"
                    entry.detail = str(exc)
                    obs.add_counter("runs.scrub.unrepaired")
                    continue
            if store.check(ref) == "healthy":
                entry.status = "repaired"
                entry.detail = f"was {was}"
                obs.add_counter("runs.scrub.repaired")
            else:
                entry.status = "unrepaired"
                entry.detail = f"was {was}; replay did not restore the bytes"
                obs.add_counter("runs.scrub.unrepaired")

    return ScrubReport(run_dir=str(run_dir), entries=entries, orphans=orphans)
