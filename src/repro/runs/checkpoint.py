"""Stage-level checkpointing.

:class:`RunCheckpointer` is what the pipeline threads through its
stages: each stage declares its effective configuration (including the
content hashes of its inputs), and the checkpointer either replays the
stage from durable artifacts (fingerprint match) or computes it, stores
the artifacts, and records completion in the manifest — in that order,
so the manifest never references bytes that aren't on disk.

Every save / skip emits :mod:`repro.obs` spans and counters
(``runs.stage.save``, ``runs.stage.skip``, ``runs.stages_skipped`` …)
so a traced resumed run shows exactly what it reused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import repro.obs as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.dedup import StageDeduper
from repro.core.exceptions import ArtifactMissingError, CheckpointError, IntegrityError
from repro.runs.crash import crash_boundary
from repro.runs.manifest import RunManifest, StageRecord, stage_fingerprint
from repro.runs.repair import verify_and_restore
from repro.runs.store import ArtifactRef, RunStore

__all__ = ["StageOutcome", "RunCheckpointer"]

#: encode() returns {artifact_name: (kind, json_payload)}
Encoded = dict[str, tuple[str, Any]]


@dataclass
class StageOutcome:
    """What :meth:`RunCheckpointer.stage` produced."""

    value: Any
    record: StageRecord
    reused: bool
    #: satisfied by another run's identical in-flight stage (see
    #: :class:`repro.scheduler.dedup.StageDeduper`); the value was
    #: decoded from the shared store rather than computed here
    deduped: bool = False

    @property
    def artifact_hashes(self) -> dict[str, str]:
        """Content hashes of the stage's artifacts — feed these into the
        next stage's config so fingerprints chain over actual inputs."""
        return {name: ref.hash for name, ref in sorted(self.record.artifacts.items())}


class RunCheckpointer:
    """Durable stage checkpointing for one run directory."""

    def __init__(
        self,
        run_dir: str | Path,
        context: dict | None = None,
        resume: bool = False,
        store: RunStore | None = None,
        deduper: "StageDeduper | None" = None,
        auto_repair: bool = False,
    ) -> None:
        run_dir = Path(run_dir)
        context = dict(context or {})
        if RunManifest.exists(run_dir):
            if not resume:
                raise CheckpointError(
                    f"run directory {run_dir} already holds a manifest; pass "
                    f"resume=True (CLI: --resume) to continue it, or use a fresh "
                    f"directory"
                )
            self.manifest = RunManifest.load(run_dir)
            if self.manifest.context != context:
                raise CheckpointError(
                    f"refusing to resume: run {run_dir} was created with context "
                    f"{self.manifest.context!r} but this invocation has "
                    f"{context!r}; matching task/scale/seed is required"
                )
        else:
            self.manifest = RunManifest.create(run_dir, context)
        self.run_dir = run_dir
        # a shared store dedups identical artifacts across runs by
        # content hash; per-run manifests still live in run_dir
        self.store = store if store is not None else RunStore(run_dir)
        self.deduper = deduper
        # opt-in: damaged artifacts hit during replay/dedup decoding are
        # rebuilt in place (the stage's own compute/encode closures are
        # the replay, the recorded hash the acceptance oracle).  Off by
        # default so integrity failures stay loud unless asked for.
        self.auto_repair = auto_repair
        #: stage names replayed from artifacts (in stage order)
        self.reused_stages: list[str] = []
        #: stage names satisfied by another run's in-flight computation
        self.deduped_stages: list[str] = []
        #: stage names whose artifacts were rebuilt in place (auto-repair)
        self.repaired_stages: list[str] = []

    def _stage_payloads(
        self,
        name: str,
        artifacts: dict[str, ArtifactRef],
        compute: Callable[[], Any],
        encode: Callable[[Any], "Encoded"],
    ) -> dict[str, Any]:
        """Load a stage's persisted payloads, auto-repairing on damage.

        A fingerprint match got us here, so ``compute`` is (by the
        checkpoint contract) a deterministic replay of the recorded
        stage; :func:`verify_and_restore` enforces that with the
        recorded content hashes before anything is written.  The
        payloads are then re-read from the store so the caller decodes
        the exact JSON round-trip it would have seen without damage.
        """
        try:
            return self._read_payloads(artifacts)
        except (ArtifactMissingError, IntegrityError):
            if not self.auto_repair:
                raise
            with obs.span("runs.stage.repair", stage=name) as sp:
                value = compute()
                actions = verify_and_restore(self.store, name, artifacts, encode(value))
                sp.add_counter(
                    "artifacts_repaired", sum(1 for a in actions if a.restored)
                )
            obs.add_counter("runs.stages_repaired")
            self.repaired_stages.append(name)
            return self._read_payloads(artifacts)

    def _read_payloads(self, artifacts: dict[str, ArtifactRef]) -> dict[str, Any]:
        return {key: self.store.get_payload(ref) for key, ref in artifacts.items()}

    def stage(
        self,
        name: str,
        config: object,
        compute: Callable[[], Any],
        encode: Callable[[Any], Encoded],
        decode: Callable[[dict[str, Any]], Any],
    ) -> StageOutcome:
        """Replay ``name`` from artifacts, or compute and persist it.

        ``config`` must capture everything that determines the stage's
        output (config slice, derived RNG seeds, input artifact hashes);
        it is fingerprinted against the manifest record.  Replay happens
        only on an exact fingerprint match — any skew recomputes, and
        the changed output hashes re-fingerprint downstream stages.
        """
        fingerprint = stage_fingerprint(self.manifest.context, name, config)
        record = self.manifest.completed(name, fingerprint)
        if record is not None:
            with obs.span(
                "runs.stage.skip", stage=name, fingerprint=fingerprint[:12]
            ) as sp:
                payloads = self._stage_payloads(name, record.artifacts, compute, encode)
                value = decode(payloads)
                sp.add_counter("artifacts_reused", len(payloads))
                sp.add_counter(
                    "bytes_reused", sum(r.size for r in record.artifacts.values())
                )
            obs.add_counter("runs.stages_skipped")
            self.reused_stages.append(name)
            return StageOutcome(value=value, record=record, reused=True)

        t0 = time.perf_counter()

        def compute_and_store() -> tuple[Any, dict[str, ArtifactRef]]:
            value = compute()
            with obs.span("runs.stage.save", stage=name) as sp:
                refs = {
                    key: self.store.put_payload(kind, payload)
                    for key, (kind, payload) in encode(value).items()
                }
                sp.add_counter("artifacts_saved", len(refs))
            return value, refs

        deduped = False
        if self.deduper is None:
            value, refs = compute_and_store()
        else:
            # single-flight across concurrent runs sharing this store:
            # the first run with this fingerprint computes and persists,
            # the rest decode its artifacts (same path as a replay)
            outcome = self.deduper.run(fingerprint, compute_and_store)
            value, refs, deduped = outcome.value, outcome.refs, outcome.hit
            if deduped:
                with obs.span("runs.stage.dedup", stage=name) as sp:
                    payloads = self._stage_payloads(name, refs, compute, encode)
                    value = decode(payloads)
                    sp.add_counter("artifacts_reused", len(payloads))
                obs.add_counter("runs.stages_deduped")
                self.deduped_stages.append(name)
        if not deduped:
            obs.add_counter("runs.stages_computed")
        record = self.manifest.record_stage(
            name, fingerprint, config, refs, wall_time_s=time.perf_counter() - t0
        )
        crash_boundary(f"stage:{name}")
        return StageOutcome(value=value, record=record, reused=False, deduped=deduped)
