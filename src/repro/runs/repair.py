"""Lineage-driven artifact repair.

A damaged artifact (corrupt or missing, per :meth:`RunStore.check`) is
not a dead end: the run manifest records which stage produced it, under
what configuration, from which content-hashed inputs.  Replaying that
stage deterministically rebuilds the bytes — and the *original content
hash is the acceptance oracle*: repair either restores bit-identical
content (the rebuilt bytes hash to the recorded reference) or fails
loudly with :class:`~repro.core.exceptions.RepairError` and a lineage
report.  Wrong bytes are never substituted.

Two entry points:

* :func:`verify_and_restore` — the oracle itself: given a stage's
  recorded artifact refs and a freshly replayed encoding, verify every
  rebuilt artifact's hash *before any write*, then restore only the
  damaged ones.  Used both here and by
  :class:`~repro.runs.checkpoint.RunCheckpointer` auto-repair (which
  has the stage's live ``compute``/``encode`` closures in hand).
* :class:`RepairEngine` — the offline walker for a finished run: finds
  the producing stage of a damaged hash, recursively heals that stage's
  lineage inputs first, then replays it via a caller-supplied
  ``recompute`` callback (see
  :func:`repro.experiments.scrub.rebuild_end_to_end` for the pipeline
  one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import repro.obs as obs
from repro.core.atomicio import sha256_hex
from repro.core.exceptions import (
    ArtifactMissingError,
    IntegrityError,
    RepairError,
)
from repro.runs.manifest import RunManifest, StageRecord
from repro.runs.store import ArtifactRef, RunStore, encode_payload

__all__ = ["RepairAction", "verify_and_restore", "RepairEngine"]

#: mirror of the checkpoint encode contract: {artifact_name: (kind, payload)}
Encoded = dict[str, tuple[str, Any]]


@dataclass(frozen=True)
class RepairAction:
    """One artifact's outcome from a stage repair pass."""

    stage: str
    key: str
    hash: str
    kind: str
    #: store state when the repair pass reached it
    status_before: str
    #: whether the artifact was rewritten (``False`` = already healthy)
    restored: bool


def _lineage_note(record: StageRecord) -> str:
    inputs = _input_hashes(record)
    shown = ", ".join(h[:12] + "…" for h in inputs) if inputs else "none"
    return (
        f"lineage: stage {record.name!r} (fingerprint "
        f"{record.fingerprint[:12]}…), inputs [{shown}]"
    )


def _input_hashes(record: StageRecord) -> list[str]:
    """Content hashes of the stage's recorded inputs.

    Stages declare their inputs as ``config["inputs"] = {key: hash}`` —
    that is what chains the manifest like a Merkle list, and it is also
    exactly the set of upstream artifacts a replay will read.
    """
    config = record.config
    if isinstance(config, dict):
        inputs = config.get("inputs")
        if isinstance(inputs, dict):
            return [str(value) for value in inputs.values()]
    return []


def verify_and_restore(
    store: RunStore,
    stage: str,
    artifacts: dict[str, ArtifactRef],
    encoded: Encoded,
) -> list[RepairAction]:
    """Apply the repair oracle: verify replayed outputs, restore damage.

    Every recorded artifact must be present in ``encoded`` and its
    rebuilt bytes must hash to the *original* reference; verification of
    the full set happens before any write, so a non-deterministic replay
    leaves the store untouched.  Damaged artifacts (corrupt or missing)
    are then rewritten atomically; healthy ones are left alone.

    Raises :class:`RepairError` if the replay is missing an artifact or
    produced different bytes.
    """
    rebuilt: dict[str, bytes] = {}
    for key, ref in artifacts.items():
        if key not in encoded:
            raise RepairError(
                f"replay of stage {stage!r} produced no artifact {key!r} "
                f"(expected {ref.hash[:12]}…, kind {ref.kind}); the replay "
                f"does not match the recorded run"
            )
        kind, payload = encoded[key]
        data = encode_payload(kind, payload)
        actual = sha256_hex(data)
        if actual != ref.hash:
            raise RepairError(
                f"repair oracle failed for stage {stage!r} artifact {key!r}: "
                f"replay produced hash {actual[:12]}… but the manifest records "
                f"{ref.hash[:12]}… (kind {ref.kind}). The stage replay is not "
                f"bit-deterministic; refusing to substitute different bytes."
            )
        rebuilt[key] = data

    actions: list[RepairAction] = []
    for key, ref in artifacts.items():
        status = store.check(ref)
        restored = False
        if status != "healthy":
            store.put_bytes(ref.kind, rebuilt[key])
            obs.add_counter("runs.artifacts_repaired")
            restored = True
        actions.append(
            RepairAction(
                stage=stage,
                key=key,
                hash=ref.hash,
                kind=ref.kind,
                status_before=status,
                restored=restored,
            )
        )
    return actions


class RepairEngine:
    """Walks a run manifest to rebuild damaged artifacts from lineage.

    ``recompute`` replays one recorded stage — reading its inputs from
    the (already healed) store — and returns the stage's encoding in the
    checkpoint contract ``{artifact_name: (kind, payload)}``.  It may
    raise :class:`RepairError` for stages it cannot replay offline.

    The engine guarantees the repair oracle: every rebuilt artifact is
    hash-verified against its original reference before any write.
    """

    def __init__(
        self,
        manifest: RunManifest,
        store: RunStore,
        recompute: Callable[[StageRecord], Encoded],
        max_depth: int = 16,
    ) -> None:
        self.manifest = manifest
        self.store = store
        self.recompute = recompute
        self.max_depth = max_depth
        #: every artifact touched across repairs, in repair order
        self.actions: list[RepairAction] = []

    # ------------------------------------------------------------------
    # lineage lookup
    # ------------------------------------------------------------------
    def producer_of(self, digest: str) -> tuple[StageRecord, str] | None:
        """The (stage record, artifact key) that produced ``digest``."""
        for record in self.manifest.stages.values():
            for key, ref in record.artifacts.items():
                if ref.hash == digest:
                    return record, key
        return None

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def ensure_healthy(self, digest: str, _depth: int = 0) -> ArtifactRef:
        """Make the artifact with content hash ``digest`` readable.

        If it is damaged, replays its producing stage (recursively
        healing that stage's own lineage inputs first) and verifies the
        rebuilt bytes against ``digest``.  Returns the artifact's ref.

        Raises :class:`RepairError` when no manifest stage produced the
        hash (orphan — nothing records how to rebuild it), when lineage
        recursion runs too deep, or when the oracle rejects the replay.
        """
        if _depth > self.max_depth:
            raise RepairError(
                f"lineage recursion exceeded {self.max_depth} levels while "
                f"repairing artifact {digest[:12]}…; the manifest's input "
                f"chain appears cyclic or corrupt"
            )
        found = self.producer_of(digest)
        if found is None:
            raise RepairError(
                f"artifact {digest[:12]}… has no producing stage in the run "
                f"manifest; it cannot be rebuilt from lineage (orphaned or "
                f"externally supplied content)"
            )
        record, _key = found
        ref = record.artifacts[_key]
        if self.store.check(ref) == "healthy":
            return ref
        self.repair_stage(record, _depth)
        return ref

    def repair_stage(self, record: StageRecord, _depth: int = 0) -> list[RepairAction]:
        """Replay one stage and restore all of its damaged artifacts."""
        for input_hash in _input_hashes(record):
            self._ensure_input(record, input_hash, _depth + 1)
        with obs.span("runs.repair.stage", stage=record.name):
            try:
                encoded = self.recompute(record)
            except (ArtifactMissingError, IntegrityError) as exc:
                raise RepairError(
                    f"replay of stage {record.name!r} hit further store damage "
                    f"({exc}); {_lineage_note(record)}"
                ) from exc
        actions = verify_and_restore(self.store, record.name, record.artifacts, encoded)
        self.actions.extend(actions)
        obs.add_counter("runs.stages_repaired")
        return actions

    def _ensure_input(self, record: StageRecord, digest: str, depth: int) -> None:
        """Heal one lineage input of ``record`` before replaying it."""
        if self.producer_of(digest) is not None:
            self.ensure_healthy(digest, depth)
            return
        # not produced by any recorded stage: acceptable only if the
        # content is already intact in the store (externally supplied)
        for path in self.store.artifact_dir.glob(f"{digest}.*"):
            try:
                if sha256_hex(path.read_bytes()) == digest:
                    return
            except OSError:
                continue
        raise RepairError(
            f"lineage input {digest[:12]}… of stage {record.name!r} is neither "
            f"produced by any manifest stage nor intact in the store; the "
            f"stage cannot be replayed. {_lineage_note(record)}"
        )
