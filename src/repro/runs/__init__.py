"""Crash-safe pipeline runs: durable checkpoints and resume.

The paper's split architecture exists so teams can "enter and exit the
pipeline at their step" through well-defined artifacts; at production
scale those artifacts must also survive preemption and partial failure
(Snorkel DryBell runs its pipelines as preemptible MapReduce jobs).
This package makes a pipeline run durable:

* :class:`RunStore` — content-hashed artifacts, written atomically,
  verified on read, quarantined on corruption;
* :class:`RunManifest` — per-run record of stage completions, config
  fingerprints (chained over input hashes), and artifacts;
* :class:`RunCheckpointer` — stage replay-or-compute threaded through
  :meth:`CrossModalPipeline.run <repro.core.pipeline.CrossModalPipeline.run>`;
* :class:`ProgressManifest` — the job-key-gated ``index -> entry`` file
  behind sharded stage resume, so a killed sharded stage recomputes
  only the shards it had not finished;
* :mod:`repro.runs.crash` — kill-at-boundary injection used by the
  crash/resume harness (``python -m repro.experiments crash``);
* :mod:`repro.runs.repair` — lineage-driven replay of damaged
  artifacts, with the original content hash as the acceptance oracle;
* :mod:`repro.runs.scrub` — full-store audit (healthy / corrupt /
  missing / orphaned) with optional in-place repair;
* :mod:`repro.runs.faultfs` — seeded filesystem fault injection
  (EIO, ENOSPC, fsync failure, bit flips, torn directory entries)
  shimming :mod:`repro.core.atomicio`.

A resumed run is bit-identical to an uninterrupted one: every stage
artifact round-trips exactly (see :mod:`repro.runs.codecs`) and all
stage RNG streams are derived from recorded seeds.  The same property
powers self-healing: a damaged artifact's producing stage replays to
bit-identical bytes, or repair refuses and fails loudly.
"""

from repro.runs.checkpoint import RunCheckpointer, StageOutcome
from repro.runs.crash import (
    CRASH_AT_ENV,
    CRASH_EXIT_CODE,
    CRASH_MODE_ENV,
    crash_boundary,
)
from repro.runs.faultfs import (
    FAULT_TYPES,
    FaultEvent,
    FaultFSConfig,
    FaultyFS,
    InjectedFaultError,
    inject_faults,
)
from repro.runs.manifest import MANIFEST_VERSION, RunManifest, StageRecord, stage_fingerprint
from repro.runs.progress import ProgressManifest, job_key
from repro.runs.repair import RepairAction, RepairEngine, verify_and_restore
from repro.runs.scrub import ScrubEntry, ScrubReport, scrub_run
from repro.runs.store import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactRef,
    RunStore,
    encode_envelope,
    run_directory,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactRef",
    "CRASH_AT_ENV",
    "CRASH_EXIT_CODE",
    "CRASH_MODE_ENV",
    "FAULT_TYPES",
    "FaultEvent",
    "FaultFSConfig",
    "FaultyFS",
    "InjectedFaultError",
    "MANIFEST_VERSION",
    "ProgressManifest",
    "RepairAction",
    "RepairEngine",
    "RunCheckpointer",
    "RunManifest",
    "RunStore",
    "ScrubEntry",
    "ScrubReport",
    "StageOutcome",
    "StageRecord",
    "crash_boundary",
    "encode_envelope",
    "inject_faults",
    "job_key",
    "run_directory",
    "scrub_run",
    "stage_fingerprint",
    "verify_and_restore",
]
