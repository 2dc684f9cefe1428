"""``python -m repro.experiments scrub`` — audit and repair a run's store.

The library-level scrubber (:mod:`repro.runs.scrub`) knows how to audit
any manifest; *repair* needs an experiment-specific replay recipe.  This
module supplies the ``end_to_end`` one: :func:`rebuild_end_to_end`
reconstructs the run's exact pipeline (task / scale / seed from the
manifest context, per-stage knobs from the recorded stage configs) so
:meth:`~repro.core.pipeline.CrossModalPipeline.recompute_stage` replays
each damaged stage bit-identically, and the content hash in every
artifact reference acts as the acceptance oracle.

A ``BENCH_scrub.json`` artifact records the audit counts and wall time
so store health is diffable across CI runs like every other benchmark.
"""

from __future__ import annotations

import time
from pathlib import Path

import repro.obs as obs
from repro.core.config import CurationConfig, PipelineConfig, TrainingConfig
from repro.core.exceptions import ConfigurationError, RepairError
from repro.experiments.end_to_end import build_pipeline_for_run
from repro.obs.bench import BenchArtifact, bench_dir
from repro.runs import RepairEngine, RunManifest, RunStore, ScrubReport, scrub_run

__all__ = ["rebuild_end_to_end", "make_repair_engine", "run_scrub"]


def rebuild_end_to_end(manifest: RunManifest):
    """Reconstruct the pipeline + splits of a recorded ``end_to_end`` run.

    The manifest context pins task / scale / seed; the per-stage knobs
    that change artifact bytes (curation config, graph backend, training
    config, service-set selections) are read back from the recorded
    stage configs, so a run launched with non-default flags replays
    faithfully.  Raises :class:`RepairError` for manifests this build
    cannot replay (other experiments, incompatible config schemas,
    recorded values this build rejects — e.g. a retired graph backend).
    """
    context = manifest.context
    if context.get("experiment") != "end_to_end":
        raise RepairError(
            f"scrub repair only knows how to replay 'end_to_end' runs; this "
            f"manifest records experiment={context.get('experiment')!r}"
        )
    try:
        task = str(context["task"])
        scale = float(context["scale"])
        seed = int(context["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RepairError(
            f"run context {context!r} lacks a usable task/scale/seed: {exc}"
        ) from exc

    config_kwargs: dict = {"seed": seed}
    curate = manifest.stages.get("curate")
    train = manifest.stages.get("train")
    try:
        if curate is not None and isinstance(curate.config, dict):
            recorded = curate.config.get("curation")
            if isinstance(recorded, dict):
                config_kwargs["curation"] = CurationConfig(**recorded)
            lf_sets = curate.config.get("lf_service_sets")
            if lf_sets is not None:
                config_kwargs["lf_service_sets"] = tuple(lf_sets)
        if train is not None and isinstance(train.config, dict):
            recorded = train.config.get("training")
            if isinstance(recorded, dict):
                recorded = dict(recorded)
                # JSON round-trips tuples as lists; the config dataclass
                # (and the fingerprint it feeds) expects the tuple back
                if recorded.get("hidden_sizes") is not None:
                    recorded["hidden_sizes"] = tuple(recorded["hidden_sizes"])
                config_kwargs["training"] = TrainingConfig(**recorded)
            if "model_service_sets" in train.config:
                config_kwargs["model_service_sets"] = tuple(
                    train.config["model_service_sets"]
                )
            if "include_image_features" in train.config:
                config_kwargs["include_image_features"] = bool(
                    train.config["include_image_features"]
                )
        config = PipelineConfig(**config_kwargs)
    except (TypeError, ConfigurationError) as exc:
        raise RepairError(
            f"recorded stage configs do not match this build's config schema "
            f"({exc}); the run was written by an incompatible version"
        ) from exc
    return build_pipeline_for_run(task, scale, seed, config)


def make_repair_engine(run_dir: str | Path) -> RepairEngine:
    """A :class:`RepairEngine` for a checkpointed ``end_to_end`` run.

    Pipeline reconstruction (corpus generation, catalog build) is
    deferred to the first stage replay, so building an engine for a
    healthy store costs nothing beyond loading the manifest.
    """
    run_dir = Path(run_dir)
    manifest = RunManifest.load(run_dir)
    store = RunStore(run_dir)
    state: dict = {}

    def recompute(record):
        if "pipeline" not in state:
            state["pipeline"] = rebuild_end_to_end(manifest)
        pipeline, splits = state["pipeline"]
        return pipeline.recompute_stage(record.name, manifest, store, splits)

    return RepairEngine(manifest, store, recompute)


def run_scrub(
    run_dir: str | Path,
    repair: bool = False,
    out_dir: str | None = None,
) -> ScrubReport:
    """Audit every artifact the run references; optionally repair.

    Writes ``BENCH_scrub.json`` (audit counts, wall time) into
    ``$REPRO_BENCH_DIR``, else ``out_dir``, else the run directory
    (:func:`repro.obs.bench.bench_dir`).
    """
    run_dir = Path(run_dir)
    t0 = time.perf_counter()
    with obs.span("experiments.scrub", run_dir=str(run_dir), repair=repair):
        engine = make_repair_engine(run_dir) if repair else None
        report = scrub_run(run_dir, engine=engine, repair=repair)
    wall = time.perf_counter() - t0

    context = (
        engine.manifest.context if engine is not None else RunManifest.load(run_dir).context
    )
    artifact = BenchArtifact(
        "scrub",
        scale=float(context.get("scale", 0.0) or 0.0),
        seed=int(context.get("seed", 0) or 0),
    )
    artifact.time("wall_seconds", wall)
    artifact.record(
        run_dir=str(run_dir),
        repair=repair,
        store_healthy=report.gates()["store_healthy"],
        **{f"n_{status}": count for status, count in report.counts.items()},
    )
    artifact.write(bench_dir(out_dir or run_dir))
    return report
