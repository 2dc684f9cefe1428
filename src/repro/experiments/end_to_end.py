"""Table 2 and Figure 5 — end-to-end comparison and cross-over curves.

Table 2: for each task, the AUPRC (relative to the embedding-only fully
supervised baseline) of a fully-supervised text model, a weakly
supervised image model, and the cross-modal model — plus the number of
hand-labeled image examples a fully supervised model needs to beat the
cross-modal pipeline (the "cross-over" point).

Figure 5 (CT 1): the full fully-supervised learning curve against the
flat cross-modal line, in two regimes — all four service sets servable
(top), and only sets A+B servable while LFs still use ABCD including
the nonservable features (bottom).  The bottom regime's larger
cross-over is the paper's evidence that nonservable features matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import PipelineConfig
from repro.core.pipeline import PipelineResult
from repro.experiments.common import (
    ExperimentContext,
    find_crossover,
    fusion_auprc,
    modality_feature_names,
    supervised_sweep,
)
from repro.datagen.entities import Modality
from repro.datagen.tasks import list_tasks
from repro.exec import ExecutorConfig
from repro.experiments.reporting import render_table
from repro.obs.bench import BenchArtifact, bench_dir

__all__ = [
    "TaskEndToEnd",
    "Table2Result",
    "Figure5Result",
    "EndToEndRun",
    "build_pipeline_for_run",
    "run_task_end_to_end",
    "run_table2",
    "run_figure5",
    "run_end_to_end",
    "run_pipeline",
    "PAPER_TABLE2",
    "default_budgets",
]


def build_pipeline_for_run(
    task: str,
    scale: float,
    seed: int,
    config: "PipelineConfig | None" = None,
):
    """The exact pipeline + splits a checkpointed ``end_to_end`` run uses.

    Factored out of :func:`run_end_to_end` so lineage repair
    (``scrub --repair``, ``storagechaos``) replays stages against the
    identical corpora, resource catalog (``n_history=10_000``), and
    configuration the original run computed with — any drift here and
    rebuilt artifacts would (correctly) fail the repair hash oracle.

    Returns ``(pipeline, splits)``.
    """
    from repro.core.pipeline import CrossModalPipeline
    from repro.datagen.tasks import classification_task, generate_task_corpora
    from repro.resources.service_sets import build_resource_suite

    task_config = classification_task(task)
    world, task_rt, splits = generate_task_corpora(task_config, scale=scale, seed=seed)
    catalog = build_resource_suite(world, task_rt, n_history=10_000, seed=seed)
    pipeline = CrossModalPipeline(
        world, task_rt, catalog, config or PipelineConfig(seed=seed)
    )
    return pipeline, splits

#: the paper's Table 2 (relative AUPRC; cross-over in hand-labels)
PAPER_TABLE2 = {
    "CT1": {"text": 1.12, "image": 1.43, "cross": 1.52, "crossover": 60_000},
    "CT2": {"text": 1.49, "image": 2.32, "cross": 2.43, "crossover": 50_000},
    "CT3": {"text": 0.88, "image": 0.95, "cross": 1.14, "crossover": 5_000},
    "CT4": {"text": 1.74, "image": 2.00, "cross": 2.45, "crossover": 4_000},
    "CT5": {"text": 1.67, "image": 2.03, "cross": 2.42, "crossover": 750_000},
}


def default_budgets(pool_size: int) -> list[int]:
    """Hand-label budgets for the supervised sweep (prefixes of pool).

    The full pool is always the last point so the cross-over search sees
    the best fully-supervised model the data supports.
    """
    budgets = [b for b in (100, 250, 500, 1000, 2000, 4000, 8000) if b < pool_size]
    budgets.append(pool_size)
    return budgets


@dataclass
class TaskEndToEnd:
    """End-to-end measurements for one task."""

    task: str
    baseline_auprc: float
    text_auprc: float
    image_auprc: float
    cross_auprc: float
    budgets: list[int]
    supervised: list[float]
    crossover: int | None

    @property
    def text_relative(self) -> float:
        return self.text_auprc / self.baseline_auprc

    @property
    def image_relative(self) -> float:
        return self.image_auprc / self.baseline_auprc

    @property
    def cross_relative(self) -> float:
        return self.cross_auprc / self.baseline_auprc


@dataclass
class Table2Result:
    """Measured Table 2 across tasks."""

    tasks: list[TaskEndToEnd]
    scale: float
    seed: int

    def render(self) -> str:
        rows = []
        for t in self.tasks:
            paper = PAPER_TABLE2[t.task]
            rows.append(
                [
                    t.task,
                    round(t.text_relative, 2),
                    round(t.image_relative, 2),
                    round(t.cross_relative, 2),
                    t.crossover if t.crossover is not None else f">{t.budgets[-1]}",
                    f"{paper['text']}/{paper['image']}/{paper['cross']}",
                    paper["crossover"],
                ]
            )
        return render_table(
            ["Task", "Text", "Image", "Cross-Modal", "Cross-Over",
             "paper T/I/X", "paper X-over"],
            rows,
            title=f"Table 2 — relative AUPRC (scale={self.scale}, seed={self.seed})",
        )


def run_task_end_to_end(
    ctx: ExperimentContext,
    budgets: list[int] | None = None,
    n_model_seeds: int = 2,
) -> TaskEndToEnd:
    """Measure text / image / cross-modal models and the supervised
    sweep for one task context."""
    if budgets is None:
        budgets = default_budgets(ctx.pool_table.n_rows)
    text = fusion_auprc(ctx, text_sets=("A", "B", "C", "D"), image_sets=None,
                        n_model_seeds=n_model_seeds)
    image = fusion_auprc(ctx, text_sets=None, image_sets=("A", "B", "C", "D"),
                         n_model_seeds=n_model_seeds)
    cross = fusion_auprc(ctx, n_model_seeds=n_model_seeds)
    sup_features = modality_feature_names(
        ctx, ("A", "B", "C", "D"), Modality.IMAGE
    )
    sweep = supervised_sweep(ctx, budgets, sup_features, n_model_seeds=n_model_seeds)
    return TaskEndToEnd(
        task=ctx.task_name,
        baseline_auprc=ctx.baseline_auprc,
        text_auprc=text,
        image_auprc=image,
        cross_auprc=cross,
        budgets=budgets,
        supervised=sweep,
        crossover=find_crossover(budgets, sweep, cross),
    )


def run_table2(
    tasks: list[str] | None = None,
    scale: float = 0.5,
    seed: int = 1,
    budgets: list[int] | None = None,
    n_model_seeds: int = 2,
) -> Table2Result:
    """Run the end-to-end comparison over all (or selected) tasks."""
    results = []
    for task_name in tasks or list_tasks():
        ctx = ExperimentContext(task_name=task_name, scale=scale, seed=seed)
        results.append(run_task_end_to_end(ctx, budgets, n_model_seeds))
    return Table2Result(tasks=results, scale=scale, seed=seed)


@dataclass
class EndToEndRun:
    """One full :meth:`CrossModalPipeline.run` plus its headline
    numbers — the cheapest way to see (and trace) every pipeline layer
    working together."""

    task: str
    metrics: dict[str, float]
    timings: dict[str, float]
    n_lfs: int
    coverage: float
    scale: float
    seed: int
    #: stages replayed from a run checkpoint (empty without --run-dir)
    resumed_stages: list[str] = field(default_factory=list)
    #: stages whose damaged artifacts were rebuilt in place (--auto-repair)
    repaired_stages: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"end-to-end pipeline run — {self.task} "
            f"(scale={self.scale}, seed={self.seed})",
            f"  labeling functions: {self.n_lfs} "
            f"(coverage {self.coverage:.2f})",
        ]
        for key in ("auprc", "f1@0.5", "positive_rate", "n_test"):
            if key in self.metrics:
                lines.append(f"  {key}: {self.metrics[key]:.4g}")
        lines.append(
            "  timings: "
            + ", ".join(f"{k} {v:.1f}s" for k, v in self.timings.items())
        )
        if self.resumed_stages:
            lines.append(
                "  resumed from checkpoint: " + ", ".join(self.resumed_stages)
            )
        if self.repaired_stages:
            lines.append(
                "  auto-repaired from lineage: " + ", ".join(self.repaired_stages)
            )
        return "\n".join(lines)


def run_pipeline(
    task: str = "CT1",
    scale: float = 0.4,
    seed: int = 1,
    run_dir: str | None = None,
    resume: bool = False,
    executor: "ExecutorConfig | None" = None,
    graph_backend: str | None = None,
    auto_repair: bool = False,
    shard_size: int | None = None,
) -> tuple[EndToEndRun, PipelineResult]:
    """Run the full pipeline (featurize -> curate -> train -> evaluate)
    once on one task.

    Under ``--trace`` this produces the canonical nested trace: one span
    per pipeline step, with per-service featurization counters and
    latency histograms inside the featurize subtree.

    With ``run_dir``, every completed stage is checkpointed there
    (content-hashed artifacts + manifest), and ``resume=True`` replays
    completed stages from a prior interrupted run instead of recomputing
    them — bit-identically, since all stage RNG streams derive from the
    recorded seeds.  A ``result.json`` with the headline numbers is
    written atomically into the run directory on completion.

    ``executor`` selects the execution backend for the parallel stages.
    Backends produce byte-identical artifacts, so the checkpoint context
    deliberately excludes the backend: a run interrupted on one backend
    can resume on another.

    ``graph_backend`` selects kNN graph construction for the curation
    stage (exact | lsh).  Unlike the exec backend it
    changes results, so it IS part of the curate-stage fingerprint: a
    checkpointed run never silently reuses a graph built by a different
    backend.

    ``auto_repair=True`` (CLI: ``--auto-repair``) rebuilds a damaged
    stage artifact in place during replay — recompute, verify against
    the recorded content hash, restore — instead of aborting on the
    first :class:`IntegrityError`.  Off by default: an unexpected
    integrity failure should stay loud unless self-healing was asked
    for.

    ``shard_size`` (CLI: ``--shard-size``) routes featurization through
    the out-of-core sharded data plane (:mod:`repro.shards`): feature
    tables persist as content-hashed shard artifacts of that many rows,
    computed one shard at a time.  Values and downstream results are
    bit-identical to an unsharded run.  Requires ``run_dir`` — the
    shards live in the run's artifact store.

    Writes no ``BENCH_end_to_end.json``: experiments that run the
    pipeline as one of their steps (``serve``, ``storagechaos``) call
    this, and only :func:`run_end_to_end` records the benchmark.
    Returns the headline numbers and the full pipeline result.
    """
    from pathlib import Path

    from repro.core.atomicio import atomic_write_json
    from repro.core.config import CurationConfig, PipelineConfig
    from repro.runs import RunCheckpointer

    checkpoint = None
    if run_dir is not None:
        checkpoint = RunCheckpointer(
            run_dir,
            context={
                "experiment": "end_to_end",
                "task": task,
                "scale": scale,
                "seed": seed,
            },
            resume=resume,
            auto_repair=auto_repair,
        )

    config_kwargs: dict = {"seed": seed}
    if executor is not None:
        config_kwargs["executor"] = executor
    if graph_backend is not None:
        config_kwargs["curation"] = CurationConfig(graph_backend=graph_backend)
    if shard_size is not None:
        config_kwargs["shard_size"] = shard_size
    config = PipelineConfig(**config_kwargs)
    pipeline, splits = build_pipeline_for_run(task, scale, seed, config)
    result = pipeline.run(splits, checkpoint=checkpoint)
    run = EndToEndRun(
        task=task,
        metrics=result.metrics,
        timings=result.timings,
        n_lfs=len(result.curation.lfs),
        coverage=result.curation.label_matrix.coverage(),
        scale=scale,
        seed=seed,
        resumed_stages=list(result.resumed_stages),
        repaired_stages=(
            list(checkpoint.repaired_stages) if checkpoint is not None else []
        ),
    )
    if run_dir is not None:
        atomic_write_json(
            Path(run_dir) / "result.json",
            {
                "task": run.task,
                "scale": run.scale,
                "seed": run.seed,
                "metrics": run.metrics,
                "n_lfs": run.n_lfs,
                "coverage": run.coverage,
                "resumed_stages": run.resumed_stages,
                "repaired_stages": run.repaired_stages,
            },
            indent=2,
        )
    return run, result


def run_end_to_end(
    task: str = "CT1",
    scale: float = 0.4,
    seed: int = 1,
    run_dir: str | None = None,
    resume: bool = False,
    executor: "ExecutorConfig | None" = None,
    graph_backend: str | None = None,
    auto_repair: bool = False,
    shard_size: int | None = None,
) -> EndToEndRun:
    """The ``end_to_end`` experiment: :func:`run_pipeline` once, then
    ``BENCH_end_to_end.json`` into ``$REPRO_BENCH_DIR``, else
    ``run_dir``, else nowhere (:func:`repro.obs.bench.bench_dir`)."""
    run, _ = run_pipeline(
        task=task, scale=scale, seed=seed, run_dir=run_dir, resume=resume,
        executor=executor, graph_backend=graph_backend,
        auto_repair=auto_repair, shard_size=shard_size,
    )
    directory = bench_dir(run_dir)
    if directory:
        artifact = BenchArtifact("end_to_end", scale=scale, seed=seed)
        for stage, seconds in run.timings.items():
            artifact.time(stage, seconds)
        artifact.record(
            task=task,
            metrics={k: round(v, 4) for k, v in run.metrics.items()},
            n_lfs=run.n_lfs,
            coverage=round(run.coverage, 4),
            resumed_stages=run.resumed_stages,
            repaired_stages=run.repaired_stages,
        )
        artifact.write(directory)
    return run


@dataclass
class Figure5Result:
    """The two cross-over curves of Figure 5 (CT 1)."""

    budgets: list[int]
    supervised_full: list[float]
    cross_modal_full: float
    crossover_full: int | None
    supervised_servable: list[float]
    cross_modal_servable: float
    crossover_servable: int | None
    baseline_auprc: float
    scale: float
    seed: int

    def render(self) -> str:
        rows = []
        for i, budget in enumerate(self.budgets):
            rows.append(
                [
                    budget,
                    round(self.supervised_full[i] / self.baseline_auprc, 2),
                    round(self.cross_modal_full / self.baseline_auprc, 2),
                    round(self.supervised_servable[i] / self.baseline_auprc, 2),
                    round(self.cross_modal_servable / self.baseline_auprc, 2),
                ]
            )
        table = render_table(
            ["hand-labels", "sup ABCD", "cross ABCD", "sup AB", "cross AB(+ABCD LFs)"],
            rows,
            title=(
                f"Figure 5 — relative AUPRC vs hand-label budget "
                f"(scale={self.scale}, seed={self.seed})"
            ),
        )
        notes = (
            f"\ncross-over (ABCD servable): {self.crossover_full}"
            f"\ncross-over (AB servable, ABCD LFs): {self.crossover_servable}"
            "\npaper: 60k (top, all sets) vs 140k (bottom, two sets)"
        )
        return table + notes


def run_figure5(
    scale: float = 0.5,
    seed: int = 1,
    budgets: list[int] | None = None,
    n_model_seeds: int = 2,
) -> Figure5Result:
    """Reproduce Figure 5 on CT 1.

    Top: both the supervised model and the cross-modal model use all
    four service sets.  Bottom: both are restricted to servable sets
    A+B, while LFs still mine over ABCD (nonservable simulation).
    """
    ctx = ExperimentContext(task_name="CT1", scale=scale, seed=seed)
    if budgets is None:
        budgets = default_budgets(ctx.pool_table.n_rows)

    # top regime: ABCD servable everywhere
    cross_full = fusion_auprc(ctx, n_model_seeds=n_model_seeds)
    sup_features_full = modality_feature_names(ctx, ("A", "B", "C", "D"), Modality.IMAGE)
    sweep_full = supervised_sweep(ctx, budgets, sup_features_full, n_model_seeds)

    # bottom regime: A+B servable, LFs over ABCD (the default lf sets)
    servable_config = replace(
        ctx.config if ctx.config is not None else PipelineConfig(seed=seed),
        model_service_sets=("A", "B"),
    )
    ctx_servable = ctx.with_config(servable_config)
    cross_servable = fusion_auprc(
        ctx_servable, text_sets=("A", "B"), image_sets=("A", "B"),
        n_model_seeds=n_model_seeds,
    )
    sup_features_servable = modality_feature_names(ctx, ("A", "B"), Modality.IMAGE)
    sweep_servable = supervised_sweep(ctx, budgets, sup_features_servable, n_model_seeds)

    return Figure5Result(
        budgets=budgets,
        supervised_full=sweep_full,
        cross_modal_full=cross_full,
        crossover_full=find_crossover(budgets, sweep_full, cross_full),
        supervised_servable=sweep_servable,
        cross_modal_servable=cross_servable,
        crossover_servable=find_crossover(budgets, sweep_servable, cross_servable),
        baseline_auprc=ctx.baseline_auprc,
        scale=scale,
        seed=seed,
    )
