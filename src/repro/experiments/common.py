"""Shared experiment machinery.

:class:`ExperimentContext` generates and caches everything a single
(task, scale, seed) configuration needs — world, corpora, resource
catalog, pipeline, and featurized tables — so that different experiments
over the same configuration don't repeat the expensive steps.

Helper functions train single-table models, compute the paper's
baseline (fully supervised image model on the pretrained embedding
only), and run labeled-budget sweeps for cross-over measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import CrossModalPipeline
from repro.core.rng import derive_seed
from repro.datagen.corpus import CorpusSplits
from repro.datagen.entities import Modality
from repro.datagen.tasks import TaskConfig, classification_task, generate_task_corpora
from repro.datagen.world import TaskRuntime, World
from repro.features.table import FeatureTable
from repro.models.fusion import EarlyFusion
from repro.models.metrics import auprc
from repro.models.mlp import MLPClassifier
from repro.resources.catalog import ResourceCatalog
from repro.resources.service_sets import build_resource_suite, model_feature_schema

__all__ = [
    "ExperimentContext",
    "train_table_model",
    "model_auprc",
    "supervised_sweep",
    "find_crossover",
]

#: history size used by experiment resource suites (smaller than the
#: library default to keep experiment wall-clock reasonable)
EXPERIMENT_HISTORY = 20_000


@dataclass
class ExperimentContext:
    """One (task, scale, seed) experimental configuration."""

    task_name: str = "CT1"
    scale: float = 0.5
    seed: int = 1
    config: PipelineConfig | None = None
    n_history: int = EXPERIMENT_HISTORY

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = PipelineConfig(seed=self.seed)

    # ------------------------------------------------------------------
    # cached pipeline objects
    # ------------------------------------------------------------------
    @cached_property
    def task_config(self) -> TaskConfig:
        return classification_task(self.task_name)

    @cached_property
    def _generated(self) -> tuple[World, TaskRuntime, CorpusSplits]:
        return generate_task_corpora(
            self.task_config, scale=self.scale, seed=self.seed
        )

    @property
    def world(self) -> World:
        return self._generated[0]

    @property
    def task(self) -> TaskRuntime:
        return self._generated[1]

    @property
    def splits(self) -> CorpusSplits:
        return self._generated[2]

    @cached_property
    def catalog(self) -> ResourceCatalog:
        return build_resource_suite(
            self.world, self.task, n_history=self.n_history, seed=self.seed
        )

    @cached_property
    def pipeline(self) -> CrossModalPipeline:
        return CrossModalPipeline(self.world, self.task, self.catalog, self.config)

    # featurized tables -------------------------------------------------
    @cached_property
    def text_table(self) -> FeatureTable:
        return self.pipeline.featurize(self.splits.text_labeled, include_labels=True)

    @cached_property
    def image_table(self) -> FeatureTable:
        return self.pipeline.featurize(self.splits.image_unlabeled, include_labels=False)

    @cached_property
    def test_table(self) -> FeatureTable:
        return self.pipeline.featurize(self.splits.image_test, include_labels=True)

    @cached_property
    def pool_table(self) -> FeatureTable:
        return self.pipeline.featurize(self.splits.image_labeled_pool, include_labels=True)

    @cached_property
    def curation(self):
        """Training-data curation result for this context's config."""
        return self.pipeline.curate(self.text_table, self.image_table)

    # derived helpers ----------------------------------------------------
    def with_config(self, config: PipelineConfig) -> "ExperimentContext":
        """Same data/world, different pipeline configuration.

        Shares the generated corpora and featurized tables (featurized
        values are config-independent) but rebuilds the pipeline.
        """
        clone = ExperimentContext(
            task_name=self.task_name,
            scale=self.scale,
            seed=self.seed,
            config=config,
            n_history=self.n_history,
        )
        # share expensive cached artifacts
        clone.__dict__["_generated"] = self._generated
        clone.__dict__["catalog"] = self.catalog
        for name in ("text_table", "image_table", "test_table", "pool_table"):
            if name in self.__dict__:
                clone.__dict__[name] = self.__dict__[name]
        # curation only depends on the curation config / LF sets / seed
        same_curation = (
            config.curation == (self.config.curation if self.config else None)
            and config.lf_service_sets
            == (self.config.lf_service_sets if self.config else None)
            and config.seed == (self.config.seed if self.config else None)
        )
        if same_curation and "curation" in self.__dict__:
            clone.__dict__["curation"] = self.__dict__["curation"]
        return clone

    def model_seed(self, tag: str, index: int = 0) -> int:
        return derive_seed(self.seed, f"model-{tag}-{index}")

    @cached_property
    def baseline_auprc(self) -> float:
        """The paper's normalizer: a fully supervised image model
        trained on the full labeled pool using only the pretrained
        org-wide embedding, averaged over two model seeds."""
        scores = []
        for i in range(2):
            model = train_table_model(
                self.pool_table,
                self.pool_table.labels.astype(float),
                ["org_embedding"],
                seed=self.model_seed("baseline", i),
            )
            scores.append(
                model_auprc(model, self.test_table, self.test_table.labels)
            )
        return float(np.mean(scores))

    def relative(self, value: float) -> float:
        """AUPRC relative to the embedding baseline."""
        return value / self.baseline_auprc


def train_table_model(
    table: FeatureTable,
    targets: np.ndarray,
    features: list[str] | None = None,
    seed: int = 0,
    n_epochs: int = 60,
) -> EarlyFusion:
    """Train a single-table early-fusion MLP on selected features."""
    if features is not None:
        table = table.select_features([f for f in features if f in table.schema])
    model = EarlyFusion(
        lambda: MLPClassifier(seed=seed, n_epochs=n_epochs, patience=10)
    )
    model.fit([table], [np.asarray(targets, dtype=float)])
    return model


def model_auprc(
    model, test_table: FeatureTable, test_labels: np.ndarray
) -> float:
    return auprc(model.predict_proba(test_table), test_labels)


def modality_feature_names(
    ctx: ExperimentContext,
    service_sets: tuple[str, ...],
    modality: Modality,
    include_image_features: bool = True,
) -> list[str]:
    """Servable model-feature names for one modality and service sets."""
    return model_feature_schema(
        ctx.pipeline.schema, service_sets, include_image_features, modality
    ).names


def fusion_auprc(
    ctx: ExperimentContext,
    text_sets: tuple[str, ...] | None = ("A", "B", "C", "D"),
    image_sets: tuple[str, ...] | None = ("A", "B", "C", "D"),
    n_model_seeds: int = 2,
) -> float:
    """Early-fusion AUPRC with per-modality service-set restrictions.

    ``text_sets=None`` drops the text modality entirely (image-only
    weakly supervised model); ``image_sets=None`` drops image (text-only
    model doing cross-modal inference).  Image data is always the
    weakly supervised table from the context's curation.
    """
    if text_sets is None and image_sets is None:
        raise ValueError("at least one modality must be included")
    tables: list[FeatureTable] = []
    targets: list[np.ndarray] = []
    if text_sets is not None:
        names = modality_feature_names(ctx, text_sets, Modality.TEXT)
        tables.append(
            ctx.text_table.select_features(
                [n for n in names if n in ctx.text_table.schema]
            )
        )
        targets.append(ctx.text_table.labels.astype(float))
    if image_sets is not None:
        curation = ctx.curation
        image_aug = curation.image_table_augmented
        mask = curation.coverage_mask
        rows = np.flatnonzero(mask)
        names = modality_feature_names(ctx, image_sets, Modality.IMAGE)
        tables.append(
            image_aug.select_rows(rows).select_features(
                [n for n in names if n in image_aug.schema]
            )
        )
        targets.append(curation.probabilistic_labels[mask])

    tag = f"fusion-{text_sets}-{image_sets}"
    scores = []
    for i in range(n_model_seeds):
        model = EarlyFusion(
            lambda: MLPClassifier(
                seed=ctx.model_seed(tag, i), n_epochs=60, patience=10
            )
        )
        model.fit(tables, targets)
        scores.append(model_auprc(model, ctx.test_table, ctx.test_table.labels))
    return float(np.mean(scores))


def supervised_sweep(
    ctx: ExperimentContext,
    budgets: list[int],
    features: list[str],
    n_model_seeds: int = 2,
) -> list[float]:
    """Fully-supervised image AUPRC at increasing hand-label budgets.

    Budgets are prefixes of the labeled pool (so larger budgets are
    supersets), and each point averages ``n_model_seeds`` model seeds to
    tame small-sample training variance.
    """
    pool = ctx.pool_table
    results = []
    for budget in budgets:
        n = min(budget, pool.n_rows)
        rows = np.arange(n)
        subset = pool.select_rows(rows)
        scores = []
        for i in range(n_model_seeds):
            model = train_table_model(
                subset,
                pool.labels[:n].astype(float),
                features,
                seed=ctx.model_seed(f"sup{budget}", i),
            )
            scores.append(model_auprc(model, ctx.test_table, ctx.test_table.labels))
        results.append(float(np.mean(scores)))
    return results


def find_crossover(
    budgets: list[int], sweep: list[float], reference: float
) -> int | None:
    """Smallest budget whose supervised AUPRC beats ``reference``
    (with the sweep made monotone by a running max, mirroring how the
    paper reads its Figure 5 curves)."""
    running = -np.inf
    for budget, value in zip(budgets, sweep):
        running = max(running, value)
        if running > reference:
            return budget
    return None
