"""The end-to-end cross-modal adaptation pipeline (paper Figure 3).

Three split-architecture steps with well-defined artifacts between them:

A. **Feature generation** — apply the organizational-resource catalog to
   every corpus, producing row-aligned feature tables in the common
   feature space.
B. **Training-data curation** — mine LFs from a labeled old-modality
   development split, augment them with label-propagation LFs over a
   cross-modal similarity graph, and denoise the votes into
   probabilistic labels with the generative label model.
C. **Model training** — train a multi-modal model (early / intermediate
   fusion or DeViSE) over the fully-supervised old modality and the
   weakly-supervised new modality, using only servable features.

Each step is a public method so team members can enter and exit the
pipeline at their step (the paper's production requirement §2.3);
:meth:`CrossModalPipeline.run` chains them.
"""

from __future__ import annotations

import copy
import tempfile
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

import repro.obs as obs
from repro.core.config import PipelineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import Executor
    from repro.resilience.policy import ResiliencePolicy
    from repro.runs.checkpoint import RunCheckpointer
    from repro.runs.manifest import RunManifest, StageRecord
from repro.core.exceptions import CheckpointError, ConfigurationError, RepairError
from repro.core.rng import derive_seed, spawn
from repro.exec import ExecutorConfig
from repro.datagen.corpus import Corpus, CorpusSplits
from repro.datagen.entities import Modality
from repro.datagen.world import TaskRuntime, World
from repro.features.io import table_from_dict, table_to_dict
from repro.features.schema import FeatureSchema
from repro.features.table import FeatureTable
from repro.labeling.analysis import WeakLabelQuality, weak_label_quality
from repro.labeling.label_model import GenerativeLabelModel, conditional_table
from repro.labeling.lf import LabelingFunction
from repro.labeling.majority import MajorityVoter
from repro.labeling.matrix import LabelMatrix, apply_lfs
from repro.mining.lf_generator import MinedLFGenerator
from repro.models.fusion import DeViSE, EarlyFusion, IntermediateFusion
from repro.models.linear import LogisticRegression
from repro.models.metrics import auprc, f1_score
from repro.models.mlp import MLPClassifier
from repro.propagation.graph import GraphConfig, build_knn_graph
from repro.propagation.lf_adapter import (
    PROPAGATION_FEATURE,
    propagation_feature_spec,
    propagation_lfs,
)
from repro.propagation.propagate import LabelPropagation
from repro.propagation.streaming import StreamingLabelPropagation
from repro.resources.catalog import ResourceCatalog
from repro.resources.featurize import featurize_corpus
from repro.resources.service_sets import model_feature_schema
from repro.runs import codecs
from repro.runs.progress import ProgressManifest, job_key
from repro.runs.store import RunStore
from repro.shards.table import DENSE_KIND, MANIFEST_KIND, ROWS_KIND, ShardedTable

__all__ = ["CrossModalPipeline", "CurationResult", "PipelineResult", "read_stage"]


@dataclass
class CurationResult:
    """Artifacts of the training-data curation step."""

    lfs: list[LabelingFunction]
    label_matrix: LabelMatrix
    probabilistic_labels: np.ndarray
    class_balance: float
    dev_quality: WeakLabelQuality | None = None
    propagation_scores: np.ndarray | None = None
    label_model: GenerativeLabelModel | None = None
    image_table_augmented: FeatureTable | None = None
    dev_table_augmented: FeatureTable | None = None

    @property
    def coverage_mask(self) -> np.ndarray:
        """Rows of the new modality with an informative label: at least
        one LF vote, or a blended probabilistic label that moved away
        from the class prior (propagation evidence)."""
        voted = (self.label_matrix.votes != 0).any(axis=1)
        informative = (
            np.abs(self.probabilistic_labels - self.class_balance) > 0.01
        )
        return voted | informative


@dataclass
class PipelineResult:
    """Everything :meth:`CrossModalPipeline.run` produces."""

    metrics: dict[str, float]
    curation: CurationResult
    model: object
    tables: dict[str, FeatureTable] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    test_scores: np.ndarray | None = None
    #: stages replayed from a run checkpoint instead of recomputed
    resumed_stages: list[str] = field(default_factory=list)


class CrossModalPipeline:
    """Cross-modal adaptation over one task and resource catalog."""

    def __init__(
        self,
        world: World,
        task: TaskRuntime,
        catalog: ResourceCatalog,
        config: PipelineConfig | None = None,
        executor: "Executor | None" = None,
        resilience: "ResiliencePolicy | None" = None,
        resilience_context: dict | None = None,
    ) -> None:
        self.world = world
        self.task = task
        self.catalog = catalog
        self.config = config or PipelineConfig()
        self.schema = catalog.schema()
        #: optional policy guarding every featurization service call
        #: (retry/deadline/fallback; multi-tenant runs also route its
        #: dials through a shared governor)
        self.resilience = resilience
        #: fingerprint slice describing the resilience setup — anything
        #: that changes featurized values (fault seeds, availability,
        #: retry budget, deadline) must be here so checkpoints are
        #: never shared across different degradation regimes
        self.resilience_context = resilience_context
        #: resolved execution backend for the parallel stages; a live
        #: injected executor (e.g. a multi-tenant fair-queue lane) wins
        #: over the config
        self.executor = executor if executor is not None else self.config.executor
        # LF closures capture mined predicates and cannot pickle, so LF
        # application caps out at the thread backend even when the rest
        # of the pipeline runs on processes.
        if self.executor.backend == "process":
            self._lf_executor = ExecutorConfig(
                backend="thread", workers=self.executor.workers
            )
        else:
            self._lf_executor = self.executor

    # ------------------------------------------------------------------
    # step A: feature generation
    # ------------------------------------------------------------------
    def featurize(self, corpus: Corpus, include_labels: bool = False) -> FeatureTable:
        """Apply the full resource catalog to ``corpus``.

        Featurization always uses the full catalog; experiments narrow
        the feature set later by selecting columns, which keeps values
        identical across configurations (per-point, per-resource RNG
        streams).  With a :attr:`resilience` policy, every service call
        is guarded (retry / deadline / fallback) and the table carries a
        degradation report.
        """
        return featurize_corpus(
            corpus,
            list(self.catalog),
            seed=derive_seed(self.config.seed, "featurize"),
            include_labels=include_labels,
            policy=self.resilience,
            executor=self.executor,
        )

    def featurize_sharded(
        self,
        corpus: Corpus,
        store: RunStore,
        include_labels: bool = False,
        progress: "ProgressManifest | None" = None,
        tag: str = "table",
    ):
        """Out-of-core variant of :meth:`featurize` (``shard_size`` set).

        Returns a :class:`~repro.shards.table.ShardedTable` handle over
        content-hashed shard artifacts in ``store``.  Values are
        bit-identical to :meth:`featurize` for every shard size — the
        per-point RNG streams depend only on (seed, point, resource) —
        but peak memory is O(shard) instead of O(corpus).
        """
        from repro.shards import featurize_corpus_sharded

        if self.config.shard_size is None:
            raise ConfigurationError(
                "featurize_sharded requires config.shard_size to be set"
            )
        return featurize_corpus_sharded(
            corpus,
            list(self.catalog),
            store,
            self.config.shard_size,
            seed=derive_seed(self.config.seed, "featurize"),
            include_labels=include_labels,
            policy=self.resilience,
            executor=self.executor,
            progress=progress,
            tag=tag,
        )

    # ------------------------------------------------------------------
    # feature selection helpers
    # ------------------------------------------------------------------
    def lf_feature_schema(self) -> FeatureSchema:
        """Features LFs / mining / propagation may read (servable and
        nonservable alike — curation is offline)."""
        return self.schema.select(service_sets=self.config.lf_service_sets)

    def model_feature_schema(self, modality: Modality) -> FeatureSchema:
        """Servable features the deployed model may consume."""
        return model_feature_schema(
            self.schema,
            self.config.model_service_sets,
            self.config.include_image_features,
            modality,
        )

    def select_model_features(
        self, table: FeatureTable, modality: Modality
    ) -> FeatureTable:
        schema = self.model_feature_schema(modality)
        names = [n for n in schema.names if n in table.schema]
        return table.select_features(names)

    # ------------------------------------------------------------------
    # step B: training data curation
    # ------------------------------------------------------------------
    def curate(
        self,
        text_table: FeatureTable,
        image_table: FeatureTable,
    ) -> CurationResult:
        """Weakly label the new modality using the old one.

        ``text_table`` must carry labels; ``image_table`` must not (the
        pipeline never reads new-modality labels).
        """
        if text_table.labels is None:
            raise ConfigurationError("curation requires a labeled old-modality table")
        cfg = self.config.curation
        rng = spawn(self.config.seed, "curate")

        # dev / seed split of the labeled old modality
        n_text = text_table.n_rows
        perm = rng.permutation(n_text)
        n_dev = max(int(cfg.dev_fraction * n_text), 50)
        dev_idx = np.sort(perm[:n_dev])
        seed_pool_idx = np.sort(perm[n_dev:])
        dev_table = text_table.select_rows(dev_idx)

        lf_schema = self.lf_feature_schema()
        lf_names = [n for n in lf_schema.names if n in text_table.schema]

        lfs: list[LabelingFunction] = []
        if cfg.use_mined_lfs:
            generator = MinedLFGenerator(
                min_precision=cfg.min_precision,
                min_lift=cfg.min_lift,
                min_recall=cfg.min_recall,
                max_order=cfg.max_order,
            )
            lfs.extend(
                generator.generate(
                    dev_table.select_features(lf_names), features=lf_names
                )
            )

        image_aug = image_table
        dev_aug = dev_table
        propagation_scores: np.ndarray | None = None
        class_balance = float(np.clip(dev_table.labels.mean(), 1e-4, 0.5))

        if cfg.use_propagation:
            image_aug, dev_aug, prop_lfs, propagation_scores = self._propagate(
                text_table, seed_pool_idx, dev_table, image_table, lf_names,
                class_balance, rng,
            )
            lfs.extend(prop_lfs)

        if not lfs:
            raise ConfigurationError(
                "curation produced no labeling functions; "
                "enable mining or propagation, or loosen thresholds"
            )

        matrix = apply_lfs(lfs, image_aug, executor=self._lf_executor)
        dev_matrix = apply_lfs(lfs, dev_aug, executor=self._lf_executor)
        if cfg.use_generative_model:
            # anchor the LF conditional tables to their old-modality
            # dev-set estimates (§4.2: labeled data of existing
            # modalities serves as the development set)
            anchors = conditional_table(dev_matrix.votes, dev_table.labels)
            label_model = GenerativeLabelModel(class_balance=class_balance)
            label_model.fit(matrix, accuracy_anchors=anchors, anchor_strength=25.0)
            proba = label_model.predict_proba(matrix)
        else:
            label_model = None
            proba = MajorityVoter(prior=class_balance).predict_proba(matrix)

        # quality of the weak labels, measured on the dev split
        if cfg.use_generative_model and label_model is not None:
            dev_proba = label_model.predict_proba(dev_matrix)
        else:
            dev_proba = MajorityVoter(prior=class_balance).predict_proba(dev_matrix)

        # The propagation score "can also be used as a form of
        # probabilistic label" (§4.4): blend it into the label-model
        # posterior with a weight chosen on the dev split.
        if cfg.use_propagation and cfg.blend_propagation and propagation_scores is not None:
            dev_prop = np.array(
                [
                    v if v is not None else class_balance
                    for v in dev_aug.column(PROPAGATION_FEATURE)
                ],
                dtype=float,
            )
            weight = self._tune_blend_weight(
                dev_proba, dev_prop, dev_table.labels
            )
            proba = (1.0 - weight) * proba + weight * propagation_scores
            dev_proba = (1.0 - weight) * dev_proba + weight * dev_prop
        dev_quality = weak_label_quality(
            dev_proba, dev_table.labels, prior=class_balance
        )

        return CurationResult(
            lfs=lfs,
            label_matrix=matrix,
            probabilistic_labels=proba,
            class_balance=class_balance,
            dev_quality=dev_quality,
            propagation_scores=propagation_scores,
            label_model=label_model,
            image_table_augmented=image_aug,
            dev_table_augmented=dev_aug,
        )

    @staticmethod
    def _tune_blend_weight(
        dev_model_proba: np.ndarray,
        dev_prop_scores: np.ndarray,
        dev_labels: np.ndarray,
        grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    ) -> float:
        """Dev-tuned weight for blending propagation scores into the
        probabilistic labels (0 = label model only, 1 = scores only)."""
        if dev_labels.sum() == 0:
            return 0.0
        best_weight, best_score = 0.0, -np.inf
        for weight in grid:
            blended = (1.0 - weight) * dev_model_proba + weight * dev_prop_scores
            score = auprc(blended, dev_labels)
            if score > best_score:
                best_score = score
                best_weight = weight
        return best_weight

    def graph_config(self, table: FeatureTable | None = None) -> GraphConfig:
        """The :class:`GraphConfig` the curation stage builds with.

        ``table`` (the combined graph table, when already known) filters
        the embedding weight boost down to features the table actually
        carries — the graph build rejects weights for absent features.

        The table-free form feeds the curate-stage checkpoint
        fingerprint: approximate graph backends change *results*, so
        checkpoints must never be reused across graph backends or their
        parameters (the exec backend, a pure performance knob, is
        deliberately excluded).
        """
        cfg = self.config.curation
        weights = {"org_embedding": cfg.graph_embedding_weight}
        if table is not None:
            weights = {n: w for n, w in weights.items() if n in table.schema}
        return GraphConfig(
            k=cfg.graph_k,
            feature_weights=weights,
            backend=cfg.graph_backend,
            seed=derive_seed(self.config.seed, "graph"),
        )

    def _propagate(
        self,
        text_table: FeatureTable,
        seed_pool_idx: np.ndarray,
        dev_table: FeatureTable,
        image_table: FeatureTable,
        lf_names: list[str],
        class_balance: float,
        rng: np.random.Generator,
    ) -> tuple[FeatureTable, FeatureTable, list[LabelingFunction], np.ndarray]:
        """Run label propagation; returns augmented tables, the
        propagation LFs, and the new-modality scores."""
        cfg = self.config.curation

        # cap graph size: sample seed and dev nodes
        if len(seed_pool_idx) > cfg.max_seed_nodes:
            seed_idx = np.sort(
                rng.choice(seed_pool_idx, size=cfg.max_seed_nodes, replace=False)
            )
        else:
            seed_idx = seed_pool_idx
        seed_table = text_table.select_rows(seed_idx)
        if dev_table.n_rows > cfg.max_dev_nodes:
            keep = np.sort(
                rng.choice(dev_table.n_rows, size=cfg.max_dev_nodes, replace=False)
            )
            dev_graph_table = dev_table.select_rows(keep)
        else:
            keep = np.arange(dev_table.n_rows)
            dev_graph_table = dev_table

        # graph features: the LF feature space plus unstructured
        # modality-specific features ("we use features specific to the
        # new modality to construct edges, including ... embeddings")
        graph_features = list(lf_names)
        for extra in ("org_embedding",):
            if extra in image_table.schema and extra not in graph_features:
                graph_features.append(extra)

        combined = (
            seed_table.select_features(
                [n for n in graph_features if n in seed_table.schema]
            )
            .concat(
                dev_graph_table.select_features(
                    [n for n in graph_features if n in dev_graph_table.schema]
                )
            )
            .concat(
                image_table.select_features(
                    [n for n in graph_features if n in image_table.schema]
                )
            )
        )
        graph = build_knn_graph(
            combined,
            self.graph_config(table=combined),
            executor=self.executor,
        )

        n_seed = seed_table.n_rows
        n_dev = dev_graph_table.n_rows
        propagator = (
            StreamingLabelPropagation(prior=class_balance)
            if cfg.streaming_propagation
            else LabelPropagation(prior=class_balance)
        )
        result = propagator.run(
            graph,
            seed_indices=np.arange(n_seed),
            seed_labels=seed_table.labels,
        )
        dev_scores_sampled = result.scores[n_seed:n_seed + n_dev]
        image_scores = result.scores[n_seed + n_dev:]

        top = cfg.propagation_positive_precision
        bottom = cfg.propagation_negative_precision
        prop_lfs = propagation_lfs(
            dev_scores_sampled,
            dev_graph_table.labels,
            positive_precisions=(min(top + 0.2, 0.95), top, max(top - 0.15, 0.4)),
            negative_precisions=(min(bottom + 0.004, 0.9999), bottom, bottom - 0.01),
        )

        spec = propagation_feature_spec()
        image_aug = image_table.with_feature(spec, list(image_scores))
        # dev rows outside the graph sample get the prior (no score)
        dev_scores_full = np.full(dev_table.n_rows, class_balance)
        dev_scores_full[keep] = dev_scores_sampled
        dev_aug = dev_table.with_feature(spec, list(dev_scores_full))
        return image_aug, dev_aug, prop_lfs, image_scores

    # ------------------------------------------------------------------
    # step C: model training
    # ------------------------------------------------------------------
    def model_factory(self, seed_tag: str = "model"):
        """Estimator factory per the training config."""
        t = self.config.training
        seed = derive_seed(self.config.seed, seed_tag)
        if t.model == "logreg":
            return lambda: LogisticRegression(
                l2=max(t.l2, 1e-6), learning_rate=0.05, n_epochs=200, seed=seed
            )
        return lambda: MLPClassifier(
            hidden_sizes=t.hidden_sizes,
            n_epochs=t.n_epochs,
            batch_size=t.batch_size,
            learning_rate=t.learning_rate,
            l2=t.l2,
            seed=seed,
        )

    def train(
        self,
        text_table: FeatureTable,
        curation: CurationResult,
        seed_tag: str = "model",
    ):
        """Train the multi-modal model on servable features.

        Old modality: human labels.  New modality: probabilistic labels
        (rows with no LF coverage are dropped when configured — their
        labels are pure prior).
        """
        if text_table.labels is None:
            raise ConfigurationError("training requires labeled old-modality data")
        image_table = curation.image_table_augmented
        if image_table is None:
            raise ConfigurationError("curation result lacks the augmented table")

        text_sel = self.select_model_features(text_table, Modality.TEXT)
        image_modality = image_table.modalities[0] if image_table.modalities else Modality.IMAGE
        image_sel = self.select_model_features(image_table, image_modality)
        proba = curation.probabilistic_labels
        if self.config.curation.drop_uncovered:
            mask = curation.coverage_mask
            image_sel = image_sel.select_rows(np.flatnonzero(mask))
            proba = proba[mask]

        factory = self.model_factory(seed_tag)
        fusion_kind = self.config.training.fusion
        if fusion_kind == "early":
            model = EarlyFusion(factory, max_vocab=self.config.training.max_vocab)
            model.fit([text_sel, image_sel], [text_table.labels.astype(float), proba])
        elif fusion_kind == "intermediate":
            model = IntermediateFusion(
                factory, max_vocab=self.config.training.max_vocab
            )
            model.fit([text_sel, image_sel], [text_table.labels.astype(float), proba])
        else:
            if self.config.training.model != "mlp":
                raise ConfigurationError("DeViSE requires the MLP model family")
            model = DeViSE(factory, max_vocab=self.config.training.max_vocab)
            model.fit(
                [text_sel],
                [text_table.labels.astype(float)],
                image_sel,
                proba,
            )
        return model

    # ------------------------------------------------------------------
    # evaluation and end-to-end
    # ------------------------------------------------------------------
    def evaluate(self, model, test_table: FeatureTable) -> tuple[dict[str, float], np.ndarray]:
        """Score the trained model on a labeled new-modality test table."""
        if test_table.labels is None:
            raise ConfigurationError("evaluation requires a labeled test table")
        modality = test_table.modalities[0] if test_table.modalities else Modality.IMAGE
        test_sel = self.select_model_features(test_table, modality)
        scores = model.predict_proba(test_sel)
        metrics = {
            "auprc": auprc(scores, test_table.labels),
            "f1@0.5": f1_score(scores, test_table.labels),
            "positive_rate": float(test_table.labels.mean()),
            "n_test": float(test_table.n_rows),
        }
        return metrics, scores

    def run(
        self,
        splits: CorpusSplits,
        checkpoint: "RunCheckpointer | None" = None,
    ) -> PipelineResult:
        """Full pipeline: featurize -> curate -> train -> evaluate.

        Each step runs inside an :mod:`repro.obs` span of the same name,
        so a traced run (``obs.enable()``) exports the full nested tree;
        ``PipelineResult.timings`` is populated either way.

        With a :class:`~repro.runs.RunCheckpointer`, every stage's output
        is persisted as content-hashed artifacts on completion, and a
        stage whose fingerprint (config slice + derived RNG seed + input
        artifact hashes) matches a completed manifest record is replayed
        from disk instead of recomputed.  Because every stage draws from
        an RNG stream derived purely from the recorded seeds, a resumed
        run is bit-identical to an uninterrupted one.
        """
        cfg = self.config
        if cfg.shard_size is not None and checkpoint is None:
            raise ConfigurationError(
                "shard_size requires a checkpointed run (CLI: --run-dir): "
                "shard artifacts live in the run's content-hashed store"
            )
        if cfg.shard_size is not None and self.resilience is not None:
            raise ConfigurationError(
                "shard_size cannot be combined with a resilience policy: "
                "sharded featurize does not carry per-run degradation "
                "reports — run resilience regimes unsharded"
            )
        store = checkpoint.store if checkpoint is not None else None
        timings: dict[str, float] = {}
        resumed: list[str] = []
        # in-memory artifact values and (checkpointed) their content
        # hashes, by artifact key
        values: dict[str, object] = {}
        hashes: dict[str, str] = {}
        for stage in _STAGES:
            compute = partial(stage.compute, self, splits, values.__getitem__, store)
            with obs.timed(stage.name, task=self.task.name) as t:
                if checkpoint is None:
                    value = compute()
                else:
                    outcome = checkpoint.stage(
                        stage.name,
                        config=stage.fingerprint_config(self, hashes),
                        compute=compute,
                        encode=stage.encode,
                        decode=partial(stage.decode, store=store),
                    )
                    value = outcome.value
                    # downstream fingerprints chain over top-level
                    # artifacts only — a sharded table's manifest hash
                    # already pins its shard hashes
                    hashes.update(
                        (key, digest)
                        for key, digest in outcome.artifact_hashes.items()
                        if "/" not in key
                    )
                    if outcome.reused:
                        resumed.append(stage.name)
                values.update(stage.materialize(value))
            timings[stage.name] = t.duration

        curation = values["curation"]
        metrics, scores = values["evaluation"]
        return PipelineResult(
            metrics=metrics,
            curation=curation,
            model=values["model"],
            tables={
                "text": values["text"],
                "image_unlabeled": curation.image_table_augmented or values["image"],
                "test": values["test"],
            },
            timings=timings,
            test_scores=scores,
            resumed_stages=resumed,
        )

    # ------------------------------------------------------------------
    # lineage repair
    # ------------------------------------------------------------------
    def recompute_stage(
        self,
        name: str,
        manifest: "RunManifest",
        store: RunStore,
        splits: CorpusSplits,
    ) -> dict:
        """Offline replay of one recorded stage, for lineage repair.

        Recomputes stage ``name`` exactly as a checkpointed :meth:`run`
        would — same stage declaration, derived seeds, and codecs —
        reading its upstream inputs from ``store`` (the
        :class:`~repro.runs.repair.RepairEngine` heals those first).
        Returns the stage's checkpoint encoding ``{artifact: (kind,
        payload)}``; the caller verifies the encoded bytes hash to the
        recorded references before restoring anything.  Outputs the
        stage writes while computing (sharded featurize's shards) go to
        a scratch store, so a divergent replay leaves no orphans in the
        real one.

        The pipeline must be constructed with the run's exact
        configuration (the recorded ``shard_size`` is applied here), or
        the rebuilt bytes will (correctly) fail the repair oracle.
        Raises :class:`RepairError` for stages that cannot be replayed
        offline — notably a featurize stage recorded under a resilience
        degradation regime, whose injected service faults this replay
        has no policy to reproduce.
        """
        record = manifest.stages.get(name)
        if record is None:
            raise RepairError(f"run manifest records no stage {name!r} to replay")
        stage = _STAGE_BY_NAME.get(name)
        if stage is None:
            raise RepairError(
                f"stage {name!r} has no offline replay; repairable stages are "
                f"{', '.join(s.name for s in _STAGES)}"
            )
        config = record.config if isinstance(record.config, dict) else {}
        if "resilience" in config and self.resilience is None:
            raise RepairError(
                f"{name} stage was recorded under a resilience degradation "
                "regime; offline repair cannot reproduce injected service "
                "faults — re-run the experiment in a fresh --run-dir instead"
            )
        # replay under the recorded shard layout: featurize records its
        # shard size (absent = in memory), and a repair pipeline rebuilt
        # from the recorded stage configs may not carry it
        pipeline = self
        if config.get("shard_size") != self.config.shard_size:
            pipeline = copy.copy(self)
            pipeline.config = replace(self.config, shard_size=config.get("shard_size"))

        def upstream(key: str) -> object:
            producer = _PRODUCER_OF[key]
            upstream_record = manifest.stages.get(producer.name)
            if upstream_record is None:
                raise RepairError(
                    f"replaying stage {name!r} needs the {producer.name!r} "
                    f"record, which the manifest lacks"
                )
            if key not in upstream_record.artifacts:
                raise RepairError(
                    f"replaying stage {name!r} needs artifact {key!r} of "
                    f"stage {producer.name!r}, which its record does not list"
                )
            return read_stage(upstream_record, store, keys=(key,))[key]

        with tempfile.TemporaryDirectory(prefix="repro-stage-replay-") as scratch:
            value = stage.compute(pipeline, splits, upstream, RunStore(scratch))
            return stage.encode(value)


# ----------------------------------------------------------------------
# the stage table
#
# Each stage is declared once; CrossModalPipeline.run and
# recompute_stage both drive it.  A repaired artifact must hash
# bit-identically to the original, so the checkpoint path and the
# offline replay path go through the exact same config, compute, and
# codec functions.  Stage values are ``{artifact key: value}`` dicts,
# and artifact keys are unique across stages, so ``get(key)`` names an
# upstream input unambiguously.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Stage:
    """One pipeline step: fingerprint slice, inputs, compute, codec."""

    name: str
    #: artifact keys the stage produces
    outputs: tuple[str, ...]
    #: upstream artifact keys whose hashes the fingerprint chains over
    #: (recorded as ``config["inputs"]``; the repair engine heals them
    #: before a replay)
    inputs: tuple[str, ...]
    #: the fingerprint config slice, minus ``inputs``
    config: Callable[[CrossModalPipeline], dict]
    #: ``(pipeline, splits, get, store) -> {artifact key: value}``;
    #: ``get(key)`` returns an upstream artifact's value, ``store``
    #: receives out-of-core outputs (None for an in-memory run)
    compute: Callable[..., dict]
    #: value -> ``{artifact: (kind, payload)}``
    encode: Callable[[dict], dict]
    #: ``(payloads, store)`` -> value; inverts :attr:`encode`
    decode: Callable[[dict, RunStore], dict]
    #: value -> the in-memory form downstream stages consume
    materialize: Callable[[dict], dict] = dict

    def fingerprint_config(
        self, pipeline: CrossModalPipeline, hashes: dict[str, str]
    ) -> dict:
        config = self.config(pipeline)
        if self.inputs:
            config["inputs"] = {key: hashes[key] for key in self.inputs}
        return config


#: (artifact key, ``CorpusSplits`` field, include labels) per featurized corpus
_FEATURIZE_SPLITS = (
    ("text", "text_labeled", True),
    ("image", "image_unlabeled", False),
    ("test", "image_test", True),
)


def _featurize_config(p: CrossModalPipeline) -> dict:
    config: dict = {
        "seed": p.config.seed,
        "derived_seed": derive_seed(p.config.seed, "featurize"),
        "features": sorted(p.schema.names),
    }
    if p.resilience_context is not None:
        # degradation regime (fault seeds, availability, retry/deadline
        # budgets) changes featurized values, so it invalidates the
        # checkpoint like a seed does
        config["resilience"] = p.resilience_context
    if p.config.shard_size is not None:
        # a sharded and an unsharded run lay artifacts out incompatibly,
        # so they must not replay each other
        config["shard_size"] = p.config.shard_size
    return config


def _featurize(p: CrossModalPipeline, splits: CorpusSplits, get, store) -> dict:
    """In-memory tables, or — with ``shard_size`` — sharded tables in
    ``store``, each split resumable shard by shard."""
    out: dict = {}
    for key, split, labeled in _FEATURIZE_SPLITS:
        corpus = getattr(splits, split)
        if p.config.shard_size is None:
            out[key] = p.featurize(corpus, include_labels=labeled)
            continue
        progress = ProgressManifest(
            store.root / f"shards-featurize-{key}.json",
            job_key({**_featurize_config(p), "split": key}),
        )
        out[key] = p.featurize_sharded(
            corpus, store, include_labels=labeled, progress=progress, tag=key
        )
    return out


def _encode_feature_tables(tables: dict) -> dict:
    """Checkpoint encoding of the featurize stage.

    An in-memory table is one ``feature_table`` artifact.  For a sharded
    table every shard artifact becomes a stage artifact — ``text``
    carries the manifest (whose hash chains over the shard hashes, so
    downstream fingerprints stay Merkle-pinned), ``text/shard00003`` the
    rows part and ``text/shard00003.dense`` the binary dense part of
    shard 3.  Listing the shards individually is what lets ``scrub
    --repair`` audit and heal exactly the damaged shard.  The payloads
    are O(corpus) at the stage boundary, read once: the handle keeps
    them for :func:`_materialize_tables`.  The streaming plane
    (:mod:`repro.shards.stages`) never goes through this codec.
    """
    out: dict = {}
    for key, table in tables.items():
        if isinstance(table, FeatureTable):
            out[key] = ("feature_table", table_to_dict(table))
            continue
        out[key] = (MANIFEST_KIND, table.manifest)
        for index, (rows_doc, dense) in enumerate(table.read_payloads()):
            name = _shard_artifact(key, index)
            out[name] = (ROWS_KIND, rows_doc)
            if dense is not None:
                out[f"{name}.dense"] = (DENSE_KIND, dense)
    return out


def _shard_artifact(key: str, index: int) -> str:
    return f"{key}/shard{index:05d}"


def _decode_feature_tables(payloads: dict, store: RunStore) -> dict:
    """Tables from their payloads; sharded-table manifests rebind to
    :class:`~repro.shards.table.ShardedTable` handles.  A replay hands
    over every shard payload too, and the handles keep them for
    :func:`_materialize_tables`; given the manifest alone
    (:func:`read_stage`), a handle reads its shards on demand through
    the verifying store path."""
    tables: dict = {}
    for key, doc in payloads.items():
        if "/" in key:
            continue
        if "shards" not in doc:
            tables[key] = table_from_dict(doc)
            continue
        names = [_shard_artifact(key, i) for i in range(len(doc["shards"]))]
        shard_payloads = (
            [(payloads[name], payloads.get(f"{name}.dense")) for name in names]
            if all(name in payloads for name in names)
            else None
        )
        tables[key] = ShardedTable(store, doc, payloads=shard_payloads)
    return tables


def _materialize_tables(tables: dict) -> dict:
    return {
        key: table if isinstance(table, FeatureTable) else table.to_table()
        for key, table in tables.items()
    }


def _one_artifact(key: str, kind: str, encode, decode) -> dict:
    """``outputs``/``encode``/``decode`` of a stage with one artifact."""
    return {
        "outputs": (key,),
        "encode": lambda value: {key: (kind, encode(value[key]))},
        "decode": lambda payloads, store: {key: decode(payloads[key])},
    }


_STAGES: tuple[_Stage, ...] = (
    _Stage(
        name="featurize",
        outputs=tuple(key for key, _, _ in _FEATURIZE_SPLITS),
        inputs=(),
        config=_featurize_config,
        compute=_featurize,
        encode=_encode_feature_tables,
        decode=_decode_feature_tables,
        materialize=_materialize_tables,
    ),
    _Stage(
        name="curate",
        inputs=("text", "image"),
        config=lambda p: {
            "curation": asdict(p.config.curation),
            # the full graph config: approximation changes results, so
            # backend + parameters invalidate the checkpoint (exec
            # backends do not)
            "graph": asdict(p.graph_config()),
            "lf_service_sets": list(p.config.lf_service_sets),
            "seed": p.config.seed,
            "derived_seed": derive_seed(p.config.seed, "curate"),
        },
        compute=lambda p, splits, get, store: {
            "curation": p.curate(get("text"), get("image"))
        },
        **_one_artifact(
            "curation", "curation_result", codecs.encode_curation, codecs.decode_curation
        ),
    ),
    _Stage(
        name="train",
        # every featurize hash, in artifact-name order (recorded runs
        # chain over all three, so the fingerprint keeps them)
        inputs=("image", "test", "text", "curation"),
        config=lambda p: {
            "training": asdict(p.config.training),
            "model_service_sets": list(p.config.model_service_sets),
            "include_image_features": p.config.include_image_features,
            "drop_uncovered": p.config.curation.drop_uncovered,
            "derived_seed": derive_seed(p.config.seed, "model"),
        },
        compute=lambda p, splits, get, store: {
            "model": p.train(get("text"), get("curation"))
        },
        **_one_artifact("model", "fusion_model", codecs.encode_model, codecs.decode_model),
    ),
    _Stage(
        name="evaluate",
        inputs=("test", "model"),
        config=lambda p: {
            "model_service_sets": list(p.config.model_service_sets),
            "include_image_features": p.config.include_image_features,
        },
        compute=lambda p, splits, get, store: {
            "evaluation": p.evaluate(get("model"), get("test"))
        },
        **_one_artifact(
            "evaluation",
            "evaluation",
            lambda pair: codecs.encode_evaluation(*pair),
            codecs.decode_evaluation,
        ),
    ),
)
_STAGE_BY_NAME = {stage.name: stage for stage in _STAGES}
_PRODUCER_OF = {key: stage for stage in _STAGES for key in stage.outputs}


def read_stage(
    record: "StageRecord", store: RunStore, keys: tuple[str, ...] | None = None
) -> dict:
    """Decode a recorded stage's artifacts, as downstream stages see them.

    Reads the record's top-level artifacts ``keys`` (default: every
    output the stage declares) and decodes them through the stage
    table's codec — the one a checkpoint replay uses — so lineage
    repair and serving read a finished run exactly as the run wrote
    it.  Artifacts decode one at a time, so a raw payload is released
    before the next is read, and a sharded table reads its shards one
    at a time while it materializes.  Raises :class:`CheckpointError`
    for an artifact the record does not list.
    """
    stage = _STAGE_BY_NAME[record.name]
    values: dict = {}
    for key in stage.outputs if keys is None else keys:
        ref = record.artifacts.get(key)
        if ref is None:
            raise CheckpointError(
                f"{record.name} stage records no {key!r} artifact; the run "
                f"was written by an incompatible build"
            )
        payload = {key: store.get_json(ref)}
        values.update(stage.materialize(stage.decode(payload, store)))
    return values
