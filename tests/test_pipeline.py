"""Integration tests for the CrossModalPipeline (tiny scale)."""

import numpy as np
import pytest

from repro.core.config import CurationConfig, PipelineConfig, TrainingConfig
from repro.core.exceptions import ConfigurationError
from repro.core.pipeline import CrossModalPipeline
from repro.datagen.entities import Modality
from repro.models.metrics import auprc
from repro.propagation.lf_adapter import PROPAGATION_FEATURE


def test_curation_produces_lfs(tiny_curation):
    assert len(tiny_curation.lfs) > 3
    origins = {lf.origin for lf in tiny_curation.lfs}
    assert "mined" in origins
    assert "propagation" in origins


def test_curation_labels_shape(tiny_curation, tiny_image_table):
    proba = tiny_curation.probabilistic_labels
    assert proba.shape == (tiny_image_table.n_rows,)
    assert proba.min() >= 0.0 and proba.max() <= 1.0


def test_curation_never_reads_image_labels(tiny_pipeline, tiny_text_table, tiny_image_table):
    assert tiny_image_table.labels is None  # the input itself is unlabeled


def test_curation_requires_labeled_text(tiny_pipeline, tiny_text_table, tiny_image_table):
    with pytest.raises(ConfigurationError):
        tiny_pipeline.curate(tiny_text_table.with_labels(None), tiny_image_table)


def test_weak_labels_beat_random(tiny_curation, tiny_splits):
    gold = tiny_splits.image_unlabeled.labels
    weak_auprc = auprc(tiny_curation.probabilistic_labels, gold)
    assert weak_auprc > 2.0 * gold.mean()


def test_propagation_feature_attached(tiny_curation):
    table = tiny_curation.image_table_augmented
    assert PROPAGATION_FEATURE in table.schema
    assert table.schema[PROPAGATION_FEATURE].servable is False


def test_dev_quality_populated(tiny_curation):
    quality = tiny_curation.dev_quality
    assert quality is not None
    assert 0.0 <= quality.f1 <= 1.0
    assert quality.coverage > 0.0


def test_model_feature_schema_excludes_nonservable(tiny_pipeline):
    for modality in (Modality.TEXT, Modality.IMAGE):
        schema = tiny_pipeline.model_feature_schema(modality)
        assert all(spec.servable for spec in schema)
        assert PROPAGATION_FEATURE not in schema


def test_model_feature_schema_image_gets_embeddings(tiny_pipeline):
    image_names = tiny_pipeline.model_feature_schema(Modality.IMAGE).names
    text_names = tiny_pipeline.model_feature_schema(Modality.TEXT).names
    assert "org_embedding" in image_names
    assert "org_embedding" not in text_names


def test_lf_schema_includes_nonservable(tiny_pipeline):
    lf_names = tiny_pipeline.lf_feature_schema().names
    assert "topic_sensitivity" in lf_names
    assert "page_risk_score" in lf_names


def test_train_and_evaluate(tiny_pipeline, tiny_text_table, tiny_curation, tiny_test_table):
    model = tiny_pipeline.train(tiny_text_table, tiny_curation)
    metrics, scores = tiny_pipeline.evaluate(model, tiny_test_table)
    assert set(metrics) >= {"auprc", "f1@0.5"}
    assert len(scores) == tiny_test_table.n_rows
    assert metrics["auprc"] > tiny_test_table.labels.mean()  # beats random


def test_train_seed_tag_changes_model(tiny_pipeline, tiny_text_table, tiny_curation, tiny_test_table):
    a = tiny_pipeline.train(tiny_text_table, tiny_curation, seed_tag="m1")
    b = tiny_pipeline.train(tiny_text_table, tiny_curation, seed_tag="m2")
    _, scores_a = tiny_pipeline.evaluate(a, tiny_test_table)
    _, scores_b = tiny_pipeline.evaluate(b, tiny_test_table)
    assert not np.allclose(scores_a, scores_b)


def test_full_run(tiny_world, tiny_task, tiny_catalog, tiny_splits):
    config = PipelineConfig(
        seed=7,
        curation=CurationConfig(max_seed_nodes=500, max_dev_nodes=250),
        training=TrainingConfig(n_epochs=15),
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    result = pipeline.run(tiny_splits)
    assert result.metrics["auprc"] > 0.0
    assert set(result.timings) == {"featurize", "curate", "train", "evaluate"}
    assert result.curation.label_matrix.n_points == len(tiny_splits.image_unlabeled)


def test_shard_size_without_checkpoint_rejected(
    tiny_world, tiny_task, tiny_catalog, tiny_splits
):
    """Shards live in a run's artifact store, so a shard size without a
    checkpointer is a configuration error, not a silent no-op."""
    config = PipelineConfig(seed=7, shard_size=97)
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    with pytest.raises(ConfigurationError, match="checkpointed run"):
        pipeline.run(tiny_splits)


def test_curation_without_propagation(tiny_world, tiny_task, tiny_catalog,
                                      tiny_text_table, tiny_image_table):
    config = PipelineConfig(
        seed=7, curation=CurationConfig(use_propagation=False)
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    curation = pipeline.curate(tiny_text_table, tiny_image_table)
    assert all(lf.origin != "propagation" for lf in curation.lfs)
    assert curation.propagation_scores is None


def test_curation_majority_vote_mode(tiny_world, tiny_task, tiny_catalog,
                                     tiny_text_table, tiny_image_table):
    config = PipelineConfig(
        seed=7,
        curation=CurationConfig(
            use_generative_model=False, max_seed_nodes=500, max_dev_nodes=250
        ),
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    curation = pipeline.curate(tiny_text_table, tiny_image_table)
    assert curation.label_model is None
    assert curation.probabilistic_labels.max() <= 1.0


def test_streaming_propagation_mode(tiny_world, tiny_task, tiny_catalog,
                                    tiny_text_table, tiny_image_table):
    config = PipelineConfig(
        seed=7,
        curation=CurationConfig(
            streaming_propagation=True, max_seed_nodes=400, max_dev_nodes=200
        ),
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    curation = pipeline.curate(tiny_text_table, tiny_image_table)
    assert curation.propagation_scores is not None


def test_devise_requires_mlp(tiny_world, tiny_task, tiny_catalog,
                             tiny_text_table, tiny_curation):
    config = PipelineConfig(
        seed=7, training=TrainingConfig(fusion="devise", model="logreg")
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    with pytest.raises(ConfigurationError):
        pipeline.train(tiny_text_table, tiny_curation)


def test_intermediate_fusion_trains(tiny_world, tiny_task, tiny_catalog,
                                    tiny_text_table, tiny_curation, tiny_test_table):
    config = PipelineConfig(
        seed=7, training=TrainingConfig(fusion="intermediate", n_epochs=10)
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    model = pipeline.train(tiny_text_table, tiny_curation)
    metrics, _ = pipeline.evaluate(model, tiny_test_table)
    assert metrics["auprc"] > 0.0


def test_logreg_model_family(tiny_world, tiny_task, tiny_catalog,
                             tiny_text_table, tiny_curation, tiny_test_table):
    config = PipelineConfig(seed=7, training=TrainingConfig(model="logreg"))
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    model = pipeline.train(tiny_text_table, tiny_curation)
    metrics, _ = pipeline.evaluate(model, tiny_test_table)
    assert metrics["auprc"] > 0.0


def test_evaluate_requires_labels(tiny_pipeline, tiny_text_table, tiny_curation, tiny_image_table):
    model = tiny_pipeline.train(tiny_text_table, tiny_curation)
    with pytest.raises(ConfigurationError):
        tiny_pipeline.evaluate(model, tiny_image_table)
