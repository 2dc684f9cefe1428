"""Tests for repro.resources.featurize — the featurization pipeline."""

from repro.datagen.entities import Modality
from repro.features.table import MISSING
from repro.exec import ExecutorConfig
from repro.resources.featurize import featurize_corpus, featurize_point


def test_table_aligned_with_corpus(tiny_text_table, tiny_splits):
    assert tiny_text_table.n_rows == len(tiny_splits.text_labeled)
    assert list(tiny_text_table.point_ids) == list(tiny_splits.text_labeled.point_ids)


def test_labels_only_when_requested(tiny_text_table, tiny_image_table):
    assert tiny_text_table.labels is not None
    assert tiny_image_table.labels is None


def test_image_specific_features_missing_for_text(tiny_text_table):
    assert tiny_text_table.presence_fraction("org_embedding") == 0.0
    assert tiny_text_table.presence_fraction("image_quality") == 0.0


def test_image_features_present_for_image(tiny_image_table):
    assert tiny_image_table.presence_fraction("org_embedding") == 1.0


def test_shared_features_present_for_both(tiny_text_table, tiny_image_table):
    for name in ("topics", "keywords", "url_category", "user_report_count"):
        assert tiny_text_table.presence_fraction(name) > 0.9
        assert tiny_image_table.presence_fraction(name) > 0.9


def test_featurization_deterministic(tiny_pipeline, tiny_splits):
    a = tiny_pipeline.featurize(tiny_splits.image_test)
    b = tiny_pipeline.featurize(tiny_splits.image_test)
    assert a.column("topics") == b.column("topics")
    assert a.column("user_report_count") == b.column("user_report_count")


def test_subset_consistency(tiny_catalog, tiny_splits):
    """Featurizing with a subset of resources yields values identical to
    selecting columns from the full run (per-point, per-resource RNG)."""
    corpus = tiny_splits.image_test
    full = featurize_corpus(corpus, list(tiny_catalog), seed=123)
    subset_resources = [tiny_catalog.get("topics"), tiny_catalog.get("keywords")]
    subset = featurize_corpus(corpus, subset_resources, seed=123)
    assert subset.column("topics") == full.column("topics")
    assert subset.column("keywords") == full.column("keywords")


def test_threading_matches_sequential(tiny_catalog, tiny_splits):
    corpus = tiny_splits.image_test
    seq = featurize_corpus(corpus, list(tiny_catalog), seed=5)
    par = featurize_corpus(
        corpus, list(tiny_catalog), seed=5, executor=ExecutorConfig("thread", 4)
    )
    assert seq.column("topics") == par.column("topics")


def test_featurize_point_unsupported_is_missing(tiny_catalog, tiny_splits):
    text_point = tiny_splits.text_labeled[0]
    row = featurize_point(text_point, list(tiny_catalog), seed=0)
    assert row["org_embedding"] is MISSING
    assert row["topics"] is not MISSING


def test_video_corpus_featurizes(tiny_catalog, video_corpus):
    table = featurize_corpus(video_corpus, list(tiny_catalog), seed=0)
    assert table.presence_fraction("org_embedding") == 1.0
    assert table.presence_fraction("topics") == 1.0
    assert table.modalities[0] is Modality.VIDEO
