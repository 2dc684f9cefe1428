"""Tests for repro.resources.featurize — the featurization pipeline."""

import sys

import pytest

from repro.core.rng import spawn
from repro.datagen.corpus import Corpus
from repro.datagen.entities import Modality
from repro.features.io import table_to_dict
from repro.features.schema import FeatureSchema
from repro.features.table import MISSING, FeatureTable
from repro.exec import ExecutorConfig
from repro.resilience import ResiliencePolicy
from repro.resources.featurize import featurize_corpus, featurize_point
from repro.runs.store import RunStore


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


# ----------------------------------------------------------------------
# batched stream derivation: same bytes as one spawn per cell
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mixed_corpus(tiny_splits):
    """Text and image points interleaved, so unsupported cells (which
    get no stream) sit between supported ones."""
    text, image = tiny_splits.text_labeled.points, tiny_splits.image_test.points
    points = [p for pair in zip(text[:12], image[:12]) for p in pair]
    return Corpus(points=points, name="mixed")


def _spawn_reference(corpus, resources, seed):
    """The table one ``spawn(seed, "feat/{point}/{resource}")`` per
    supported cell yields."""
    columns = {r.name: [] for r in resources}
    for point in corpus.points:
        for r in resources:
            columns[r.name].append(
                r.apply(point, spawn(seed, f"feat/{point.point_id}/{r.name}"))
                if r.supports(point.modality)
                else MISSING
            )
    return FeatureTable(
        schema=FeatureSchema(r.spec for r in resources),
        columns=columns,
        point_ids=corpus.point_ids,
        modalities=[p.modality for p in corpus.points],
    )


def _count_spawns(monkeypatch):
    """Route every ``spawn`` the package imported through a counter."""
    calls: list[str] = []

    def counting(seed, tag):
        calls.append(tag)
        return spawn(seed, tag)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "spawn", None) is spawn:
            monkeypatch.setattr(module, "spawn", counting)
    return calls


@pytest.mark.parametrize(
    "executor",
    ["serial", ExecutorConfig("thread", 3), ExecutorConfig("process", 2)],
    ids=["serial", "thread", "process"],
)
def test_batched_streams_match_spawn_reference(
    tiny_catalog, mixed_corpus, tmp_path, executor
):
    resources = list(tiny_catalog)
    store = RunStore(tmp_path / "store")
    expected = store.put_json(
        "feature_table", table_to_dict(_spawn_reference(mixed_corpus, resources, 17))
    ).hash
    table = featurize_corpus(mixed_corpus, resources, seed=17, executor=executor)
    assert store.put_json("feature_table", table_to_dict(table)).hash == expected


@pytest.mark.parametrize("policy", [None, "fault-free"])
def test_featurize_derives_no_stream_per_cell(
    tiny_catalog, mixed_corpus, monkeypatch, policy
):
    """Without faults no cell pays a ``spawn``: value streams come from
    the corpus's one derivation pass, and a clean first dial derives no
    backoff stream."""
    resources = list(tiny_catalog)
    reference = table_to_dict(_spawn_reference(mixed_corpus, resources, 2))
    calls = _count_spawns(monkeypatch)
    table = featurize_corpus(
        mixed_corpus,
        resources,
        seed=2,
        policy=None if policy is None else ResiliencePolicy(seed=4),
    )
    assert calls == []
    assert table_to_dict(table) == reference
