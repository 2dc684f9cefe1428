"""Tests for repro.datagen.tasks — the five CT task configurations."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.datagen.entities import Modality
from repro.datagen.tasks import (
    build_definition,
    classification_task,
    generate_task_corpora,
    list_tasks,
)


def test_registry_has_five_tasks():
    assert list_tasks() == ["CT1", "CT2", "CT3", "CT4", "CT5"]


def test_unknown_task_raises():
    with pytest.raises(ConfigurationError):
        classification_task("CT9")


def test_table1_positive_rates():
    """Target rates must match the paper's Table 1."""
    expected = {"CT1": 0.041, "CT2": 0.093, "CT3": 0.032, "CT4": 0.009, "CT5": 0.069}
    for name, rate in expected.items():
        assert classification_task(name).target_positive_rate == rate


def test_scaled_sizes():
    config = classification_task("CT1").scaled(0.1)
    assert config.n_text_labeled == 1800
    assert config.n_image_unlabeled == 720


def test_scaled_floors():
    config = classification_task("CT1").scaled(0.0001)
    assert config.n_text_labeled >= 400
    assert config.n_image_test >= 300


def test_scaled_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        classification_task("CT1").scaled(0)


def test_build_definition_deterministic():
    config = classification_task("CT2")
    a = build_definition(config, seed=5)
    b = build_definition(config, seed=5)
    assert a.positive_topics == b.positive_topics
    assert a.positive_keywords == b.positive_keywords


def test_build_definition_seed_sensitivity():
    config = classification_task("CT2")
    a = build_definition(config, seed=5)
    b = build_definition(config, seed=6)
    assert a.positive_topics != b.positive_topics


def test_build_definition_set_sizes():
    config = classification_task("CT3")
    d = build_definition(config, seed=1)
    assert len(d.positive_topics) == config.n_positive_topics
    assert len(d.positive_objects) == config.n_positive_objects
    assert len(d.positive_keywords) == config.n_positive_keywords


def test_positive_values_prefer_unpopular(tiny_world):
    """With a world supplied, positive values come from the unpopular
    tail of the popularity prior."""
    config = classification_task("CT1")
    d = build_definition(config, seed=1, world=tiny_world)
    pop = tiny_world.popularity("keywords")
    median_pop = np.median(pop)
    chosen_pop = [pop[k] for k in d.positive_keywords]
    # the large majority of positive keywords are below-median popular
    assert np.mean([p <= median_pop for p in chosen_pop]) > 0.6


def test_generate_task_corpora_shapes(tiny_splits):
    assert len(tiny_splits.text_labeled) >= 400
    assert len(tiny_splits.image_unlabeled) >= 300
    assert len(tiny_splits.image_test) >= 300
    assert tiny_splits.text_labeled.modalities() == {Modality.TEXT}
    assert tiny_splits.image_unlabeled.modalities() == {Modality.IMAGE}


def test_point_ids_are_unique(tiny_splits):
    ids = np.concatenate([c.point_ids for c in tiny_splits.all_corpora()])
    assert len(np.unique(ids)) == len(ids)


def test_video_as_new_modality():
    config = classification_task("CT1")
    _, _, splits = generate_task_corpora(
        config, scale=0.03, seed=2, new_modality=Modality.VIDEO, n_calibration=3000
    )
    assert splits.image_unlabeled.modalities() == {Modality.VIDEO}


def test_table1_row(tiny_splits):
    row = tiny_splits.table1_row()
    assert set(row) == {"n_lbd_text", "n_unlbld_image", "n_lbd_image", "pct_pos"}
    assert row["n_lbd_text"] == len(tiny_splits.text_labeled)
