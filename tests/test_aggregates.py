"""Tests for repro.resources.aggregates — historical statistics."""

import numpy as np
import pytest

from repro.core.rng import spawn
from repro.resources.aggregates import AggregateStore, NONSERVABLE_SMOOTHING


@pytest.fixture(scope="module")
def store(tiny_world, tiny_task):
    return AggregateStore(tiny_world, tiny_task, n_history=4000, seed=5)


def test_rates_are_probabilities(store, tiny_task):
    for family in ("url", "keyword", "topic", "page"):
        for key in range(10):
            assert 0.0 <= store.rate(family, key) <= 1.0


def test_unseen_key_gets_base_rate(store, tiny_task):
    assert store.rate("keyword", 10**9) == pytest.approx(
        tiny_task.definition.target_positive_rate
    )


def test_positive_attributes_have_elevated_rates(store, tiny_task):
    """Historical rates of task-positive values should exceed the rates
    of random values — this is what makes aggregates informative."""
    positive = list(tiny_task.definition.positive_keywords)
    pos_rates = [store.rate("keyword", k) for k in positive]
    all_rates = [store.rate("keyword", k) for k in range(250)]
    assert np.mean(pos_rates) > 2 * np.mean(all_rates)


def test_smoothing_monotone(store):
    """More smoothing pulls rates toward the base rate."""
    key = max(store._counts["topic"], key=lambda k: store._counts["topic"][k][0])
    loose = store.rate("topic", key, smoothing=NONSERVABLE_SMOOTHING)
    tight = store.rate("topic", key, smoothing=500.0)
    base = store.task.definition.target_positive_rate
    assert abs(tight - base) <= abs(loose - base)


def test_mean_and_max_rate(store):
    keys = (0, 1, 2)
    rates = [store.rate("topic", k) for k in keys]
    assert store.mean_rate("topic", keys) == pytest.approx(np.mean(rates))
    assert store.max_rate("topic", keys) == pytest.approx(max(rates))


def test_empty_keys_fall_back_to_base(store, tiny_task):
    base = tiny_task.definition.target_positive_rate
    assert store.mean_rate("topic", ()) == base
    assert store.max_rate("keyword", ()) == base


def test_user_report_count_reflects_toxicity(store, tiny_world):
    """Users in the top toxicity decile should have far more reports on
    average than the bottom decile."""
    tox = tiny_world.users.toxicity
    top = np.argsort(tox)[-50:]
    bottom = np.argsort(tox)[:50]
    top_mean = np.mean([store.user_report_count(int(u)) for u in top])
    bottom_mean = np.mean([store.user_report_count(int(u)) for u in bottom])
    assert top_mean > bottom_mean + 1


def test_store_determinism(tiny_world, tiny_task):
    a = AggregateStore(tiny_world, tiny_task, n_history=1000, seed=9)
    b = AggregateStore(tiny_world, tiny_task, n_history=1000, seed=9)
    assert a.rate("topic", 3) == b.rate("topic", 3)


def test_page_risk_availability(tiny_catalog, tiny_splits):
    """Page risk should sometimes be missing for image posts."""
    service = tiny_catalog.get("page_risk_score")
    missing = 0
    for i, point in enumerate(tiny_splits.image_unlabeled):
        if i >= 100:
            break
        if service.apply(point, spawn(i, "pra")) is None:
            missing += 1
    assert 10 < missing < 90
