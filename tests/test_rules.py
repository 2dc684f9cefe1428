"""Tests for repro.resources.rules — rule-based services."""

from repro.core.rng import spawn
from repro.resources.rules import heavy_poster_rule, keyword_watchlist_rule


def test_watchlist_fires_on_text_matches(tiny_task, tiny_splits):
    watchlist = frozenset(tiny_task.definition.positive_keywords)
    rule = keyword_watchlist_rule("watch", watchlist)
    hits = 0
    fired_on_match = True
    for i, point in enumerate(tiny_splits.text_labeled):
        if i >= 200:
            break
        value = rule.apply(point, spawn(i, "rule"))
        has_match = any(
            t in {f"kw{k}" for k in watchlist} for t in point.payload.tokens
        )
        if value:
            hits += 1
            if not has_match:
                fired_on_match = False
    assert fired_on_match  # text path is exact string matching
    assert hits > 0


def test_watchlist_noisy_on_images(tiny_task, tiny_splits):
    watchlist = frozenset(tiny_task.definition.positive_keywords)
    rule = keyword_watchlist_rule("watch", watchlist)
    values = [
        rule.apply(p, spawn(i, "rule"))
        for i, p in enumerate(tiny_splits.image_unlabeled.points[:200])
    ]
    # fires sometimes but via the latent path (no token matching)
    assert any(v for v in values)


def test_heavy_poster_rule_thresholds(tiny_world, tiny_splits):
    counts = tiny_world.users.report_count
    rule = heavy_poster_rule("heavy", counts, threshold=5.0)
    for i, point in enumerate(tiny_splits.text_labeled.points[:100]):
        value = rule.apply(point, spawn(i, "rule"))
        expected = counts[point.user_id] >= 5.0
        assert bool(value) == bool(expected)


def test_rule_output_shape(tiny_world, tiny_splits):
    rule = heavy_poster_rule("heavy", tiny_world.users.report_count)
    value = rule.apply(tiny_splits.text_labeled[0], spawn(0, "r"))
    assert value in (frozenset(), frozenset({"hit"}))


def test_rules_usable_in_catalog(tiny_world, tiny_task, tiny_catalog, tiny_splits):
    from repro.resources.featurize import featurize_corpus

    rule = keyword_watchlist_rule(
        "extra_watch", frozenset({0, 1, 2}), service_set="RULES"
    )
    table = featurize_corpus(
        tiny_splits.text_labeled.take(50), [rule], seed=0
    )
    assert table.presence_fraction("extra_watch") == 1.0
