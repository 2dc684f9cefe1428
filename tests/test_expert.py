"""Tests for repro.mining.expert — the simulated domain expert."""

from repro.labeling.matrix import apply_lfs
from repro.mining.expert import SimulatedExpert


def _expert(tiny_task, knowledge=0.6, seed=0):
    return SimulatedExpert(
        tiny_task.definition, knowledge_fraction=knowledge, seed=seed
    )


def test_writes_requested_lf_count(tiny_task, tiny_world):
    expert = _expert(tiny_task)
    lfs = expert.write_lfs(
        tiny_world.config.n_topics, tiny_world.config.n_keywords, n_lfs=8
    )
    assert 6 <= len(lfs) <= 9
    assert all(lf.origin == "expert" for lf in lfs)


def test_effort_report(tiny_task, tiny_world):
    expert = _expert(tiny_task)
    expert.write_lfs(tiny_world.config.n_topics, tiny_world.config.n_keywords)
    report = expert.report_
    assert report is not None
    assert report.hours_spent > 3.0  # exploration overhead alone is 3 h
    assert report.calendar_days > 1.0


def test_determinism(tiny_task, tiny_world):
    a = _expert(tiny_task, seed=4).write_lfs(60, 250)
    b = _expert(tiny_task, seed=4).write_lfs(60, 250)
    assert [lf.name for lf in a] == [lf.name for lf in b]


def test_expert_lfs_fire_on_real_data(tiny_task, tiny_world, tiny_text_table):
    """The expert's suite must actually cover a nontrivial slice of the
    corpus (the earlier all-conjunction variant covered ~0%)."""
    expert = _expert(tiny_task)
    lfs = expert.write_lfs(
        tiny_world.config.n_topics, tiny_world.config.n_keywords
    )
    matrix = apply_lfs(lfs, tiny_text_table)
    assert matrix.coverage() > 0.05


def test_expert_positive_lfs_have_signal(tiny_task, tiny_world, tiny_text_table):
    """Knowing part of the true concept, the expert's positive votes
    should be enriched in true positives."""
    expert = _expert(tiny_task, knowledge=0.9)
    lfs = expert.write_lfs(
        tiny_world.config.n_topics, tiny_world.config.n_keywords
    )
    matrix = apply_lfs(lfs, tiny_text_table)
    labels = tiny_text_table.labels
    pos_votes = (matrix.votes == 1).any(axis=1)
    if pos_votes.sum() >= 10:
        assert labels[pos_votes].mean() > 2 * labels.mean()


def test_more_knowledge_is_not_worse(tiny_task, tiny_world, tiny_text_table):
    """Expert precision should not systematically degrade when the
    knowledge fraction rises (sanity of the knowledge model)."""
    labels = tiny_text_table.labels

    def precision(knowledge):
        expert = _expert(tiny_task, knowledge=knowledge, seed=11)
        lfs = expert.write_lfs(
            tiny_world.config.n_topics, tiny_world.config.n_keywords
        )
        matrix = apply_lfs(lfs, tiny_text_table)
        votes = (matrix.votes == 1).any(axis=1)
        if votes.sum() == 0:
            return 0.0
        return float(labels[votes].mean())

    assert precision(0.95) >= 0.5 * max(precision(0.2), 1e-9)
