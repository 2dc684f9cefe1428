"""Tests for repro.mining.snuba — the Snuba-style heuristic synthesizer."""

import numpy as np
import pytest

from repro.core.exceptions import MiningError
from repro.datagen.entities import Modality
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.features.table import FeatureTable
from repro.labeling.matrix import apply_lfs
from repro.mining.snuba import SnubaGenerator


def _dev_table(n=600, seed=0) -> FeatureTable:
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.15).astype(int)
    cats, nums = [], []
    for y in labels:
        tokens = {f"bg{rng.integers(12)}"}
        if y and rng.random() < 0.7:
            tokens.add("hot")
        cats.append(frozenset(tokens))
        nums.append(float(rng.normal(2.0 if y else 0.0, 1.0)))
    schema = FeatureSchema(
        [
            FeatureSpec("cats", FeatureKind.CATEGORICAL),
            FeatureSpec("num", FeatureKind.NUMERIC),
        ]
    )
    return FeatureTable(
        schema=schema,
        columns={"cats": cats, "num": nums},
        point_ids=list(range(n)),
        modalities=[Modality.TEXT] * n,
        labels=labels,
    )


def test_requires_labels():
    table = _dev_table().with_labels(None)
    with pytest.raises(MiningError):
        SnubaGenerator().generate(table)


def test_requires_positives():
    table = _dev_table()
    with pytest.raises(MiningError):
        SnubaGenerator().generate(
            table.with_labels(np.zeros(table.n_rows, dtype=int))
        )


def test_selects_signal_heuristics():
    table = _dev_table()
    generator = SnubaGenerator(max_heuristics=10)
    lfs = generator.generate(table)
    names = [lf.name for lf in lfs]
    assert any("cats=hot" in n for n in names) or any("num>=" in n for n in names)
    assert all(lf.origin == "snuba" for lf in lfs)


def test_budget_respected():
    table = _dev_table()
    lfs = SnubaGenerator(max_heuristics=4).generate(table)
    assert 1 <= len(lfs) <= 4


def test_committee_quality_on_dev():
    table = _dev_table()
    lfs = SnubaGenerator(max_heuristics=12).generate(table)
    matrix = apply_lfs(lfs, table)
    labels = table.labels
    pos_votes = (matrix.votes == 1).any(axis=1)
    if pos_votes.sum() >= 10:
        assert labels[pos_votes].mean() > 2 * labels.mean()


def test_report_populated():
    table = _dev_table()
    generator = SnubaGenerator(max_heuristics=8)
    lfs = generator.generate(table)
    report = generator.report_
    assert report is not None
    assert report.n_selected == len(lfs)
    assert report.n_candidates > 0
    assert report.n_rounds >= len(lfs)
    assert report.wall_clock_seconds > 0


def test_iterative_cost_exceeds_one_pass_mining():
    """The structural claim behind §4.3: greedy re-scoring rounds do
    more work than one-pass itemset mining on the same dev table."""
    from repro.mining.lf_generator import MinedLFGenerator

    table = _dev_table(n=1500, seed=2)
    miner = MinedLFGenerator()
    miner.generate(table)
    mined = miner.report_.n_candidates_considered

    generator = SnubaGenerator(max_heuristics=20)
    generator.generate(table)
    report = generator.report_
    # round r trial-scores each of the n_candidates - r candidates still
    # remaining; the miner considers each of its candidates once
    rescored = sum(report.n_candidates - r for r in range(report.n_rounds))
    assert rescored > mined


def test_validation():
    with pytest.raises(MiningError):
        SnubaGenerator(max_heuristics=0)
    with pytest.raises(MiningError):
        SnubaGenerator(min_support=0.0)


def test_objective_trace_monotone_while_growing():
    table = _dev_table()
    generator = SnubaGenerator(max_heuristics=10)
    generator.generate(table)
    trace = generator.report_.objective_trace
    assert trace is not None and len(trace) >= 1
