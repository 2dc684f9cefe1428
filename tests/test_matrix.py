"""Tests for repro.labeling.matrix — the label matrix."""

import numpy as np
import pytest

from repro.core.exceptions import LabelingError
from repro.datagen.entities import Modality
from repro.exec import ExecutorConfig
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.features.table import FeatureTable
from repro.labeling.lf import ABSTAIN, NEGATIVE, POSITIVE, LabelingFunction
from repro.labeling.matrix import LabelMatrix, apply_lfs


def _lfs():
    return [
        LabelingFunction("always_pos", lambda row: POSITIVE),
        LabelingFunction("always_neg", lambda row: NEGATIVE),
        LabelingFunction(
            "pos_if_flag", lambda row: POSITIVE if row.get("flag") else ABSTAIN
        ),
    ]


def _table(n=4):
    schema = FeatureSchema([FeatureSpec("flag", FeatureKind.NUMERIC)])
    return FeatureTable(
        schema=schema,
        columns={"flag": [1.0, 0.0, 1.0, 0.0][:n]},
        point_ids=list(range(n)),
        modalities=[Modality.TEXT] * n,
    )


def test_apply_lfs_shape_and_votes():
    matrix = apply_lfs(_lfs(), _table())
    assert matrix.votes.shape == (4, 3)
    assert (matrix.votes[:, 0] == 1).all()
    assert (matrix.votes[:, 1] == -1).all()
    assert matrix.votes[:, 2].tolist() == [1, 0, 1, 0]


def test_apply_lfs_requires_lfs():
    with pytest.raises(LabelingError):
        apply_lfs([], _table())


def test_coverage_overlap_conflict():
    matrix = apply_lfs(_lfs(), _table())
    assert matrix.coverage() == 1.0
    assert matrix.overlap() == 1.0  # always_pos+always_neg overlap everywhere
    assert matrix.conflict() == 1.0


def test_lf_coverage_per_lf():
    matrix = apply_lfs(_lfs(), _table())
    assert matrix.lf_coverage().tolist() == [1.0, 1.0, 0.5]


def test_invalid_votes_rejected():
    with pytest.raises(LabelingError):
        LabelMatrix(np.array([[2]]), [_lfs()[0]])


def test_shape_mismatch_rejected():
    with pytest.raises(LabelingError):
        LabelMatrix(np.zeros((3, 2), dtype=np.int8), [_lfs()[0]])


def test_select_lfs():
    matrix = apply_lfs(_lfs(), _table())
    sub = matrix.select_lfs([0, 2])
    assert sub.n_lfs == 2
    assert sub.lf_names == ["always_pos", "pos_if_flag"]


def test_hstack():
    matrix = apply_lfs(_lfs(), _table())
    stacked = matrix.hstack(matrix.select_lfs([0]))
    assert stacked.n_lfs == 4


def test_hstack_row_mismatch_rejected():
    a = apply_lfs(_lfs(), _table(4))
    b = apply_lfs(_lfs(), _table(3))
    with pytest.raises(LabelingError):
        a.hstack(b)


def test_empty_matrix_statistics():
    matrix = LabelMatrix(np.zeros((0, 1), dtype=np.int8), [_lfs()[0]])
    assert matrix.coverage() == 0.0
    assert matrix.conflict() == 0.0


def test_threaded_application_matches(tiny_curation, tiny_image_table):
    lfs = tiny_curation.lfs[:5]
    table = tiny_curation.image_table_augmented
    seq = apply_lfs(lfs, table)
    par = apply_lfs(lfs, table, executor=ExecutorConfig("thread", 4))
    assert np.array_equal(seq.votes, par.votes)
