"""Tests for repro.labeling.majority and repro.labeling.analysis."""

import numpy as np
import pytest

from repro.core.exceptions import LabelingError
from repro.labeling.analysis import weak_label_quality
from repro.labeling.lf import LabelingFunction
from repro.labeling.majority import MajorityVoter
from repro.labeling.matrix import LabelMatrix


def _matrix(votes):
    votes = np.asarray(votes, dtype=np.int8)
    lfs = [LabelingFunction(f"lf{j}", lambda row: 0) for j in range(votes.shape[1])]
    return LabelMatrix(votes, lfs)


class TestMajorityVoter:
    def test_unanimous(self):
        matrix = _matrix([[1, 1], [-1, -1]])
        proba = MajorityVoter().predict_proba(matrix)
        assert proba.tolist() == [1.0, 0.0]

    def test_tie_is_half(self):
        matrix = _matrix([[1, -1]])
        assert MajorityVoter().predict_proba(matrix)[0] == 0.5

    def test_abstain_rows_get_prior(self):
        matrix = _matrix([[0, 0]])
        assert MajorityVoter(prior=0.2).predict_proba(matrix)[0] == 0.2

    def test_invalid_prior(self):
        with pytest.raises(ValueError):
            MajorityVoter(prior=0.0)

    def test_predict_threshold(self):
        matrix = _matrix([[1, 1, -1]])
        voter = MajorityVoter()
        assert voter.predict(matrix)[0] == 1


class TestWeakLabelQuality:
    def test_perfect_labels(self):
        gold = np.array([1, 0, 1, 0, 0, 0, 0, 0])
        proba = gold.astype(float)
        quality = weak_label_quality(proba, gold, prior=0.25)
        assert quality.precision == 1.0
        assert quality.recall == 1.0
        assert quality.f1 == 1.0

    def test_uncovered_positives_count_as_misses(self):
        gold = np.array([1, 1, 0, 0])
        proba = np.array([0.9, 0.25, 0.0, 0.0])  # second positive at prior
        quality = weak_label_quality(proba, gold, prior=0.25)
        assert quality.recall == pytest.approx(0.5)

    def test_fixed_threshold(self):
        gold = np.array([1, 0, 0, 0])
        proba = np.array([0.6, 0.6, 0.0, 0.0])
        quality = weak_label_quality(proba, gold, prior=0.1, threshold=0.5)
        assert quality.precision == pytest.approx(0.5)
        assert quality.recall == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(LabelingError):
            weak_label_quality(np.zeros(3), np.zeros(4, dtype=int))

    def test_coverage_counts_departures_from_prior(self):
        gold = np.array([1, 0, 0, 0])
        proba = np.array([0.9, 0.1, 0.1, 0.1])
        quality = weak_label_quality(proba, gold, prior=0.1)
        assert quality.coverage == pytest.approx(0.25)
