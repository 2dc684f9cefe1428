"""Label-model analysis against a gold-labeled development set.

Produces the canonical weak-supervision metrics the paper reports in
§6.7: precision / recall / F1 / coverage of the combined probabilistic
labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import LabelingError

__all__ = ["WeakLabelQuality", "weak_label_quality"]


@dataclass(frozen=True)
class WeakLabelQuality:
    """Quality of a probabilistic labeling against gold labels.

    ``coverage`` counts points whose probabilistic label is confident
    enough to train on (outside the ``abstain_band`` around the class
    prior); precision / recall / F1 are computed over covered points at
    the 0.5 cut.
    """

    precision: float
    recall: float
    f1: float
    coverage: float
    n_points: int

    def as_dict(self) -> dict[str, float]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "coverage": self.coverage,
        }


def weak_label_quality(
    proba: np.ndarray,
    gold: np.ndarray,
    prior: float | None = None,
    abstain_band: float = 0.02,
    threshold: float | None = None,
) -> WeakLabelQuality:
    """Score probabilistic labels against gold labels.

    A point is *covered* when its probability differs from the
    uninformative prior by more than ``abstain_band`` (uncovered points
    received no LF evidence and fall back to the prior).  Recall is
    measured over all gold positives — uncovered positives count as
    misses, which is what makes low-coverage, high-precision LF suites
    score poorly (the paper's Challenge 3).

    ``threshold`` is the posterior cut declaring a point positive; when
    ``None`` it is tuned to maximize F1 on the supplied gold labels —
    matching the paper's note that "the cut-off to compute metrics
    including F1 score [is] decided upon viewing live performance".
    """
    proba = np.asarray(proba, dtype=float)
    gold = np.asarray(gold, dtype=int)
    if proba.shape != gold.shape:
        raise LabelingError(
            f"proba and gold have mismatched shapes {proba.shape} vs {gold.shape}"
        )
    if prior is None:
        prior = float(np.median(proba))
    covered = np.abs(proba - prior) > abstain_band

    def score_at(cut: float) -> tuple[float, float, float]:
        predicted_pos = covered & (proba > cut)
        tp = float((predicted_pos & (gold == 1)).sum())
        fp = float((predicted_pos & (gold == 0)).sum())
        fn = float(((gold == 1) & ~predicted_pos).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        return precision, recall, f1

    if threshold is None:
        candidates = np.unique(np.concatenate([[0.5, prior], proba[covered]]))
        best = (0.0, 0.0, 0.0)
        for cut in candidates:
            result = score_at(float(cut))
            if result[2] > best[2]:
                best = result
        precision, recall, f1 = best
    else:
        precision, recall, f1 = score_at(threshold)
    return WeakLabelQuality(
        precision=precision,
        recall=recall,
        f1=f1,
        coverage=float(covered.mean()),
        n_points=len(gold),
    )
