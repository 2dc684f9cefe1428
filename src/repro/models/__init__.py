"""Discriminative models and multi-modal training (paper §5).

NumPy implementations of the two model families the paper's TFX
pipelines support — logistic regression and fully-connected deep neural
networks — trained with a noise-aware cross-entropy over probabilistic
labels, plus the three cross-modal fusion strategies the paper
evaluates (early fusion, intermediate fusion, DeViSE).  Hyper-parameters
are fixed in :class:`~repro.core.config.TrainingConfig`; nothing tunes
them.
"""

from repro.models.base import Estimator
from repro.models.linear import LogisticRegression
from repro.models.mlp import MLPClassifier
from repro.models.metrics import (
    auprc,
    f1_score,
    pr_curve,
    precision_recall_at,
    relative_auprc,
)
from repro.models.fusion import DeViSE, EarlyFusion, IntermediateFusion

__all__ = [
    "DeViSE",
    "EarlyFusion",
    "Estimator",
    "IntermediateFusion",
    "LogisticRegression",
    "MLPClassifier",
    "auprc",
    "f1_score",
    "pr_curve",
    "precision_recall_at",
    "relative_auprc",
]
