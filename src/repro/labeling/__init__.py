"""Weak supervision (paper §4.1): labeling functions, the label matrix,
and a Snorkel-style generative label model.

A labeling function (LF) maps a data point's feature row to a vote in
{POSITIVE, NEGATIVE, ABSTAIN}.  Applying m LFs to n points yields an
(n, m) label matrix; the generative model estimates each LF's accuracy
from agreements/disagreements and combines the votes into probabilistic
labels used to train the end discriminative model with a noise-aware
loss.
"""

from repro.labeling.lf import ABSTAIN, NEGATIVE, POSITIVE, LabelingFunction, labeling_function
from repro.labeling.matrix import LabelMatrix, apply_lfs
from repro.labeling.majority import MajorityVoter
from repro.labeling.label_model import GenerativeLabelModel
from repro.labeling.multiclass import (
    MC_ABSTAIN,
    MulticlassLF,
    MulticlassLabelModel,
    apply_multiclass_lfs,
)

__all__ = [
    "ABSTAIN",
    "MC_ABSTAIN",
    "NEGATIVE",
    "POSITIVE",
    "GenerativeLabelModel",
    "LabelMatrix",
    "LabelingFunction",
    "MajorityVoter",
    "MulticlassLF",
    "MulticlassLabelModel",
    "apply_lfs",
    "apply_multiclass_lfs",
    "labeling_function",
]
