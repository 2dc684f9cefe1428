"""Label matrix: the result of applying m LFs to n data points.

Application runs on the MapReduce substrate (mirroring the paper's
implementation) and the matrix offers the summary statistics weak
supervision cares about: coverage, overlap, and conflict.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import LabelingError
from repro.dataflow.mapreduce import run_map
from repro.exec import Executor, ExecutorConfig
from repro.features.table import FeatureTable
from repro.labeling.lf import ABSTAIN, LabelingFunction

__all__ = ["LabelMatrix", "apply_lfs"]


class LabelMatrix:
    """(n_points, n_lfs) int8 matrix of votes in {-1, 0, +1}."""

    def __init__(self, votes: np.ndarray, lfs: list[LabelingFunction]) -> None:
        votes = np.asarray(votes, dtype=np.int8)
        if votes.ndim != 2:
            raise LabelingError("votes must be a 2-D array")
        if votes.shape[1] != len(lfs):
            raise LabelingError(
                f"votes has {votes.shape[1]} columns but {len(lfs)} LFs supplied"
            )
        if not np.isin(votes, (-1, 0, 1)).all():
            raise LabelingError("votes must be in {-1, 0, +1}")
        self.votes = votes
        self.lfs = list(lfs)

    @property
    def n_points(self) -> int:
        return self.votes.shape[0]

    @property
    def n_lfs(self) -> int:
        return self.votes.shape[1]

    @property
    def lf_names(self) -> list[str]:
        return [lf.name for lf in self.lfs]

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def coverage(self) -> float:
        """Fraction of points with at least one non-abstain vote."""
        if self.n_points == 0:
            return 0.0
        return float((self.votes != ABSTAIN).any(axis=1).mean())

    def lf_coverage(self) -> np.ndarray:
        """Per-LF fraction of points voted on."""
        return (self.votes != ABSTAIN).mean(axis=0)

    def overlap(self) -> float:
        """Fraction of points with two or more non-abstain votes."""
        if self.n_points == 0:
            return 0.0
        return float(((self.votes != ABSTAIN).sum(axis=1) >= 2).mean())

    def conflict(self) -> float:
        """Fraction of points receiving both a +1 and a -1 vote."""
        if self.n_points == 0:
            return 0.0
        has_pos = (self.votes == 1).any(axis=1)
        has_neg = (self.votes == -1).any(axis=1)
        return float((has_pos & has_neg).mean())

    def select_lfs(self, indices: list[int]) -> "LabelMatrix":
        return LabelMatrix(
            self.votes[:, indices], [self.lfs[i] for i in indices]
        )

    def hstack(self, other: "LabelMatrix") -> "LabelMatrix":
        """Concatenate LF columns (same points)."""
        if other.n_points != self.n_points:
            raise LabelingError(
                f"cannot hstack matrices with {self.n_points} and "
                f"{other.n_points} points"
            )
        return LabelMatrix(
            np.hstack([self.votes, other.votes]), self.lfs + other.lfs
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LabelMatrix(n_points={self.n_points}, n_lfs={self.n_lfs}, "
            f"coverage={self.coverage():.3f})"
        )


def apply_lfs(
    lfs: list[LabelingFunction],
    table: FeatureTable,
    executor: Executor | ExecutorConfig | str | None = None,
) -> LabelMatrix:
    """Apply ``lfs`` to every row of ``table``.

    LFs see the raw feature row (including nonservable features — the
    whole point of the offline curation step).

    LF vote functions are closures over mined predicates and do not
    pickle, so ``executor`` must be a serial or thread backend (callers
    on the process backend downgrade to threads for this step).
    """
    if not lfs:
        raise LabelingError("apply_lfs requires at least one LF")

    def vote_row(row: dict[str, object]) -> list[int]:
        return [lf(row) for lf in lfs]

    rows = list(table.iter_rows())
    votes = np.array(
        run_map(rows, vote_row, executor=executor),
        dtype=np.int8,
    )
    votes = votes.reshape(len(rows), len(lfs))
    return LabelMatrix(votes, lfs)
