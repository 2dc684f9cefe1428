"""Generative label model (Snorkel-style), fit with EM.

Model: each point has a hidden label y ∈ {1, 0} with P(y=1) = π.  Each
LF j emits a vote v ∈ {+1, 0, −1} with class-conditional probabilities
P(λ_j = v | y) — votes are conditionally independent given y [Ratner et
al. 2019].  The class-conditional form matters under the paper's heavy
class imbalance: a positive LF with raw precision 0.4 over a 4 % base
rate is a 10× lift and must count as strong positive evidence, which a
symmetric "accuracy" parameterization cannot express.

EM updates are closed-form:

* E-step: posterior q_i = P(y_i = 1 | λ_i) from the per-vote likelihood
  ratios (abstains carry evidence too — a positive LF staying silent is
  mild negative evidence);
* M-step: P(λ_j = v | y) := expected empirical frequencies under q,
  with Dirichlet pseudo-counts; π := mean posterior (or held fixed when
  a class balance is supplied, the production-recommended mode).

The conditional tables can be *anchored* to estimates from a labeled
development set of an existing modality (paper §4.2) — anchors enter as
pseudo-counts, so EM still adapts to the target modality's vote
pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.exceptions import LabelingError, NotFittedError
from repro.labeling.matrix import LabelMatrix

__all__ = ["GenerativeLabelModel", "LabelModelInfo", "conditional_table"]

_EPS = 1e-9
#: vote values in table order: columns index [+1, 0, -1]
_VOTE_ORDER = (1, 0, -1)


@dataclass
class LabelModelInfo:
    """Diagnostics from fitting the generative model."""

    n_iterations: int = 0
    converged: bool = False
    log_likelihood: list[float] = field(default_factory=list)


def conditional_table(
    votes: np.ndarray,
    labels: np.ndarray,
    smoothing: float = 1.0,
) -> np.ndarray:
    """Empirical P(λ_j = v | y) from gold labels.

    Returns an array of shape (n_lfs, 2, 3): axis 1 is y ∈ {1, 0} (in
    that order), axis 2 is the vote in order (+1, 0, −1).  Laplace
    smoothing keeps all probabilities strictly positive.
    """
    votes = np.asarray(votes)
    labels = np.asarray(labels, dtype=int)
    if votes.shape[0] != len(labels):
        raise LabelingError("votes and labels must have the same length")
    n_lfs = votes.shape[1]
    table = np.empty((n_lfs, 2, 3))
    for y_index, y_value in enumerate((1, 0)):
        mask = labels == y_value
        denom = mask.sum() + 3.0 * smoothing
        for v_index, v_value in enumerate(_VOTE_ORDER):
            count = (votes[mask] == v_value).sum(axis=0)
            table[:, y_index, v_index] = (count + smoothing) / denom
    return table


class GenerativeLabelModel:
    """EM-fit class-conditional LF model producing probabilistic labels.

    Parameters
    ----------
    class_balance:
        P(y=1).  When given, π is held fixed (stable under heavy
        imbalance); when ``None``, π is learned by EM.
    max_iter, tol:
        EM stopping controls (max conditional-probability change).
    smoothing:
        Dirichlet pseudo-count per (LF, class, vote) cell.
    polarity_consistent:
        When True (default), an LF's vote is never allowed to become
        evidence *against* its own polarity — P(λ=+1|y=1) is kept at
        least P(λ=+1|y=0), and symmetrically for −1 votes.  This mirrors
        the paper's requirement that LFs "each perform better than
        random" and prevents the EM collapse mode where rare positive
        votes get reinterpreted as negative evidence.
    """

    def __init__(
        self,
        class_balance: float | None = None,
        max_iter: int = 100,
        tol: float = 1e-5,
        smoothing: float = 1.0,
        polarity_consistent: bool = True,
    ) -> None:
        if class_balance is not None and not 0.0 < class_balance < 1.0:
            raise LabelingError(
                f"class_balance must be in (0, 1), got {class_balance}"
            )
        if smoothing <= 0:
            raise LabelingError(f"smoothing must be positive, got {smoothing}")
        self.class_balance = class_balance
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.polarity_consistent = polarity_consistent
        self.conditionals_: np.ndarray | None = None
        self.balance_: float | None = None
        self.info_: LabelModelInfo | None = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        matrix: LabelMatrix,
        accuracy_anchors: np.ndarray | None = None,
        anchor_strength: float = 50.0,
    ) -> "GenerativeLabelModel":
        """Fit by EM.

        ``accuracy_anchors`` optionally supplies per-LF conditional
        tables of shape (n_lfs, 2, 3) — e.g. from
        :func:`conditional_table` on a labeled development set of an
        existing modality.  Anchors act as Dirichlet pseudo-counts of
        total strength ``anchor_strength`` per (LF, class) row.
        """
        if matrix.n_lfs == 0:
            raise LabelingError("cannot fit a label model with zero LFs")
        votes = matrix.votes
        if not (votes != 0).any():
            raise LabelingError("every point is uncovered; add LFs first")
        n, m = votes.shape
        onehot = self._onehot(votes)  # (n, m, 3)

        if accuracy_anchors is not None:
            anchors = np.asarray(accuracy_anchors, dtype=float)
            if anchors.shape != (m, 2, 3):
                raise LabelingError(
                    f"anchors must have shape ({m}, 2, 3), got {anchors.shape}"
                )
            prior = anchors * anchor_strength
            table = self._normalize(prior + self.smoothing)
        else:
            prior = np.full((m, 2, 3), self.smoothing)
            # Break the symmetric EM fixpoint (uniform conditionals give
            # posterior == prior forever): initialize each LF's table
            # from its empirical vote frequencies, tilted so votes agree
            # with their own polarity — the paper's "better than random"
            # assumption on LFs.
            freq = onehot.mean(axis=0) + 1e-3  # (m, 3) in order (+1,0,-1)
            tilt_pos = freq * np.array([1.6, 1.0, 0.4])
            tilt_neg = freq * np.array([0.4, 1.0, 1.6])
            table = self._normalize(np.stack([tilt_pos, tilt_neg], axis=1))

        pi = self.class_balance if self.class_balance is not None else 0.5

        info = LabelModelInfo()
        # one log p(λ | y) per table: the trace entry for ``new_table``
        # and the next E-step share it
        loglik = self._class_loglik(onehot, table)
        for iteration in range(1, self.max_iter + 1):
            q = self._posterior(loglik, pi)
            # M-step: expected vote counts per class
            counts_pos = np.einsum("i,ijv->jv", q, onehot)
            counts_neg = np.einsum("i,ijv->jv", 1.0 - q, onehot)
            new_table = np.stack([counts_pos, counts_neg], axis=1) + prior
            new_table = self._normalize(new_table)
            if self.polarity_consistent:
                new_table = self._enforce_polarity(new_table)
            if self.class_balance is None:
                pi = float(np.clip(q.mean(), _EPS, 1.0 - _EPS))
            loglik = self._class_loglik(onehot, new_table)
            info.log_likelihood.append(self._log_likelihood(loglik, pi))
            delta = float(np.abs(new_table - table).max())
            table = new_table
            info.n_iterations = iteration
            if delta < self.tol:
                info.converged = True
                break

        self.conditionals_ = table
        self.balance_ = float(pi)
        self.info_ = info
        return self

    @staticmethod
    def _onehot(votes: np.ndarray) -> np.ndarray:
        onehot = np.zeros((*votes.shape, 3))
        for v_index, v_value in enumerate(_VOTE_ORDER):
            onehot[:, :, v_index] = votes == v_value
        return onehot

    @staticmethod
    def _normalize(table: np.ndarray) -> np.ndarray:
        return table / table.sum(axis=2, keepdims=True).clip(_EPS)

    @staticmethod
    def _enforce_polarity(table: np.ndarray) -> np.ndarray:
        """Keep each vote's likelihood ratio on its own side of 1."""
        fixed = table.copy()
        # +1 votes: P(+1|y=1) >= P(+1|y=0)
        lo = np.minimum(fixed[:, 0, 0], fixed[:, 1, 0])
        hi = np.maximum(fixed[:, 0, 0], fixed[:, 1, 0])
        fixed[:, 0, 0], fixed[:, 1, 0] = hi, lo
        # -1 votes: P(-1|y=0) >= P(-1|y=1)
        lo = np.minimum(fixed[:, 0, 2], fixed[:, 1, 2])
        hi = np.maximum(fixed[:, 0, 2], fixed[:, 1, 2])
        fixed[:, 0, 2], fixed[:, 1, 2] = lo, hi
        # re-normalize the abstain cell to keep rows summing to 1
        fixed[:, :, 1] = 1.0 - fixed[:, :, 0] - fixed[:, :, 2]
        fixed[:, :, 1] = fixed[:, :, 1].clip(_EPS)
        return GenerativeLabelModel._normalize(fixed)

    @staticmethod
    def _class_loglik(onehot: np.ndarray, table: np.ndarray) -> np.ndarray:
        """(n, 2) log p(λ_i | y) for y in {1, 0}."""
        log_table = np.log(table.clip(_EPS))  # (m, 2, 3)
        return np.einsum("ijv,jyv->iy", onehot, log_table)

    @staticmethod
    def _posterior(loglik: np.ndarray, pi: float) -> np.ndarray:
        z = loglik[:, 0] - loglik[:, 1] + np.log(pi) - np.log(1.0 - pi)
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))

    @staticmethod
    def _log_likelihood(loglik: np.ndarray, pi: float) -> float:
        stacked = loglik + np.log([pi, 1.0 - pi])
        m = stacked.max(axis=1)
        return float((m + np.log(np.exp(stacked - m[:, None]).sum(axis=1))).mean())

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict_proba(self, matrix: LabelMatrix) -> np.ndarray:
        """P(y=1 | votes) per point; all-abstain points get the class
        balance (their abstain evidence is deliberately ignored so that
        uncovered points stay at the prior, as in Snorkel)."""
        if self.conditionals_ is None or self.balance_ is None:
            raise NotFittedError("GenerativeLabelModel.fit has not been called")
        if matrix.n_lfs != self.conditionals_.shape[0]:
            raise LabelingError(
                f"matrix has {matrix.n_lfs} LFs; model was fit with "
                f"{self.conditionals_.shape[0]}"
            )
        loglik = self._class_loglik(self._onehot(matrix.votes), self.conditionals_)
        proba = self._posterior(loglik, self.balance_)
        uncovered = (matrix.votes != 0).sum(axis=1) == 0
        proba[uncovered] = self.balance_
        return proba

    def predict(self, matrix: LabelMatrix, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(matrix) > threshold).astype(np.int64)

    def fit_predict_proba(self, matrix: LabelMatrix) -> np.ndarray:
        return self.fit(matrix).predict_proba(matrix)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def learned_accuracies(self) -> np.ndarray:
        """Per-LF P(λ = y | λ ≠ 0) implied by the conditional tables and
        the class balance (a scalar summary for reporting)."""
        if self.conditionals_ is None or self.balance_ is None:
            raise NotFittedError("GenerativeLabelModel.fit has not been called")
        t = self.conditionals_
        pi = self.balance_
        agree = pi * t[:, 0, 0] + (1.0 - pi) * t[:, 1, 2]
        fire = pi * (t[:, 0, 0] + t[:, 0, 2]) + (1.0 - pi) * (
            t[:, 1, 0] + t[:, 1, 2]
        )
        return agree / fire.clip(_EPS)

    def lf_summary(self, matrix: LabelMatrix) -> list[dict[str, object]]:
        """Per-LF learned parameters next to empirical coverage."""
        if self.conditionals_ is None:
            raise NotFittedError("GenerativeLabelModel.fit has not been called")
        accuracies = self.learned_accuracies()
        cov = matrix.lf_coverage()
        t = self.conditionals_
        return [
            {
                "lf": lf.name,
                "origin": lf.origin,
                "learned_accuracy": round(float(a), 4),
                "p_fire_pos": round(float(t[j, 0, 0] + t[j, 0, 2]), 4),
                "p_fire_neg": round(float(t[j, 1, 0] + t[j, 1, 2]), 4),
                "coverage": round(float(c), 4),
            }
            for j, (lf, a, c) in enumerate(zip(matrix.lfs, accuracies, cov))
        ]
