"""Tests for repro.labeling.label_model — the generative label model."""

import numpy as np
import pytest

from repro.core.exceptions import LabelingError, NotFittedError
from repro.core.rng import make_rng
from repro.labeling.label_model import (
    GenerativeLabelModel,
    LabelModelInfo,
    conditional_table,
)
from repro.labeling.lf import LabelingFunction
from repro.labeling.matrix import LabelMatrix


def _synthetic_votes(
    n: int,
    accuracies: list[float],
    propensities: list[float],
    balance: float = 0.3,
    seed: int = 0,
) -> tuple[LabelMatrix, np.ndarray]:
    """Sample votes from the symmetric generative process."""
    rng = make_rng(seed)
    y = (rng.random(n) < balance).astype(int)
    signed = np.where(y == 1, 1, -1)
    votes = np.zeros((n, len(accuracies)), dtype=np.int8)
    for j, (acc, prop) in enumerate(zip(accuracies, propensities)):
        fires = rng.random(n) < prop
        correct = rng.random(n) < acc
        votes[fires & correct, j] = signed[fires & correct]
        votes[fires & ~correct, j] = -signed[fires & ~correct]
    lfs = [LabelingFunction(f"lf{j}", lambda row: 0) for j in range(len(accuracies))]
    return LabelMatrix(votes, lfs), y


def test_perfect_lfs_recover_labels():
    matrix, y = _synthetic_votes(500, [0.99, 0.99, 0.99], [0.9, 0.9, 0.9])
    model = GenerativeLabelModel(class_balance=0.3)
    proba = model.fit_predict_proba(matrix)
    covered = (matrix.votes != 0).any(axis=1)
    predicted = (proba > 0.5).astype(int)
    assert (predicted[covered] == y[covered]).mean() > 0.97


def test_accuracy_recovery():
    """Learned conditionals should imply higher accuracy for the more
    accurate LF."""
    matrix, _ = _synthetic_votes(3000, [0.9, 0.6], [0.8, 0.8], seed=2)
    model = GenerativeLabelModel(class_balance=0.3).fit(matrix)
    learned = model.learned_accuracies()
    assert learned[0] > learned[1]
    assert learned[0] > 0.7


def test_uncovered_points_get_class_balance():
    matrix, _ = _synthetic_votes(200, [0.9], [0.3], balance=0.2, seed=1)
    model = GenerativeLabelModel(class_balance=0.2)
    proba = model.fit_predict_proba(matrix)
    uncovered = (matrix.votes == 0).all(axis=1)
    assert np.allclose(proba[uncovered], 0.2)


def test_balance_learned_when_not_given():
    matrix, y = _synthetic_votes(3000, [0.9, 0.9, 0.85], [0.9, 0.9, 0.9], balance=0.25, seed=3)
    model = GenerativeLabelModel(class_balance=None).fit(matrix)
    assert abs(model.balance_ - 0.25) < 0.1


def test_log_likelihood_nondecreasing():
    matrix, _ = _synthetic_votes(800, [0.8, 0.7], [0.7, 0.7], seed=4)
    model = GenerativeLabelModel(class_balance=0.3).fit(matrix)
    ll = model.info_.log_likelihood
    diffs = np.diff(ll)
    assert (diffs > -1e-6).all()


def test_predict_before_fit_raises():
    matrix, _ = _synthetic_votes(10, [0.9], [0.9])
    with pytest.raises(NotFittedError):
        GenerativeLabelModel().predict_proba(matrix)


def test_lf_count_mismatch_rejected():
    matrix_a, _ = _synthetic_votes(100, [0.9, 0.8], [0.9, 0.9])
    matrix_b, _ = _synthetic_votes(100, [0.9], [0.9])
    model = GenerativeLabelModel(class_balance=0.3).fit(matrix_a)
    with pytest.raises(LabelingError):
        model.predict_proba(matrix_b)


def test_invalid_class_balance():
    with pytest.raises(LabelingError):
        GenerativeLabelModel(class_balance=1.5)


def test_zero_lfs_rejected():
    votes = np.zeros((5, 0), dtype=np.int8)
    matrix = LabelMatrix(votes, [])
    with pytest.raises(LabelingError):
        GenerativeLabelModel().fit(matrix)


def test_polarity_consistency_under_imbalance():
    """A noisy-but-real positive LF under a tiny prior must not turn
    into negative evidence (the EM collapse mode)."""
    rng = make_rng(7)
    n = 4000
    y = (rng.random(n) < 0.04).astype(int)
    votes = np.zeros((n, 2), dtype=np.int8)
    # positive LF: precision ~0.4 at 4% base rate = 10x lift
    fires_on_pos = (y == 1) & (rng.random(n) < 0.5)
    fires_on_neg = (y == 0) & (rng.random(n) < 0.03)
    votes[fires_on_pos | fires_on_neg, 0] = 1
    # broad negative LF
    votes[(rng.random(n) < 0.3) & (y == 0), 1] = -1
    lfs = [LabelingFunction(f"lf{j}", lambda row: 0) for j in range(2)]
    matrix = LabelMatrix(votes, lfs)
    model = GenerativeLabelModel(class_balance=0.04).fit(matrix)
    proba = model.predict_proba(matrix)
    # points with a positive vote must score above the prior
    assert proba[votes[:, 0] == 1].mean() > 0.1


def test_anchors_shape_checked():
    matrix, _ = _synthetic_votes(50, [0.9], [0.9])
    model = GenerativeLabelModel()
    with pytest.raises(LabelingError):
        model.fit(matrix, accuracy_anchors=np.zeros((2, 2, 3)))


def test_anchored_fit_uses_dev_estimates():
    matrix, y = _synthetic_votes(2000, [0.85, 0.7], [0.6, 0.6], seed=5)
    anchors = conditional_table(matrix.votes, y)
    model = GenerativeLabelModel(class_balance=0.3)
    proba = model.fit(matrix, accuracy_anchors=anchors).predict_proba(matrix)
    covered = (matrix.votes != 0).any(axis=1)
    predicted = (proba > 0.5).astype(int)
    assert (predicted[covered] == y[covered]).mean() > 0.75


def test_conditional_table_properties():
    matrix, y = _synthetic_votes(500, [0.9, 0.5], [0.8, 0.4], seed=6)
    table = conditional_table(matrix.votes, y)
    assert table.shape == (2, 2, 3)
    assert np.allclose(table.sum(axis=2), 1.0)
    assert (table > 0).all()


def test_conditional_table_alignment_checked():
    with pytest.raises(LabelingError):
        conditional_table(np.zeros((5, 1), dtype=np.int8), np.zeros(4, dtype=int))


def test_lf_summary_fields(tiny_curation):
    model = tiny_curation.label_model
    summary = model.lf_summary(tiny_curation.label_matrix)
    assert len(summary) == len(tiny_curation.lfs)
    for row in summary:
        assert 0.0 <= row["learned_accuracy"] <= 1.0
        assert 0.0 <= row["coverage"] <= 1.0


class _ReferenceEM(GenerativeLabelModel):
    """The EM loop before the log-likelihood reuse, kept verbatim: it
    computes ``_class_loglik`` twice per iteration, once for the trace
    and once more in the next E-step."""

    def fit(self, matrix, accuracy_anchors=None, anchor_strength=50.0):
        votes = matrix.votes
        n, m = votes.shape
        onehot = self._onehot(votes)  # (n, m, 3)

        if accuracy_anchors is not None:
            anchors = np.asarray(accuracy_anchors, dtype=float)
            prior = anchors * anchor_strength
            table = self._normalize(prior + self.smoothing)
        else:
            prior = np.full((m, 2, 3), self.smoothing)
            freq = onehot.mean(axis=0) + 1e-3  # (m, 3) in order (+1,0,-1)
            tilt_pos = freq * np.array([1.6, 1.0, 0.4])
            tilt_neg = freq * np.array([0.4, 1.0, 1.6])
            table = self._normalize(np.stack([tilt_pos, tilt_neg], axis=1))

        pi = self.class_balance if self.class_balance is not None else 0.5

        info = LabelModelInfo()
        for iteration in range(1, self.max_iter + 1):
            q = self._reference_posterior(onehot, table, pi)
            # M-step: expected vote counts per class
            counts_pos = np.einsum("i,ijv->jv", q, onehot)
            counts_neg = np.einsum("i,ijv->jv", 1.0 - q, onehot)
            new_table = np.stack([counts_pos, counts_neg], axis=1) + prior
            new_table = self._normalize(new_table)
            if self.polarity_consistent:
                new_table = self._enforce_polarity(new_table)
            if self.class_balance is None:
                pi = float(np.clip(q.mean(), 1e-9, 1.0 - 1e-9))
            info.log_likelihood.append(
                self._reference_log_likelihood(onehot, new_table, pi)
            )
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

    def _reference_posterior(self, onehot, table, pi):
        loglik = self._class_loglik(onehot, table)
        z = loglik[:, 0] - loglik[:, 1] + np.log(pi) - np.log(1.0 - pi)
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))

    def _reference_log_likelihood(self, onehot, table, pi):
        loglik = self._class_loglik(onehot, table)
        stacked = loglik + np.log([pi, 1.0 - pi])
        m = stacked.max(axis=1)
        return float((m + np.log(np.exp(stacked - m[:, None]).sum(axis=1))).mean())

    def predict_proba(self, matrix):
        onehot = self._onehot(matrix.votes)
        proba = self._reference_posterior(onehot, self.conditionals_, self.balance_)
        uncovered = (matrix.votes != 0).sum(axis=1) == 0
        proba[uncovered] = self.balance_
        return proba


@pytest.mark.parametrize("anchored", [False, True])
@pytest.mark.parametrize("class_balance", [None, 0.3])
@pytest.mark.parametrize("polarity_consistent", [False, True])
@pytest.mark.parametrize("max_iter", [100, 3])
def test_em_loglik_reuse_is_bit_identical(
    monkeypatch, anchored, class_balance, polarity_consistent, max_iter
):
    """One ``_class_loglik`` per table: same parameters, trace and
    posteriors as the reference loop, from ``n_iterations + 1`` calls."""
    matrix, y = _synthetic_votes(
        900, [0.85, 0.7, 0.6, 0.75], [0.6, 0.5, 0.4, 0.3], seed=11
    )
    anchors = conditional_table(matrix.votes, y) if anchored else None
    kwargs = dict(
        class_balance=class_balance,
        max_iter=max_iter,
        polarity_consistent=polarity_consistent,
    )
    reference = _ReferenceEM(**kwargs).fit(matrix, accuracy_anchors=anchors)

    calls = []
    real = GenerativeLabelModel._class_loglik

    def spy(onehot, table):
        calls.append(1)
        return real(onehot, table)

    monkeypatch.setattr(GenerativeLabelModel, "_class_loglik", staticmethod(spy))
    model = GenerativeLabelModel(**kwargs).fit(matrix, accuracy_anchors=anchors)
    assert len(calls) == model.info_.n_iterations + 1
    monkeypatch.undo()

    assert model.conditionals_.tobytes() == reference.conditionals_.tobytes()
    assert model.balance_ == reference.balance_
    assert model.info_.log_likelihood == reference.info_.log_likelihood
    assert model.info_.n_iterations == reference.info_.n_iterations
    assert model.info_.converged == reference.info_.converged
    assert (
        model.predict_proba(matrix).tobytes()
        == reference.predict_proba(matrix).tobytes()
    )
