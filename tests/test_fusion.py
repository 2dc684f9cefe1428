"""Tests for repro.models.fusion — early/intermediate fusion and DeViSE."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, NotFittedError
from repro.datagen.entities import Modality
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.features.table import FeatureTable
from repro.models.fusion import DeViSE, EarlyFusion, IntermediateFusion
from repro.models.linear import LogisticRegression
from repro.models.metrics import auprc
from repro.models.mlp import MLPClassifier


def _modality_tables(n=400, seed=0):
    """Two 'modalities' sharing a predictive feature; one has an
    extra modality-specific predictive feature."""
    rng = np.random.default_rng(seed)
    schema_a = FeatureSchema(
        [
            FeatureSpec("shared", FeatureKind.NUMERIC),
            FeatureSpec("cats", FeatureKind.CATEGORICAL),
        ]
    )
    schema_b = FeatureSchema(
        [
            FeatureSpec("shared", FeatureKind.NUMERIC),
            FeatureSpec("cats", FeatureKind.CATEGORICAL),
            FeatureSpec("extra", FeatureKind.NUMERIC),
        ]
    )

    def make(schema, with_extra):
        labels = (rng.random(n) < 0.3).astype(int)
        shared = labels * 1.5 + rng.normal(0, 1.0, n)
        cats = [
            frozenset({"hot"} if y and rng.random() < 0.6 else {f"bg{rng.integers(5)}"})
            for y in labels
        ]
        columns = {"shared": list(shared), "cats": cats}
        if with_extra:
            columns["extra"] = list(labels * 2.0 + rng.normal(0, 0.7, n))
        return (
            FeatureTable(
                schema=schema,
                columns=columns,
                point_ids=list(range(n)),
                modalities=[Modality.TEXT if not with_extra else Modality.IMAGE] * n,
            ),
            labels,
        )

    table_a, y_a = make(schema_a, with_extra=False)
    table_b, y_b = make(schema_b, with_extra=True)
    return table_a, y_a, table_b, y_b


def _mlp_factory():
    return MLPClassifier(hidden_sizes=(16, 8), n_epochs=30, seed=0)


class TestEarlyFusion:
    def test_fit_predict(self):
        table_a, y_a, table_b, y_b = _modality_tables()
        model = EarlyFusion(_mlp_factory)
        model.fit([table_a, table_b], [y_a.astype(float), y_b.astype(float)])
        scores = model.predict_proba(table_b)
        assert auprc(scores, y_b) > 0.6

    def test_single_table(self):
        table_a, y_a, *_ = _modality_tables()
        model = EarlyFusion(_mlp_factory)
        model.fit([table_a], [y_a.astype(float)])
        assert len(model.predict_proba(table_a)) == table_a.n_rows

    def test_predict_on_table_missing_features(self):
        """A text-only-trained fusion model can score image tables and
        vice versa (missing features become zero blocks)."""
        table_a, y_a, table_b, y_b = _modality_tables()
        model = EarlyFusion(_mlp_factory)
        model.fit([table_a, table_b], [y_a.astype(float), y_b.astype(float)])
        shared_only = table_a.select_features(["shared"])
        scores = model.predict_proba(shared_only)
        assert len(scores) == table_a.n_rows

    def test_alignment_validation(self):
        table_a, y_a, *_ = _modality_tables()
        model = EarlyFusion(_mlp_factory)
        with pytest.raises(ConfigurationError):
            model.fit([table_a], [y_a[:10].astype(float)])
        with pytest.raises(ConfigurationError):
            model.fit([], [])

    def test_not_fitted(self):
        table_a, *_ = _modality_tables()
        with pytest.raises(NotFittedError):
            EarlyFusion(_mlp_factory).predict_proba(table_a)

    def test_works_with_logreg(self):
        table_a, y_a, *_ = _modality_tables()
        model = EarlyFusion(lambda: LogisticRegression(seed=0))
        model.fit([table_a], [y_a.astype(float)])
        assert auprc(model.predict_proba(table_a), y_a) > 0.6


class TestIntermediateFusion:
    def test_fit_predict(self):
        table_a, y_a, table_b, y_b = _modality_tables()
        model = IntermediateFusion(_mlp_factory)
        model.fit([table_a, table_b], [y_a.astype(float), y_b.astype(float)])
        assert auprc(model.predict_proba(table_b), y_b) > 0.55

    def test_embedding_width(self):
        table_a, y_a, table_b, y_b = _modality_tables()
        model = IntermediateFusion(_mlp_factory)
        model.fit([table_a, table_b], [y_a.astype(float), y_b.astype(float)])
        joint = table_a.concat(table_b)
        embedding = model._joint_embedding(joint, model.vectorizers_, model.models_)
        assert embedding.shape == (joint.n_rows, 8 * 2)  # last hidden x 2 models

    def test_logreg_embeddings_are_decision_values(self):
        table_a, y_a, *_ = _modality_tables()
        model = IntermediateFusion(lambda: LogisticRegression(seed=0))
        model.fit([table_a], [y_a.astype(float)])
        assert model.head_ is not None

    def test_not_fitted(self):
        table_a, *_ = _modality_tables()
        with pytest.raises(NotFittedError):
            IntermediateFusion(_mlp_factory).predict_proba(table_a)


class TestDeViSE:
    def test_fit_predict(self):
        table_a, y_a, table_b, y_b = _modality_tables()
        model = DeViSE(_mlp_factory)
        model.fit([table_a], [y_a.astype(float)], table_b, y_b.astype(float))
        scores = model.predict_proba(table_b)
        assert len(scores) == table_b.n_rows
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_projection_shape(self):
        table_a, y_a, table_b, y_b = _modality_tables()
        model = DeViSE(_mlp_factory)
        model.fit([table_a], [y_a.astype(float)], table_b, y_b.astype(float))
        assert model.projection_.shape == (8, 8)

    def test_frozen_model_a_unchanged_by_projection(self):
        table_a, y_a, table_b, y_b = _modality_tables()
        model = DeViSE(_mlp_factory)
        model.fit([table_a], [y_a.astype(float)], table_b, y_b.astype(float))
        weights_before = [w.copy() for w in model.model_a_.weights_]
        model.predict_proba(table_b)
        for w0, w1 in zip(weights_before, model.model_a_.weights_):
            assert np.allclose(w0, w1)

    def test_not_fitted(self):
        table_a, *_ = _modality_tables()
        with pytest.raises(NotFittedError):
            DeViSE(_mlp_factory).predict_proba(table_a)
