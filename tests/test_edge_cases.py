"""Failure injection and edge cases across modules."""

import numpy as np
import pytest

from repro.core.exceptions import (
    LabelingError,
    ResourceError,
    SchemaError,
)
from repro.core.rng import spawn
from repro.datagen.entities import Modality
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.features.table import MISSING, FeatureTable
from repro.features.vectorize import Vectorizer
from repro.labeling.label_model import GenerativeLabelModel
from repro.labeling.lf import LabelingFunction
from repro.labeling.matrix import LabelMatrix
from repro.resources.base import OrganizationalResource


class _BrokenResource(OrganizationalResource):
    """A resource returning spec-violating values."""

    def __init__(self, kind: FeatureKind, bad_value: object) -> None:
        super().__init__(FeatureSpec("broken", kind))
        self._bad_value = bad_value

    def _compute(self, point, rng):
        return self._bad_value


class TestResourceFailureInjection:
    def test_categorical_must_return_frozenset(self, tiny_splits):
        resource = _BrokenResource(FeatureKind.CATEGORICAL, {"a"})
        with pytest.raises(ResourceError):
            resource.apply(tiny_splits.text_labeled[0], spawn(0, "x"))

    def test_numeric_must_return_float(self, tiny_splits):
        resource = _BrokenResource(FeatureKind.NUMERIC, "high")
        with pytest.raises(ResourceError):
            resource.apply(tiny_splits.text_labeled[0], spawn(0, "x"))

    def test_embedding_must_return_ndarray(self, tiny_splits):
        resource = _BrokenResource(FeatureKind.EMBEDDING, [1.0, 2.0])
        with pytest.raises(ResourceError):
            resource.apply(tiny_splits.text_labeled[0], spawn(0, "x"))

    def test_none_is_allowed_as_missing(self, tiny_splits):
        resource = _BrokenResource(FeatureKind.NUMERIC, None)
        assert resource.apply(tiny_splits.text_labeled[0], spawn(0, "x")) is None


class TestDegenerateLabelMatrices:
    def test_all_abstain_matrix_rejected_by_label_model(self):
        lfs = [LabelingFunction("lf0", lambda row: 0)]
        matrix = LabelMatrix(np.zeros((10, 1), dtype=np.int8), lfs)
        with pytest.raises(LabelingError):
            GenerativeLabelModel(class_balance=0.1).fit(matrix)

    def test_single_point_matrix(self):
        lfs = [LabelingFunction("lf0", lambda row: 0)]
        matrix = LabelMatrix(np.array([[1]], dtype=np.int8), lfs)
        model = GenerativeLabelModel(class_balance=0.3).fit(matrix)
        proba = model.predict_proba(matrix)
        assert 0.0 <= proba[0] <= 1.0

    def test_contradictory_lfs_produce_middling_labels(self):
        lfs = [
            LabelingFunction("pos", lambda row: 0),
            LabelingFunction("neg", lambda row: 0),
        ]
        votes = np.tile(np.array([[1, -1]], dtype=np.int8), (50, 1))
        matrix = LabelMatrix(votes, lfs)
        model = GenerativeLabelModel(class_balance=0.5).fit(matrix)
        proba = model.predict_proba(matrix)
        assert 0.1 < proba.mean() < 0.9


class TestEmptyAndTinyTables:
    def _schema(self):
        return FeatureSchema(
            [
                FeatureSpec("cats", FeatureKind.CATEGORICAL),
                FeatureSpec("num", FeatureKind.NUMERIC),
            ]
        )

    def test_empty_table_constructs(self):
        table = FeatureTable(
            schema=self._schema(),
            columns={"cats": [], "num": []},
            point_ids=[],
            modalities=[],
        )
        assert table.n_rows == 0
        assert table.summary()[0]["presence"] == 0

    def test_vectorizer_on_all_missing_numeric(self):
        table = FeatureTable(
            schema=self._schema(),
            columns={"cats": [frozenset({"a"})] * 3, "num": [MISSING] * 3},
            point_ids=[0, 1, 2],
            modalities=[Modality.TEXT] * 3,
        )
        vec = Vectorizer(table.schema, min_count=1).fit(table)
        X = vec.transform(table)
        sl = vec.slice_for("num")
        assert np.all(X[:, sl.start:sl.stop] == 0.0)

    def test_select_rows_empty_selection(self, tiny_text_table):
        empty = tiny_text_table.select_rows(np.array([], dtype=int))
        assert empty.n_rows == 0
        assert empty.schema.names == tiny_text_table.schema.names


class TestGraphEdgeCases:
    def test_two_node_graph(self):
        schema = FeatureSchema([FeatureSpec("n", FeatureKind.NUMERIC)])
        table = FeatureTable(
            schema=schema,
            columns={"n": [0.5, 0.5]},
            point_ids=[0, 1],
            modalities=[Modality.TEXT] * 2,
        )
        from repro.propagation.graph import GraphConfig, build_knn_graph

        graph = build_knn_graph(table, GraphConfig(k=5, min_weight=0.0))
        assert graph.n_nodes == 2
        assert graph.n_edges() >= 1

    def test_all_identical_rows(self):
        schema = FeatureSchema([FeatureSpec("cats", FeatureKind.CATEGORICAL)])
        table = FeatureTable(
            schema=schema,
            columns={"cats": [frozenset({"x"})] * 6},
            point_ids=list(range(6)),
            modalities=[Modality.TEXT] * 6,
        )
        from repro.propagation.graph import GraphConfig, build_knn_graph

        graph = build_knn_graph(table, GraphConfig(k=2))
        # all-pairs similarity 1 -> every node keeps k neighbours
        assert graph.degree().min() > 0

    def test_propagation_with_all_seeds(self):
        schema = FeatureSchema([FeatureSpec("n", FeatureKind.NUMERIC)])
        table = FeatureTable(
            schema=schema,
            columns={"n": [0.0, 0.1, 0.2]},
            point_ids=[0, 1, 2],
            modalities=[Modality.TEXT] * 3,
        )
        from repro.propagation.graph import GraphConfig, build_knn_graph
        from repro.propagation.propagate import LabelPropagation

        graph = build_knn_graph(table, GraphConfig(k=2, min_weight=0.0))
        result = LabelPropagation().run(
            graph, np.array([0, 1, 2]), np.array([1, 0, 1])
        )
        assert result.scores.tolist() == [1.0, 0.0, 1.0]


class TestSchemaEdgeCases:
    def test_empty_schema_iteration(self):
        schema = FeatureSchema()
        assert len(schema) == 0
        assert schema.names == []
        assert schema.select(service_sets=("A",)).names == []

    def test_subset_of_empty_selection(self):
        schema = FeatureSchema([FeatureSpec("x", FeatureKind.NUMERIC)])
        assert schema.subset([]).names == []

    def test_table_with_unknown_feature_selection(self, tiny_text_table):
        with pytest.raises(SchemaError):
            tiny_text_table.select_features(["does_not_exist"])


class TestExtremeImbalance:
    def test_ct4_generates_some_positives(self):
        """The rarest task (0.9%) still yields measurable positives in
        a moderately sized corpus."""
        from repro.datagen.tasks import classification_task, generate_task_corpora

        _, _, splits = generate_task_corpora(
            classification_task("CT4"), scale=0.15, seed=5, n_calibration=8000
        )
        assert splits.text_labeled.labels.sum() >= 5

    def test_auprc_with_single_positive(self):
        from repro.models.metrics import auprc

        scores = np.array([0.9, 0.5, 0.2, 0.1])
        labels = np.array([1, 0, 0, 0])
        assert auprc(scores, labels) == 1.0
        labels_worst = np.array([0, 0, 0, 1])
        assert auprc(scores, labels_worst) == pytest.approx(0.25)
