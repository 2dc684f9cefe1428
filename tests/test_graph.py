"""Tests for repro.propagation.graph — similarity-graph construction."""

import numpy as np
import pytest

from repro.core.exceptions import GraphError
from repro.datagen.entities import Modality
from repro.features.distance import SimilarityConfig, algorithm1_similarity, numeric_ranges
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.features.table import MISSING, FeatureTable
from repro.propagation.graph import GraphConfig, build_knn_graph


def _cluster_table(n_per=20, seed=0) -> FeatureTable:
    """Two well-separated clusters in categorical + embedding space."""
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(
        [
            FeatureSpec("cats", FeatureKind.CATEGORICAL),
            FeatureSpec("emb", FeatureKind.EMBEDDING),
        ]
    )
    cats, embs = [], []
    for c in range(2):
        center = np.zeros(4)
        center[c] = 3.0
        for _ in range(n_per):
            cats.append(frozenset({f"c{c}", f"x{rng.integers(3)}"}))
            embs.append(center + rng.normal(0, 0.2, size=4))
    return FeatureTable(
        schema=schema,
        columns={"cats": cats, "emb": embs},
        point_ids=list(range(2 * n_per)),
        modalities=[Modality.TEXT] * (2 * n_per),
    )


def test_graph_shape_and_symmetry():
    table = _cluster_table()
    graph = build_knn_graph(table, GraphConfig(k=5))
    assert graph.n_nodes == table.n_rows
    adj = graph.adjacency
    assert (abs(adj - adj.T)).nnz == 0  # symmetric
    assert adj.diagonal().sum() == 0  # no self loops


def test_clusters_stay_separate():
    table = _cluster_table()
    graph = build_knn_graph(table, GraphConfig(k=4, min_weight=0.3))
    n = table.n_rows // 2
    cross_edges = graph.adjacency[:n, n:].nnz
    within_edges = graph.adjacency[:n, :n].nnz
    assert within_edges > 5 * max(cross_edges, 1)


def test_knn_degree_bounds():
    table = _cluster_table()
    k = 3
    graph = build_knn_graph(table, GraphConfig(k=k, min_weight=0.0))
    degrees = np.diff(graph.adjacency.indptr)
    assert degrees.max() <= 2 * k + 1  # out-edges plus symmetrized in-edges
    assert degrees.min() >= 1


def test_weights_match_algorithm1():
    """Graph edge weights equal the literal pairwise Algorithm-1
    similarity (with table-derived numeric ranges)."""
    table = _cluster_table(n_per=8)
    config = GraphConfig(k=3, min_weight=0.0, block_size=5)
    graph = build_knn_graph(table, config)
    ranges = numeric_ranges(table)
    sim_config = SimilarityConfig(numeric_range=ranges)
    coo = graph.adjacency.tocoo()
    for i, j, w in list(zip(coo.row, coo.col, coo.data))[:30]:
        expected = algorithm1_similarity(
            table.row(int(i)), table.row(int(j)), table.schema, sim_config
        )
        assert w == pytest.approx(expected, abs=1e-5)


def test_block_size_does_not_change_graph():
    table = _cluster_table()
    a = build_knn_graph(table, GraphConfig(k=4, block_size=7))
    b = build_knn_graph(table, GraphConfig(k=4, block_size=64))
    assert (a.adjacency != b.adjacency).nnz == 0


def test_feature_weights_affect_edges():
    table = _cluster_table()
    a = build_knn_graph(table, GraphConfig(k=4, feature_weights={"emb": 10.0}))
    b = build_knn_graph(table, GraphConfig(k=4, feature_weights={"cats": 10.0}))
    assert (a.adjacency != b.adjacency).nnz > 0


def test_missing_features_do_not_connect():
    """Rows sharing no present features get no edges between them."""
    schema = FeatureSchema(
        [
            FeatureSpec("a", FeatureKind.NUMERIC),
            FeatureSpec("b", FeatureKind.NUMERIC),
        ]
    )
    table = FeatureTable(
        schema=schema,
        columns={
            # extra spread rows widen the normalization range so the
            # close pairs are clearly similar
            "a": [1.0, 1.05, MISSING, MISSING, 9.0],
            "b": [MISSING, MISSING, 2.0, 2.05, 9.0],
        },
        point_ids=[0, 1, 2, 3, 4],
        modalities=[Modality.TEXT] * 5,
    )
    graph = build_knn_graph(table, GraphConfig(k=2, min_weight=0.01))
    assert graph.adjacency[0, 2] == 0.0
    assert graph.adjacency[1, 3] == 0.0
    assert graph.adjacency[0, 1] > 0.0


def test_too_few_nodes_rejected():
    table = _cluster_table(n_per=8).select_rows([0])
    with pytest.raises(GraphError):
        build_knn_graph(table)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 0},
        {"k": -3},
        {"block_size": 0},
        {"min_weight": -0.1},
        {"min_weight": 1.5},
        {"feature_weights": {"emb": 0.0}},
        {"feature_weights": {"emb": -2.0}},
        {"feature_weights": {"emb": float("nan")}},
        {"backend": "bogus"},
        {"lsh_tables": 0},
        {"lsh_bits": 0},
        {"lsh_band_rows": 0},
        {"lsh_max_candidates": 0},
        {"lsh_bucket_cap": 0},
        {"backend": "Exact"},
        {"feature_weights": {"emb": float("inf")}},
        {"lsh_tables": -4},
    ],
)
def test_bad_config_rejected_at_construction(kwargs):
    """Invalid knobs fail fast in GraphConfig.__post_init__ instead of
    deep inside a block task."""
    with pytest.raises(GraphError):
        GraphConfig(**kwargs)


def test_unknown_feature_names_rejected():
    table = _cluster_table(n_per=8)
    with pytest.raises(GraphError, match="unknown graph feature"):
        build_knn_graph(table, GraphConfig(features=("cats", "nope")))
    with pytest.raises(GraphError, match="feature_weights"):
        build_knn_graph(table, GraphConfig(feature_weights={"nope": 2.0}))
    # weights for a feature excluded from `features` are also unknown
    with pytest.raises(GraphError, match="feature_weights"):
        build_knn_graph(
            table,
            GraphConfig(features=("cats",), feature_weights={"emb": 2.0}),
        )


def test_neighbors_accessor():
    table = _cluster_table()
    graph = build_knn_graph(table, GraphConfig(k=3))
    idx, weights = graph.neighbors(0)
    assert len(idx) == len(weights)
    assert len(idx) >= 1
