"""Tests for the two graph backends (exact, lsh) and the recall oracle.

The planted-neighbors fixture puts points at distinct angles on a
circular arc: Algorithm-1 similarity (shifted cosine) is then strictly
monotone in angular distance, so the true kNN of every node is known
analytically and the exact backend can be held to recall == 1.0
against it.  The approximate backend is held to a recall floor at its
default parameters, to byte-identical determinism for a fixed seed,
and to the exact-scoring invariant (edge weights always equal the
oracle's Algorithm-1 weights).
"""

import hashlib

import numpy as np
import pytest
from scipy import sparse

from repro.core.config import CurationConfig
from repro.core.exceptions import ConfigurationError, GraphError
from repro.datagen.entities import Modality
from repro.exec import ExecutorConfig
from repro.experiments.scaling import planted_table
from repro.features.distance import SimilarityConfig, algorithm1_similarity, numeric_ranges
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.features.table import FeatureTable
from repro.propagation.graph import GraphConfig, SimilarityGraph, build_knn_graph
from repro.propagation.recall import (
    compare_graphs,
    edge_weight_agreement,
    neighbor_recall,
    propagation_auprc_delta,
)

ALL_BACKENDS = ("exact", "lsh")
APPROX_BACKENDS = ("lsh",)


# ----------------------------------------------------------------------
# planted-neighbors fixture: true kNN known analytically
# ----------------------------------------------------------------------
def _arc_angles(n: int, seed: int = 0) -> np.ndarray:
    """Distinct, generically spaced angles spanning ~0.9π (within which
    the shifted cosine is strictly decreasing in angular distance)."""
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.5, 1.5, size=n)
    angles = np.cumsum(gaps)
    return angles / angles[-1] * (0.9 * np.pi)


def _arc_table(angles: np.ndarray) -> FeatureTable:
    schema = FeatureSchema([FeatureSpec("emb", FeatureKind.EMBEDDING)])
    embs = [(float(np.cos(a)), float(np.sin(a))) for a in angles]
    return FeatureTable(
        schema=schema,
        columns={"emb": embs},
        point_ids=list(range(len(angles))),
        modalities=[Modality.IMAGE] * len(angles),
    )


def _analytic_oracle(angles: np.ndarray, k: int) -> SimilarityGraph:
    """The true kNN graph straight from the angular distances."""
    n = len(angles)
    dist = np.abs(angles[:, None] - angles[None, :])
    np.fill_diagonal(dist, np.inf)
    rows, cols = [], []
    for i in range(n):
        for j in np.argsort(dist[i])[:k]:
            rows.append(i)
            cols.append(int(j))
    adj = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    )
    adj = adj.maximum(adj.T)
    return SimilarityGraph(adjacency=adj, n_nodes=n)


@pytest.fixture(scope="module")
def arc():
    angles = _arc_angles(160, seed=7)
    return angles, _arc_table(angles)


@pytest.fixture(scope="module")
def clustered():
    return planted_table(400, seed=2)


def _build(table, backend, k=6, seed=3, **kw):
    return build_knn_graph(
        table, GraphConfig(k=k, backend=backend, seed=seed, **kw)
    )


# ----------------------------------------------------------------------
# exact backend is the oracle: recall 1.0 against the analytic kNN
# ----------------------------------------------------------------------
def test_exact_recall_is_one_against_analytic_knn(arc):
    angles, table = arc
    graph = _build(table, "exact", k=5)
    oracle = _analytic_oracle(angles, k=5)
    assert neighbor_recall(graph, oracle) == 1.0
    assert neighbor_recall(oracle, graph) == 1.0  # same edge set


@pytest.mark.parametrize("backend", APPROX_BACKENDS)
def test_approx_recall_beats_floor_on_arc(arc, backend):
    angles, table = arc
    approx = _build(table, backend, k=5)
    oracle = _build(table, "exact", k=5)
    assert neighbor_recall(approx, oracle) >= 0.9


@pytest.mark.parametrize("backend", APPROX_BACKENDS)
def test_approx_recall_beats_floor_on_clusters(clustered, backend):
    table, _labels = clustered
    approx = _build(table, backend, k=8)
    oracle = _build(table, "exact", k=8)
    assert neighbor_recall(approx, oracle) >= 0.9


# ----------------------------------------------------------------------
# determinism: same seed -> byte-identical edges, on every executor
# ----------------------------------------------------------------------
def _adjacency_bytes(graph: SimilarityGraph) -> bytes:
    adj = graph.adjacency.tocsr()
    return adj.data.tobytes() + adj.indices.tobytes() + adj.indptr.tobytes()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_same_seed_is_byte_identical(clustered, backend):
    table, _labels = clustered
    a = _build(table, backend, seed=11)
    b = _build(table, backend, seed=11)
    assert _adjacency_bytes(a) == _adjacency_bytes(b)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_executor_does_not_change_graph(clustered, backend):
    table, _labels = clustered
    config = GraphConfig(k=6, block_size=64, backend=backend, seed=11)
    serial = build_knn_graph(table, config)
    threaded = build_knn_graph(
        table, config, executor=ExecutorConfig(backend="thread", workers=3)
    )
    assert _adjacency_bytes(serial) == _adjacency_bytes(threaded)


def test_lsh_graph_survives_hash_randomization(tmp_path):
    """The categorical vocab is built in sorted token order, so LSH
    minhash keys — which hash vocab *indices* — cannot depend on
    ``PYTHONHASHSEED``.  Regression: set-iteration-order vocab made two
    identical CLI invocations disagree by a few edges."""
    import os
    import subprocess
    import sys

    script = (
        "from repro.experiments.scaling import planted_table\n"
        "from repro.propagation.graph import GraphConfig, build_knn_graph\n"
        "table, _ = planted_table(120, seed=5)\n"
        "g = build_knn_graph(table, GraphConfig(k=4, backend='lsh', seed=3))\n"
        "adj = g.adjacency.tocsr()\n"
        "import sys\n"
        "sys.stdout.buffer.write(adj.data.tobytes() + adj.indices.tobytes())\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"),
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("backend", APPROX_BACKENDS)
def test_block_size_does_not_change_approx_graph(clustered, backend):
    """Shard bounds are fixed by (n, block_size) and the RNG streams are
    per-shard, so block size is part of the deterministic recipe — but
    for a *fixed* block size the result never depends on anything else."""
    table, _labels = clustered
    a = _build(table, backend, block_size=64)
    b = _build(table, backend, block_size=64)
    assert _adjacency_bytes(a) == _adjacency_bytes(b)


# ----------------------------------------------------------------------
# the exact-scoring invariant: approximation never changes a weight
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", APPROX_BACKENDS)
def test_approx_weights_agree_with_oracle(clustered, backend):
    """Shared edges agree up to float32 summation order: the oracle's
    blockwise path runs in dense BLAS, the candidate path gathers per
    pair, so the last ulp may differ — anything beyond a few ulps would
    mean a backend scores with a different weight function."""
    table, _labels = clustered
    approx = _build(table, backend)
    oracle = _build(table, "exact")
    assert edge_weight_agreement(approx, oracle) <= 5e-7


@pytest.mark.parametrize("backend", APPROX_BACKENDS)
def test_approx_weights_match_algorithm1(backend):
    table, _labels = planted_table(120, seed=5)
    graph = _build(table, backend, k=4)
    sim_config = SimilarityConfig(numeric_range=numeric_ranges(table))
    coo = graph.adjacency.tocoo()
    for i, j, w in list(zip(coo.row, coo.col, coo.data))[:25]:
        expected = algorithm1_similarity(
            table.row(int(i)), table.row(int(j)), table.schema, sim_config
        )
        assert w == pytest.approx(expected, abs=1e-5)


# ----------------------------------------------------------------------
# recall-harness unit tests
# ----------------------------------------------------------------------
def test_recall_of_graph_with_itself(clustered):
    table, _labels = clustered
    graph = _build(table, "exact")
    quality = compare_graphs(graph, graph)
    assert quality.neighbor_recall == 1.0
    assert quality.edge_recall == 1.0
    assert quality.edge_precision == 1.0
    assert quality.max_weight_divergence == 0.0
    assert quality.n_edges == quality.n_oracle_edges


def test_recall_of_empty_graph_is_zero(clustered):
    table, _labels = clustered
    oracle = _build(table, "exact")
    n = oracle.n_nodes
    empty = SimilarityGraph(
        adjacency=sparse.csr_matrix((n, n)), n_nodes=n
    )
    assert neighbor_recall(empty, oracle) == 0.0
    assert edge_weight_agreement(empty, oracle) == 0.0  # nothing shared


def test_mismatched_node_counts_rejected(clustered):
    table, _labels = clustered
    graph = _build(table, "exact")
    small = SimilarityGraph(adjacency=sparse.csr_matrix((3, 3)), n_nodes=3)
    with pytest.raises(GraphError):
        neighbor_recall(graph, small)
    with pytest.raises(GraphError):
        compare_graphs(graph, small)


def test_auprc_delta_zero_for_identical_graphs(clustered):
    table, labels = clustered
    graph = _build(table, "exact")
    rng = np.random.default_rng(0)
    seeds = np.sort(rng.choice(table.n_rows, size=40, replace=False))
    a, b, delta = propagation_auprc_delta(
        graph, graph, seeds, labels[seeds], labels
    )
    assert a == b
    assert delta == 0.0


def test_auprc_delta_rejects_single_class_labels(clustered):
    table, labels = clustered
    graph = _build(table, "exact")
    with pytest.raises(GraphError):
        propagation_auprc_delta(
            graph, graph, np.array([0]), labels[:1], np.zeros(table.n_rows)
        )


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------
def test_unknown_builder_rejected():
    with pytest.raises(GraphError, match="unknown graph backend"):
        GraphConfig(backend="annoy")


def test_curation_config_rejects_unknown_graph_backend():
    with pytest.raises(ConfigurationError, match="unknown graph backend"):
        CurationConfig(graph_backend="annoy")
    assert CurationConfig(graph_backend="lsh").graph_backend == "lsh"


def test_lsh_requires_hashable_features():
    """A purely numeric table has nothing for LSH to hash."""
    schema = FeatureSchema([FeatureSpec("x", FeatureKind.NUMERIC)])
    table = FeatureTable(
        schema=schema,
        columns={"x": [float(v) for v in range(20)]},
        point_ids=list(range(20)),
        modalities=[Modality.IMAGE] * 20,
    )
    with pytest.raises(GraphError, match="lsh backend needs"):
        build_knn_graph(table, GraphConfig(k=2, backend="lsh"))
    # the exact backend handles the same table fine
    graph = build_knn_graph(table, GraphConfig(k=2, backend="exact"))
    assert graph.n_edges() > 0


def _csr_sha256(graph: SimilarityGraph) -> str:
    adj = graph.adjacency.tocsr()
    digest = hashlib.sha256()
    for array in (adj.indptr, adj.indices, adj.data):
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "backend, expected",
    [
        ("exact", "0ae6559c07b473a986b885100e214e2ca23b2adf4225868b498cdd1d569b7639"),
        ("lsh", "467995208ce98d45f314a344a0edf8c9361e697233083957af152302cc8d8509"),
    ],
)
def test_graph_bytes_are_pinned(backend, expected):
    """SHA-256 of the CSR (indptr, indices, data) on a fixed planted
    table: any change to candidate generation, scoring, or
    symmetrization that shifts a single byte fails here."""
    table, _labels = planted_table(600, seed=1)
    graph = build_knn_graph(table, GraphConfig(k=10, backend=backend))
    assert _csr_sha256(graph) == expected


def test_numpy_feature_weight_builds_the_same_bytes():
    """A numpy-scalar weight equals its float in the config, so it must
    build the same graph: weights are coerced to Python floats, which
    keep ``weight * sim`` in float32."""
    rng = np.random.default_rng(4)
    n = 60
    schema = FeatureSchema([
        FeatureSpec("x", FeatureKind.NUMERIC),
        FeatureSpec("emb", FeatureKind.EMBEDDING),
    ])
    table = FeatureTable(
        schema=schema,
        columns={
            "x": [float(v) for v in rng.random(n)],
            "emb": [tuple(map(float, e)) for e in rng.standard_normal((n, 8))],
        },
        point_ids=list(range(n)),
        modalities=[Modality.IMAGE] * n,
    )
    as_float = GraphConfig(k=5, feature_weights={"x": 0.3, "emb": 2.7})
    as_numpy = GraphConfig(
        k=5, feature_weights={"x": np.float64(0.3), "emb": np.float64(2.7)}
    )
    assert as_numpy == as_float
    assert all(type(w) is float for w in as_numpy.feature_weights.values())
    assert _csr_sha256(build_knn_graph(table, as_numpy)) == _csr_sha256(
        build_knn_graph(table, as_float)
    )
