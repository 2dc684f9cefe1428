"""Differential equivalence suite for the execution backends.

Every parallel stage of the pipeline — featurization, MapReduce,
graph construction, curation — is run on the serial, thread, and
process backends across worker counts, and the results are compared by
:class:`RunStore` content hash (SHA-256 over the canonical artifact
encoding).  Byte-identity of the hashes is the contract DESIGN.md §11
promises: the backend is a pure performance knob.

The CI matrix restricts each job to one backend via the
``REPRO_EXEC_BACKENDS`` environment variable (comma-separated names);
the serial baseline is always computed in-process, so single-backend
jobs still verify against the same oracle.
"""

import os

import pytest

from repro.core.config import CurationConfig, PipelineConfig
from repro.core.exceptions import RecordError
from repro.core.pipeline import CrossModalPipeline
from repro.core.rng import derive_seed
from repro.dataflow.mapreduce import run_map, run_mapreduce
from repro.exec import ExecutorConfig
from repro.features.io import table_to_dict
from repro.propagation.graph import GraphConfig, build_knn_graph
from repro.resources.featurize import featurize_corpus
from repro.runs import codecs
from repro.runs.store import RunStore

_ALL_BACKENDS = ("serial", "thread", "process")
_env = os.environ.get("REPRO_EXEC_BACKENDS", "").strip()
BACKENDS_UNDER_TEST = tuple(
    b.strip() for b in _env.split(",") if b.strip()
) or _ALL_BACKENDS
WORKER_COUNTS = (1, 2, 4)

GRID = [
    (backend, workers)
    for backend in BACKENDS_UNDER_TEST
    for workers in WORKER_COUNTS
]


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


def _table_hash(store, table) -> str:
    return store.put_json("feature_table", table_to_dict(table)).hash


def _curation_hash(store, curation) -> str:
    return store.put_json("curation_result", codecs.encode_curation(curation)).hash


def _graph_hash(store, graph) -> str:
    adj = graph.adjacency
    blob = (
        adj.data.tobytes() + adj.indices.tobytes() + adj.indptr.tobytes()
    )
    return store.put_bytes("graph_adjacency", blob).hash


# ----------------------------------------------------------------------
# featurization
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def feat_inputs(tiny_splits, tiny_catalog):
    return tiny_splits.image_test, list(tiny_catalog)


@pytest.fixture(scope="module")
def serial_feat_table(feat_inputs):
    corpus, resources = feat_inputs
    return featurize_corpus(
        corpus, resources, seed=11, executor=ExecutorConfig()
    )


@pytest.mark.parametrize("backend,workers", GRID)
def test_featurize_differential(
    backend, workers, feat_inputs, serial_feat_table, store
):
    corpus, resources = feat_inputs
    table = featurize_corpus(
        corpus,
        resources,
        seed=11,
        executor=ExecutorConfig(backend=backend, workers=workers),
    )
    assert _table_hash(store, table) == _table_hash(store, serial_feat_table)


# ----------------------------------------------------------------------
# featurization, sharded axis: the out-of-core data plane rides the
# same executor grid and must hash identically to the serial,
# unsharded oracle (the full sharded differential lives in
# test_shard_equivalence.py; this pins the backend × workers axis)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend,workers", GRID)
def test_featurize_sharded_differential(
    backend, workers, feat_inputs, serial_feat_table, store
):
    from repro.shards import featurize_corpus_sharded

    corpus, resources = feat_inputs
    sharded = featurize_corpus_sharded(
        corpus,
        resources,
        store,
        shard_size=37,
        seed=11,
        executor=ExecutorConfig(backend=backend, workers=workers),
    )
    assert _table_hash(store, sharded.to_table()) == _table_hash(
        store, serial_feat_table
    )


# ----------------------------------------------------------------------
# MapReduce
# ----------------------------------------------------------------------
def _histogram_mapper(record):
    return [(record % 7, record)]


def _sum_combiner(key, values):
    return [sum(values)]


def _sorted_reducer(key, values):
    return sorted(values)


@pytest.mark.parametrize("backend,workers", GRID)
def test_mapreduce_differential(backend, workers, store):
    records = list(range(157))
    expected = run_mapreduce(
        records,
        _histogram_mapper,
        _sorted_reducer,
        combiner=_sum_combiner,
        n_partitions=5,
    )
    result = run_mapreduce(
        records,
        _histogram_mapper,
        _sorted_reducer,
        combiner=_sum_combiner,
        n_partitions=5,
        executor=ExecutorConfig(backend=backend, workers=workers),
    )
    assert (
        store.put_json("mapreduce_output", result).hash
        == store.put_json("mapreduce_output", expected).hash
    )


def _flaky_square(record):
    if record % 13 == 0:
        raise ValueError(f"poisoned record {record}")
    return record * record


@pytest.mark.parametrize("backend,workers", GRID)
def test_run_map_with_failures_differential(backend, workers):
    """A poisoned record fails the map with the serial run's error: the
    earliest poisoned record and its index."""
    records = list(range(1, 80))
    with pytest.raises(RecordError) as expected:
        run_map(records, _flaky_square)
    with pytest.raises(RecordError) as got:
        run_map(
            records,
            _flaky_square,
            executor=ExecutorConfig(backend=backend, workers=workers),
        )
    assert (got.value.index, got.value.record) == (12, 13)
    assert (got.value.index, got.value.record) == (
        expected.value.index,
        expected.value.record,
    )
    assert str(got.value) == str(expected.value)


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
GRAPH_BACKENDS_UNDER_TEST = ("exact", "lsh")


@pytest.fixture(scope="module")
def graph_inputs(tiny_splits, tiny_catalog):
    corpus = tiny_splits.image_test
    table = featurize_corpus(corpus, list(tiny_catalog), seed=11)
    return table


@pytest.mark.parametrize("graph_backend", GRAPH_BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("backend,workers", GRID)
def test_graph_build_differential(
    backend, workers, graph_backend, graph_inputs, store
):
    """Both graph backends — exact and approximate alike — produce a
    byte-identical adjacency on every executor: candidate generation
    uses per-shard RNG streams and ordered merges, so parallelism never
    changes which pairs are considered."""
    table = graph_inputs
    config = GraphConfig(k=6, block_size=16, backend=graph_backend, seed=5)
    baseline = build_knn_graph(table, config)
    graph = build_knn_graph(
        table, config, executor=ExecutorConfig(backend=backend, workers=workers)
    )
    assert _graph_hash(store, graph) == _graph_hash(store, baseline)


# ----------------------------------------------------------------------
# curation (the heaviest stage: one worker count per backend)
# ----------------------------------------------------------------------
def _curation_pipeline(tiny_world, tiny_task, tiny_catalog, executor):
    config = PipelineConfig(
        seed=7,
        curation=CurationConfig(max_seed_nodes=600, max_dev_nodes=300),
        executor=executor,
    )
    return CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
def test_curate_differential(
    backend, tiny_world, tiny_task, tiny_catalog,
    tiny_text_table, tiny_image_table, tiny_curation, store,
):
    if backend == "serial":
        executor = ExecutorConfig()
    else:
        executor = ExecutorConfig(backend=backend, workers=2)
    pipeline = _curation_pipeline(tiny_world, tiny_task, tiny_catalog, executor)
    curation = pipeline.curate(tiny_text_table, tiny_image_table)
    assert _curation_hash(store, curation) == _curation_hash(store, tiny_curation)


# ----------------------------------------------------------------------
# determinism sanity: RNG streams are independent of the backend
# ----------------------------------------------------------------------
def test_featurize_seed_derivation_is_backend_free():
    """The per-point RNG tag contains no backend/worker information, so
    values can only depend on (seed, point, resource)."""
    assert derive_seed(7, "featurize") == derive_seed(7, "featurize")
    assert derive_seed(7, "featurize") != derive_seed(8, "featurize")
