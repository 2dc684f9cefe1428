"""Differential shard-equivalence harness for the sharded data plane.

The contract of :mod:`repro.shards` (DESIGN.md §16) is that sharding is
a pure memory/layout knob: every stage run sharded must produce
artifacts **byte-identical** (by :class:`RunStore` content hash) to the
unsharded stage, across

* shard sizes ``{1, 7, all}`` — degenerate one-row shards, an uneven
  boundary that does not divide the corpus, and the single-shard case;
* execution backends ``{serial, thread, process}`` (restricted per CI
  job via ``REPRO_EXEC_BACKENDS``, same idiom as
  ``test_exec_equivalence.py``);
* Hypothesis-generated corpus prefixes and shard boundaries;
* a kill at every shard boundary followed by a resume, which must
  adopt the pre-crash shards verbatim and finish bit-identical.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CurationConfig, PipelineConfig
from repro.core.exceptions import SimulatedCrashError
from repro.core.pipeline import CrossModalPipeline
from repro.datagen.corpus import Corpus
from repro.exec import ExecutorConfig
from repro.features.io import table_to_dict
from repro.resources.featurize import featurize_corpus
from repro.runs import ProgressManifest, RunCheckpointer
from repro.runs.crash import CRASH_AT_ENV, CRASH_MODE_ENV
from repro.runs.store import RunStore
from repro.shards import build_sharded_corpus, featurize_corpus_sharded

_ALL_BACKENDS = ("serial", "thread", "process")
_env = os.environ.get("REPRO_EXEC_BACKENDS", "").strip()
BACKENDS_UNDER_TEST = tuple(
    b.strip() for b in _env.split(",") if b.strip()
) or _ALL_BACKENDS

#: 1 = every row its own shard; 7 = does not divide the corpus, so the
#: last shard is ragged; None = one shard holding everything
SHARD_SIZES = (1, 7, None)

GRID = [
    (backend, shard_size)
    for backend in BACKENDS_UNDER_TEST
    for shard_size in SHARD_SIZES
]

SEED = 11
N_ROWS = 60


def _executor(backend: str) -> ExecutorConfig:
    if backend == "serial":
        return ExecutorConfig()
    return ExecutorConfig(backend=backend, workers=2)


def _resolve(shard_size: "int | None", n: int) -> int:
    return n if shard_size is None else shard_size


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


def _table_hash(store, table) -> str:
    return store.put_json("feature_table", table_to_dict(table)).hash


# ----------------------------------------------------------------------
# inputs: a small corpus prefix so the full grid stays fast
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus(tiny_splits):
    points = list(tiny_splits.image_test.points)[:N_ROWS]
    return Corpus(points=points, name="shard-equiv")


@pytest.fixture(scope="module")
def resources(tiny_catalog):
    return list(tiny_catalog)


@pytest.fixture(scope="module")
def baseline_table(corpus, resources):
    """The unsharded, serial oracle every grid cell compares against."""
    return featurize_corpus(corpus, resources, seed=SEED, include_labels=True)


# ----------------------------------------------------------------------
# featurization: sharded × backend × shard size vs the unsharded oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend,shard_size", GRID)
def test_featurize_sharded_differential(
    backend, shard_size, corpus, resources, baseline_table, store
):
    sharded = featurize_corpus_sharded(
        corpus,
        resources,
        store,
        _resolve(shard_size, len(corpus.points)),
        seed=SEED,
        include_labels=True,
        executor=_executor(backend),
    )
    assert _table_hash(store, sharded.to_table()) == _table_hash(
        store, baseline_table
    )


def test_featurize_shard_hashes_backend_free(corpus, resources, tmp_path):
    """Per-shard artifact hashes — not just the reassembled table — are
    identical across backends: the Merkle manifest is canonical."""
    hashes = []
    for backend in BACKENDS_UNDER_TEST:
        store = RunStore(tmp_path / f"store-{backend}")
        sharded = featurize_corpus_sharded(
            corpus,
            resources,
            store,
            7,
            seed=SEED,
            include_labels=True,
            executor=_executor(backend),
        )
        hashes.append(sharded.shard_hashes())
    assert all(h == hashes[0] for h in hashes[1:])


def test_featurize_from_sharded_corpus_matches(
    corpus, resources, baseline_table, store
):
    """Streaming from an out-of-core ShardedCorpus (shard layout 13,
    different from the table shard size 7) changes nothing."""
    sc = build_sharded_corpus(
        store, iter(corpus.points), len(corpus.points), 13, name=corpus.name
    )
    sharded = featurize_corpus_sharded(
        sc, resources, store, 7, seed=SEED, include_labels=True
    )
    assert _table_hash(store, sharded.to_table()) == _table_hash(
        store, baseline_table
    )


# ----------------------------------------------------------------------
# Hypothesis: corpus prefixes × shard boundaries
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_featurize_sharded_equivalence_property(
    data, corpus, resources, tmp_path_factory
):
    """For any corpus prefix and any shard size, sharded featurization
    hashes identically to the unsharded run on that prefix."""
    n = data.draw(st.integers(min_value=1, max_value=24), label="n_rows")
    shard_size = data.draw(
        st.integers(min_value=1, max_value=n + 5), label="shard_size"
    )
    prefix = Corpus(points=list(corpus.points)[:n], name=f"prefix-{n}")
    store = RunStore(tmp_path_factory.mktemp("prop-store"))
    expected = featurize_corpus(prefix, resources, seed=SEED, include_labels=True)
    sharded = featurize_corpus_sharded(
        prefix, resources, store, shard_size, seed=SEED, include_labels=True
    )
    assert _table_hash(store, sharded.to_table()) == _table_hash(store, expected)


# ----------------------------------------------------------------------
# crash at every shard boundary → resume bit-identical
# ----------------------------------------------------------------------
def _progress(store, tag):
    return ProgressManifest(store.root / f"progress-{tag}.json", job_key="test-job")


@pytest.mark.parametrize("kill_shard", [0, 3, 8])
def test_featurize_kill_at_shard_boundary_resumes_bit_identical(
    kill_shard, corpus, resources, baseline_table, store, monkeypatch
):
    monkeypatch.setenv(CRASH_MODE_ENV, "raise")
    monkeypatch.setenv(CRASH_AT_ENV, f"shard:table:{kill_shard}")
    with pytest.raises(SimulatedCrashError):
        featurize_corpus_sharded(
            corpus,
            resources,
            store,
            7,
            seed=SEED,
            include_labels=True,
            progress=_progress(store, "feat"),
        )
    # the killed run persisted exactly the shards before the boundary
    survivors = _progress(store, "feat").completed()
    assert sorted(survivors) == list(range(kill_shard + 1))

    monkeypatch.delenv(CRASH_AT_ENV)
    resumed = featurize_corpus_sharded(
        corpus,
        resources,
        store,
        7,
        seed=SEED,
        include_labels=True,
        progress=_progress(store, "feat"),
    )
    assert _table_hash(store, resumed.to_table()) == _table_hash(
        store, baseline_table
    )
    # adopted shards are the pre-crash artifacts, byte for byte
    clean_store = RunStore(store.root / "clean")
    clean = featurize_corpus_sharded(
        corpus, resources, clean_store, 7, seed=SEED, include_labels=True
    )
    assert resumed.shard_hashes() == clean.shard_hashes()


def test_progress_job_key_mismatch_discards_stale_shards(
    corpus, resources, store
):
    """A progress file from a different job configuration must not leak
    shards into this run — the manifest is keyed by job fingerprint."""
    path = store.root / "progress-stale.json"
    stale = ProgressManifest(path, job_key="job-A")
    stale.save(0, {"bogus": True})
    fresh = ProgressManifest(path, job_key="job-B")
    assert fresh.completed() == []


# ----------------------------------------------------------------------
# checkpointed pipeline: sharded run ≡ unsharded run, end to end
# ----------------------------------------------------------------------
_DOWNSTREAM = ("curate", "train", "evaluate")


def _pipeline(tiny_world, tiny_task, tiny_catalog, shard_size=None):
    config = PipelineConfig(
        seed=7,
        curation=CurationConfig(max_seed_nodes=600, max_dev_nodes=300),
        shard_size=shard_size,
    )
    return CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)


def _stage_hashes(run_dir, stage):
    ck = RunCheckpointer(run_dir, context={"task": "CT1"}, resume=True)
    record = ck.manifest.stages[stage]
    return {key: ref.hash for key, ref in record.artifacts.items()}


def test_pipeline_sharded_run_matches_unsharded(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path
):
    """A checkpointed sharded run and a checkpointed unsharded run agree
    on metrics AND on every downstream stage's artifact hashes — the
    featurize encodings differ (manifest + shards vs one table), but
    everything derived from them is byte-identical."""
    plain_dir = tmp_path / "plain"
    sharded_dir = tmp_path / "sharded"
    plain = _pipeline(tiny_world, tiny_task, tiny_catalog).run(
        tiny_splits,
        checkpoint=RunCheckpointer(plain_dir, context={"task": "CT1"}),
    )
    sharded = _pipeline(tiny_world, tiny_task, tiny_catalog, shard_size=97).run(
        tiny_splits,
        checkpoint=RunCheckpointer(sharded_dir, context={"task": "CT1"}),
    )
    assert sharded.metrics == plain.metrics
    assert np.array_equal(sharded.test_scores, plain.test_scores)
    for stage in _DOWNSTREAM:
        assert _stage_hashes(sharded_dir, stage) == _stage_hashes(
            plain_dir, stage
        ), f"stage {stage} diverged between sharded and unsharded runs"


def test_pipeline_sharded_crash_mid_featurize_resumes_bit_identical(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path, monkeypatch
):
    """Kill the checkpointed sharded run at a *shard* boundary inside
    featurize; the resume must adopt the completed shards and finish
    identical to an uninterrupted unsharded run."""
    baseline = _pipeline(tiny_world, tiny_task, tiny_catalog).run(tiny_splits)
    run_dir = tmp_path / "run"
    monkeypatch.setenv(CRASH_MODE_ENV, "raise")
    monkeypatch.setenv(CRASH_AT_ENV, "shard:text:1")
    with pytest.raises(SimulatedCrashError):
        _pipeline(tiny_world, tiny_task, tiny_catalog, shard_size=97).run(
            tiny_splits,
            checkpoint=RunCheckpointer(run_dir, context={"task": "CT1"}),
        )
    monkeypatch.delenv(CRASH_AT_ENV)
    resumed = _pipeline(tiny_world, tiny_task, tiny_catalog, shard_size=97).run(
        tiny_splits,
        checkpoint=RunCheckpointer(run_dir, context={"task": "CT1"}, resume=True),
    )
    assert resumed.metrics == baseline.metrics
    assert np.array_equal(resumed.test_scores, baseline.test_scores)


def test_pipeline_sharded_run_reads_each_shard_once(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path, monkeypatch
):
    """The featurize checkpoint encodes every shard payload and the
    pipeline then materializes the tables from them: computing the run
    and replaying it each read every shard artifact exactly once."""
    reads: Counter = Counter()
    get_bytes = RunStore.get_bytes

    def counting_get_bytes(self, ref):
        reads[ref.hash] += 1
        return get_bytes(self, ref)

    monkeypatch.setattr(RunStore, "get_bytes", counting_get_bytes)
    run_dir = tmp_path / "run"
    for resume in (False, True):
        reads.clear()
        _pipeline(tiny_world, tiny_task, tiny_catalog, shard_size=97).run(
            tiny_splits,
            checkpoint=RunCheckpointer(
                run_dir, context={"task": "CT1"}, resume=resume
            ),
        )
        shard_hashes = {
            digest
            for key, digest in _stage_hashes(run_dir, "featurize").items()
            if "/shard" in key
        }
        assert shard_hashes
        assert {h: reads[h] for h in shard_hashes} == dict.fromkeys(shard_hashes, 1)
