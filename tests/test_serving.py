"""Tests for repro.serving — artifact loading, the TTL cache tier, the
micro-batcher, and the decision path's determinism contract (decisions
bit-identical across batching, cache state, concurrency, and faults)."""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.core.exceptions import CheckpointError, ConfigurationError
from repro.core.pipeline import CrossModalPipeline, read_stage
from repro.features.io import table_to_dict
from repro.features.table import MISSING
from repro.resilience import FaultInjector, FaultSpec, StaleValueCache
from repro.runs import RunCheckpointer
from repro.runs.manifest import RunManifest, StageRecord
from repro.runs.store import RunStore
from repro.serving import (
    MicroBatcher,
    ModelServer,
    ServingArtifacts,
    ServingConfig,
    TTLFeatureCache,
    run_load,
)


# ----------------------------------------------------------------------
# fixtures: one checkpointed run shared by every test in the module
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, tiny_pipeline, tiny_splits):
    directory = tmp_path_factory.mktemp("serving") / "run"
    tiny_pipeline.run(
        tiny_splits,
        checkpoint=RunCheckpointer(directory, context={"task": "CT1"}),
    )
    return directory


@pytest.fixture(scope="module")
def artifacts(run_dir):
    return ServingArtifacts.load(run_dir)


@pytest.fixture(scope="module")
def serve_points(tiny_splits):
    return tiny_splits.image_test.points[:10]


@pytest.fixture(scope="module")
def reference(artifacts, tiny_catalog, serve_points):
    """Fault-free, warm-cache, batch-of-1 decisions — the oracle."""
    config = ServingConfig(max_batch_size=1, max_wait_s=0.0)
    with ModelServer(artifacts, list(tiny_catalog), config) as server:
        return {p.point_id: server.decide(p) for p in serve_points}


def keys(decisions):
    return {pid: d.key for pid, d in decisions.items()}


# ----------------------------------------------------------------------
# artifact loading
# ----------------------------------------------------------------------
class TestServingArtifacts:
    def test_load_fields(self, artifacts, tiny_catalog):
        assert isinstance(artifacts.featurize_seed, int)
        assert sorted(artifacts.feature_names) == sorted(
            r.name for r in tiny_catalog
        )
        assert set(artifacts.tables) == {"text", "image", "test"}
        assert artifacts.model_service_sets
        assert artifacts.context.get("task") == "CT1"

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no run manifest"):
            ServingArtifacts.load(tmp_path)

    def test_load_incomplete_run(self, tmp_path):
        RunManifest.create(tmp_path, {"task": "CT1"})
        with pytest.raises(CheckpointError, match="featurize"):
            ServingArtifacts.load(tmp_path)

    def test_load_record_without_its_artifact(self, tmp_path):
        record = StageRecord(
            name="train", status="complete", fingerprint="f", config={}
        )
        with pytest.raises(CheckpointError, match="'model'"):
            read_stage(record, RunStore(tmp_path))

    def test_sharded_run_serves_the_unsharded_tables(
        self, artifacts, reference, serve_points, tmp_path,
        tiny_world, tiny_task, tiny_catalog, tiny_pipeline, tiny_splits,
    ):
        run_dir = tmp_path / "sharded"
        config = replace(tiny_pipeline.config, shard_size=97)
        CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config).run(
            tiny_splits,
            checkpoint=RunCheckpointer(run_dir, context={"task": "CT1"}),
        )
        featurize = RunManifest.load(run_dir).stages["featurize"]
        assert any("/" in key for key in featurize.artifacts)
        sharded = ServingArtifacts.load(run_dir)
        assert set(sharded.tables) == set(artifacts.tables)
        for key, table in artifacts.tables.items():
            assert table_to_dict(sharded.tables[key]) == table_to_dict(table)
        serving = ServingConfig(max_batch_size=1, max_wait_s=0.0)
        with ModelServer(sharded, list(tiny_catalog), serving) as server:
            decisions = {p.point_id: server.decide(p) for p in serve_points}
        assert keys(decisions) == keys(reference)

    def test_validate_catalog_accepts_exact_match(self, artifacts, tiny_catalog):
        artifacts.validate_catalog(list(tiny_catalog))

    def test_validate_catalog_rejects_drift(self, artifacts, tiny_catalog):
        suite = list(tiny_catalog)
        with pytest.raises(ConfigurationError, match=suite[-1].name):
            artifacts.validate_catalog(suite[:-1])

    def test_warm_entries_follow_modality_availability(self, artifacts):
        expected = set()
        for table in artifacts.tables.values():
            for spec in table.schema:
                for pid, modality in zip(table.point_ids, table.modalities):
                    if spec.available_for(modality):
                        expected.add((spec.name, int(pid)))
        yielded = {(s, p) for s, p, _ in artifacts.warm_entries()}
        assert yielded == expected

    def test_warm_entries_keep_no_output_cells(self, artifacts):
        # a service that ran but returned "no output" must still be
        # warmed — the empty answer IS the batch run's answer
        assert any(v is None for _, _, v in artifacts.warm_entries())


# ----------------------------------------------------------------------
# TTL cache tier
# ----------------------------------------------------------------------
def _ttl_cache(ttl_s, capacity=None):
    tick = [0.0]
    store = StaleValueCache(capacity=capacity, clock=lambda: tick[0])
    return tick, store, TTLFeatureCache(store, ttl_s=ttl_s)


class TestTTLFeatureCache:
    def test_negative_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            TTLFeatureCache(StaleValueCache(), ttl_s=-1.0)

    def test_miss_then_fresh_then_stale(self):
        tick, _, cache = _ttl_cache(ttl_s=10.0)
        assert cache.lookup("svc", 1) == ("miss", MISSING)
        cache.put("svc", 1, 42)
        tick[0] = 5.0
        assert cache.lookup("svc", 1) == ("fresh", 42)
        tick[0] = 15.0
        assert cache.lookup("svc", 1) == ("stale", 42)
        assert cache.stats() == {
            "fresh_hits": 1,
            "stale_hits": 1,
            "misses": 1,
            "entries": 1,
            "evictions": 0,
        }

    def test_ttl_none_never_expires(self):
        tick, _, cache = _ttl_cache(ttl_s=None)
        cache.put("svc", 1, "v")
        tick[0] = 1e9
        assert cache.lookup("svc", 1) == ("fresh", "v")

    def test_ttl_zero_always_expired(self):
        _, _, cache = _ttl_cache(ttl_s=0.0)
        cache.put("svc", 1, "v")
        assert cache.lookup("svc", 1) == ("stale", "v")

    def test_put_refreshes_age(self):
        tick, _, cache = _ttl_cache(ttl_s=10.0)
        cache.put("svc", 1, "old")
        tick[0] = 15.0
        cache.put("svc", 1, "new")
        assert cache.lookup("svc", 1) == ("fresh", "new")

    def test_cached_none_is_a_hit(self):
        _, _, cache = _ttl_cache(ttl_s=None)
        cache.put("svc", 1, None)
        state, value = cache.lookup("svc", 1)
        assert state == "fresh" and value is None

    def test_evictions_surface_in_stats(self):
        _, store, cache = _ttl_cache(ttl_s=None, capacity=1)
        cache.put("svc", 1, "a")
        cache.put("svc", 2, "b")
        assert cache.stats()["entries"] == 1
        assert cache.stats()["evictions"] == 1
        assert cache.lookup("svc", 1)[0] == "miss"
        assert store.evictions == 1


# ----------------------------------------------------------------------
# micro-batcher
# ----------------------------------------------------------------------
def _submit_all(batcher, payloads):
    """Submit payloads concurrently; return {payload: result-or-error}."""
    out = {}
    lock = threading.Lock()

    def worker(p):
        try:
            result = batcher.submit(p)
        except BaseException as exc:  # noqa: BLE001 - captured for asserts
            result = exc
        with lock:
            out[p] = result

    threads = [threading.Thread(target=worker, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


class TestMicroBatcher:
    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(lambda b: b, max_batch_size=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(lambda b: b, max_wait_s=-0.1)
        with pytest.raises(ConfigurationError):
            MicroBatcher(lambda b: b, queue_capacity=0)

    def test_size_flush_coalesces_full_batch(self):
        with MicroBatcher(
            lambda b: [x * 10 for x in b], max_batch_size=4, max_wait_s=60.0
        ) as batcher:
            out = _submit_all(batcher, [1, 2, 3, 4])
            assert out == {1: 10, 2: 20, 3: 30, 4: 40}
            stats = batcher.stats()
        assert stats["batches"] == 1
        assert stats["requests"] == 4
        assert stats["size_flushes"] == 1
        assert stats["max_batch"] == 4

    def test_timeout_flush_releases_lone_request(self):
        with MicroBatcher(
            lambda b: list(b), max_batch_size=8, max_wait_s=0.01
        ) as batcher:
            assert batcher.submit("solo") == "solo"
            stats = batcher.stats()
        assert stats["timeout_flushes"] == 1
        assert stats["max_batch"] == 1

    def test_results_align_with_submitters(self):
        with MicroBatcher(
            lambda b: [x + 1 for x in b], max_batch_size=3, max_wait_s=0.005
        ) as batcher:
            out = _submit_all(batcher, list(range(20)))
        assert out == {i: i + 1 for i in range(20)}

    def test_process_error_reaches_every_submitter(self):
        def boom(batch):
            raise ValueError("featurization exploded")

        with MicroBatcher(boom, max_batch_size=3, max_wait_s=60.0) as batcher:
            out = _submit_all(batcher, ["a", "b", "c"])
        for result in out.values():
            assert isinstance(result, ValueError)

    def test_length_mismatch_is_an_error(self):
        with MicroBatcher(lambda b: [], max_batch_size=1) as batcher:
            with pytest.raises(RuntimeError, match="0 results"):
                batcher.submit("x")

    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(lambda b: list(b))
        batcher.close()
        batcher.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)


# ----------------------------------------------------------------------
# the decision path: determinism across batching/cache/concurrency/faults
# ----------------------------------------------------------------------
class TestModelServer:
    def test_catalog_drift_rejected_at_construction(self, artifacts, tiny_catalog):
        with pytest.raises(ConfigurationError):
            ModelServer(artifacts, list(tiny_catalog)[:-1])

    def test_warm_server_serves_without_dialing(
        self, artifacts, tiny_catalog, serve_points, reference
    ):
        with ModelServer(artifacts, list(tiny_catalog)) as server:
            assert server.warmed > 0
            decisions = {p.point_id: server.decide(p) for p in serve_points}
            stats = server.stats()
        assert keys(decisions) == keys(reference)
        assert stats["attempts"] == 0  # every feature read was a fresh hit
        assert stats["cache"]["fresh_hits"] > 0
        assert stats["cache"]["misses"] == 0

    def test_cold_cache_matches_warm(
        self, artifacts, tiny_catalog, serve_points, reference
    ):
        config = ServingConfig(warm_cache=False, max_batch_size=1, max_wait_s=0.0)
        with ModelServer(artifacts, list(tiny_catalog), config) as server:
            decisions = {p.point_id: server.decide(p) for p in serve_points}
            stats = server.stats()
        assert keys(decisions) == keys(reference)
        assert stats["attempts"] > 0  # everything was recomputed live

    def test_expired_cache_matches_warm(
        self, artifacts, tiny_catalog, serve_points, reference
    ):
        config = ServingConfig(cache_ttl_s=0.0, max_wait_s=0.001)
        with ModelServer(artifacts, list(tiny_catalog), config) as server:
            decisions = {p.point_id: server.decide(p) for p in serve_points}
            stats = server.stats()
        assert keys(decisions) == keys(reference)
        assert stats["cache"]["stale_hits"] > 0  # refresh path exercised

    def test_concurrent_batched_load_matches(
        self, artifacts, tiny_catalog, serve_points, reference
    ):
        with ModelServer(artifacts, list(tiny_catalog)) as server:
            result = run_load(server, serve_points, n_clients=8, n_requests=64)
        assert result.ok
        assert result.latency.count == 64
        assert result.qps > 0
        assert keys(result.decisions) == keys(reference)

    def test_chaos_degrades_to_stale_bit_identical(
        self, artifacts, tiny_catalog, serve_points, reference
    ):
        injector = FaultInjector(FaultSpec(transient_rate=0.9), seed=11)
        wrapped = injector.wrap_all(list(tiny_catalog))
        config = ServingConfig(cache_ttl_s=0.0, max_wait_s=0.001)
        with ModelServer(artifacts, wrapped, config) as server:
            decisions = {p.point_id: server.decide(p) for p in serve_points}
            stats = server.stats()
        assert injector.total_faults > 0
        assert stats["fallbacks"] > 0  # some dials exhausted retries
        assert any(d.degraded for d in decisions.values())
        # ... and yet every decision is bit-identical to fault-free
        assert keys(decisions) == keys(reference)

    def test_decision_telemetry_counts_feature_reads(
        self, artifacts, tiny_catalog, serve_points
    ):
        with ModelServer(artifacts, list(tiny_catalog)) as server:
            point = serve_points[0]
            decision = server.decide(point)
            schema = server.model_schema(point.modality)
        supported = sum(
            1
            for name in schema.names
            if server._resources[name].supports(point.modality)
        )
        assert sum(decision.cache.values()) == supported
        assert decision.label in (0, 1)
        assert 0.0 <= decision.score <= 1.0


class TestRunLoad:
    def test_validation(self, artifacts, tiny_catalog, serve_points):
        with ModelServer(artifacts, list(tiny_catalog)) as server:
            with pytest.raises(ConfigurationError):
                run_load(server, serve_points, n_clients=0)
            with pytest.raises(ConfigurationError):
                run_load(server, serve_points, n_requests=0)
            with pytest.raises(ConfigurationError):
                run_load(server, [], n_clients=1)

    def test_errors_reported_not_raised(self, artifacts, tiny_catalog, serve_points):
        server = ModelServer(artifacts, list(tiny_catalog))
        server.close()  # every decide() now raises
        result = run_load(server, serve_points, n_clients=2, n_requests=4)
        assert not result.ok
        assert len(result.errors) == 4
        assert result.latency.count == 0
