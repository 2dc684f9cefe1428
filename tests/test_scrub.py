"""Tests for repro.runs.scrub — store auditing and repair round-trips."""

import json
from dataclasses import asdict

import pytest

from repro.core.config import CurationConfig, PipelineConfig
from repro.core.exceptions import ConfigurationError, RepairError
from repro.core.pipeline import CrossModalPipeline
from repro.experiments.scrub import rebuild_end_to_end, run_scrub
from repro.runs import RepairEngine, RunCheckpointer, RunManifest, scrub_run
from repro.shards.table import MANIFEST_KIND, ShardedTable


def _encode(v):
    return {"out": ("evaluation", {"v": v})}


def _stage_args(value):
    return {
        "compute": lambda: value,
        "encode": _encode,
        "decode": lambda payloads: payloads["out"]["v"],
    }


def _build_run(run_dir):
    ck = RunCheckpointer(run_dir, context={"seed": 7})
    out1 = ck.stage("s1", config={"k": 1}, **_stage_args(41))
    out2 = ck.stage(
        "s2", config={"k": 2, "inputs": out1.artifact_hashes}, **_stage_args(42)
    )
    return ck, out1, out2


def _engine(ck):
    values = {"s1": 41, "s2": 42}
    return RepairEngine(
        ck.manifest, ck.store, lambda record: _encode(values[record.name])
    )


def _path_of(ck, outcome):
    ref = outcome.record.artifacts["out"]
    return ck.store._path_for(ref.hash, ref.kind)


def test_scrub_healthy_store(tmp_path):
    _build_run(tmp_path)
    report = scrub_run(tmp_path)
    assert report.healthy
    assert [e.status for e in report.entries] == ["healthy", "healthy"]
    assert report.counts == {"healthy": 2, "orphaned": 0}
    assert report.verdict() == "scrub verdict: store healthy"


def test_scrub_classifies_corrupt_missing_and_orphans(tmp_path):
    ck, out1, out2 = _build_run(tmp_path)
    _path_of(ck, out1).write_bytes(b"tampered")
    _path_of(ck, out2).unlink()
    stray = ck.store.artifact_dir / ("ff" * 32 + ".evaluation.json")
    stray.write_bytes(b"debris")

    report = scrub_run(tmp_path)
    assert not report.healthy
    assert {e.stage: e.status for e in report.entries} == {
        "s1": "corrupt",
        "s2": "missing",
    }
    assert report.orphans == [stray.name]
    assert "UNREPAIRED" in report.verdict()
    # orphans are informational, never damage
    assert report.unrepaired == 2


def test_scrub_repair_requires_engine(tmp_path):
    _build_run(tmp_path)
    with pytest.raises(ConfigurationError) as exc:
        scrub_run(tmp_path, repair=True)
    assert "RepairEngine" in str(exc.value)


def test_scrub_repair_round_trip_restores_original_hashes(tmp_path):
    ck, out1, out2 = _build_run(tmp_path)
    _path_of(ck, out1).write_bytes(b"tampered")
    _path_of(ck, out2).unlink()

    report = scrub_run(tmp_path, engine=_engine(ck), repair=True)
    assert report.healthy
    assert report.repaired == 2
    assert {e.stage: (e.status, e.detail) for e in report.entries} == {
        "s1": ("repaired", "was corrupt"),
        "s2": ("repaired", "was missing"),
    }
    assert report.verdict() == (
        "scrub verdict: repaired 2 artifact(s); store healthy"
    )
    # bytes are bit-identical: the recorded refs read back cleanly
    assert ck.store.get_json(out1.record.artifacts["out"]) == {"v": 41}
    assert ck.store.get_json(out2.record.artifacts["out"]) == {"v": 42}


def test_scrub_repair_reports_unrepairable_damage(tmp_path):
    ck, out1, _ = _build_run(tmp_path)
    _path_of(ck, out1).unlink()
    # a replay that is not bit-deterministic: the oracle must reject it
    bad_engine = RepairEngine(ck.manifest, ck.store, lambda record: _encode(999))

    report = scrub_run(tmp_path, engine=bad_engine, repair=True)
    assert not report.healthy
    entry = next(e for e in report.entries if e.stage == "s1")
    assert entry.status == "unrepaired"
    assert "refusing to substitute different bytes" in entry.detail
    assert "UNREPAIRED" in report.verdict()


def test_scrub_repair_of_unrecognized_recorded_config_fails_typed(tmp_path):
    """A run recorded with a config value this build rejects (here a
    graph backend it does not offer) cannot be replayed: rebuilding it
    raises :class:`RepairError`, so ``scrub --repair`` reports the
    damaged artifact unrepaired instead of crashing."""
    ck = RunCheckpointer(
        tmp_path,
        context={"experiment": "end_to_end", "task": "CT1", "scale": 0.05, "seed": 7},
    )
    curate = ck.stage(
        "curate", config={"curation": asdict(CurationConfig())}, **_stage_args(41)
    )
    manifest_path = tmp_path / RunManifest.FILENAME
    doc = json.loads(manifest_path.read_text())
    doc["stages"]["curate"]["config"]["curation"]["graph_backend"] = "annoy"
    manifest_path.write_text(json.dumps(doc))

    with pytest.raises(RepairError, match="annoy"):
        rebuild_end_to_end(RunManifest.load(tmp_path))

    _path_of(ck, curate).unlink()
    report = run_scrub(tmp_path, repair=True, out_dir=str(tmp_path))
    assert not report.healthy
    entry = next(e for e in report.entries if e.stage == "curate")
    assert entry.status == "unrepaired"
    assert "annoy" in entry.detail


# ----------------------------------------------------------------------
# sharded runs: shard artifacts are ordinary lineage — scrub --repair
# heals a damaged shard from the featurize replay recipe
# ----------------------------------------------------------------------
def _sharded_run(tiny_world, tiny_task, tiny_catalog, tiny_splits, run_dir):
    config = PipelineConfig(
        seed=7,
        curation=CurationConfig(max_seed_nodes=600, max_dev_nodes=300),
        shard_size=97,
    )
    pipeline = CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)
    ck = RunCheckpointer(run_dir, context={"task": "CT1"})
    pipeline.run(tiny_splits, checkpoint=ck)
    engine = RepairEngine(
        ck.manifest,
        ck.store,
        lambda record: pipeline.recompute_stage(
            record.name, ck.manifest, ck.store, tiny_splits
        ),
    )
    return ck, engine


def test_scrub_repair_heals_exactly_the_corrupt_shard(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path
):
    ck, engine = _sharded_run(
        tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path
    )
    featurize = ck.manifest.stages["featurize"]
    shard_keys = [k for k in featurize.artifacts if "/shard" in k]
    assert len(shard_keys) > 3, "expected a multi-shard featurize stage"
    victim = sorted(k for k in shard_keys if k.endswith(".dense"))[1]
    ref = featurize.artifacts[victim]
    ck.store._path_for(ref.hash, ref.kind).write_bytes(b"tampered shard")

    audit = scrub_run(tmp_path)
    assert {e.key: e.status for e in audit.entries if e.stage == "featurize"}[
        victim
    ] == "corrupt"

    report = scrub_run(tmp_path, engine=engine, repair=True)
    assert report.healthy
    assert report.repaired == 1
    repaired = [e for e in report.entries if e.status == "repaired"]
    assert [(e.stage, e.key) for e in repaired] == [("featurize", victim)]
    # the healed bytes hash back to the recorded ref
    assert ck.store.check(ref) == "healthy"


def test_scrub_repaired_shard_manifest_round_trips(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path
):
    """After repair, the shard manifest still Merkle-pins the healed
    shards: every ref it lists is healthy and the manifest re-encodes
    to its recorded content hash."""
    ck, engine = _sharded_run(
        tiny_world, tiny_task, tiny_catalog, tiny_splits, tmp_path
    )
    featurize = ck.manifest.stages["featurize"]
    manifest_ref = featurize.artifacts["text"]
    assert manifest_ref.kind == MANIFEST_KIND
    victim = next(
        k for k in featurize.artifacts if k.startswith("text/shard")
    )
    ref = featurize.artifacts[victim]
    ck.store._path_for(ref.hash, ref.kind).unlink()

    report = scrub_run(tmp_path, engine=engine, repair=True)
    assert report.healthy

    doc = ck.store.get_json(manifest_ref)
    assert ck.store.put_json(MANIFEST_KIND, doc).hash == manifest_ref.hash
    table = ShardedTable(ck.store, doc)
    assert all(
        ck.store.check(r) == "healthy"
        for i in range(table.n_shards)
        for r in table.shard_refs(i)
        if r is not None
    )
    assert table.to_table().n_rows == doc["n_rows"]


def test_scrub_report_render_and_dict(tmp_path):
    ck, out1, _ = _build_run(tmp_path)
    _path_of(ck, out1).unlink()
    report = scrub_run(tmp_path)
    text = report.render()
    assert "missing" in text and "scrub verdict" in text
    doc = report.to_dict()
    assert doc["healthy"] is False
    assert doc["counts"]["missing"] == 1
