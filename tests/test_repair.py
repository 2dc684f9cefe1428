"""Tests for repro.runs.repair — the repair oracle and lineage walker."""

import pytest

from repro.core.exceptions import (
    ArtifactMissingError,
    IntegrityError,
    RepairError,
)
from repro.runs import (
    RepairEngine,
    RunCheckpointer,
    RunManifest,
    verify_and_restore,
)


def _encode(v):
    return {"out": ("evaluation", {"v": v})}


def _stage_args(value):
    return {
        "compute": lambda: value,
        "encode": _encode,
        "decode": lambda payloads: payloads["out"]["v"],
    }


def _build_chained_run(run_dir):
    """Two stages where s2's config declares s1's output as its input —
    the Merkle chaining the repair engine walks."""
    ck = RunCheckpointer(run_dir, context={"seed": 7})
    out1 = ck.stage("s1", config={"k": 1}, **_stage_args(41))
    out2 = ck.stage(
        "s2", config={"k": 2, "inputs": out1.artifact_hashes}, **_stage_args(42)
    )
    return ck, out1, out2


def _recompute_for(store):
    """Offline replay of the chained run; s2 reads s1's artifact from
    the store, so repairing s2 genuinely needs s1 intact."""

    def recompute(record):
        if record.name == "s1":
            return _encode(41)
        if record.name == "s2":
            upstream_hash = record.config["inputs"]["out"]
            # any ref with that hash works: content addressing
            for rec in RunManifest.load(store.root).stages.values():
                for ref in rec.artifacts.values():
                    if ref.hash == upstream_hash:
                        assert store.get_json(ref) == {"v": 41}
            return _encode(42)
        raise RepairError(f"unknown stage {record.name!r}")

    return recompute


def _path_of(store, ref):
    return store._path_for(ref.hash, ref.kind)


# ----------------------------------------------------------------------
# verify_and_restore (the oracle)
# ----------------------------------------------------------------------
def test_verify_and_restore_rebuilds_damaged_artifacts(tmp_path):
    ck, out1, _ = _build_chained_run(tmp_path)
    ref = out1.record.artifacts["out"]
    _path_of(ck.store, ref).unlink()

    actions = verify_and_restore(ck.store, "s1", out1.record.artifacts, _encode(41))
    assert [(a.status_before, a.restored) for a in actions] == [("missing", True)]
    assert ck.store.get_json(ref) == {"v": 41}


def test_verify_and_restore_leaves_healthy_artifacts_alone(tmp_path):
    ck, out1, _ = _build_chained_run(tmp_path)
    actions = verify_and_restore(ck.store, "s1", out1.record.artifacts, _encode(41))
    assert [(a.status_before, a.restored) for a in actions] == [("healthy", False)]


def test_verify_and_restore_refuses_different_bytes(tmp_path):
    ck, out1, _ = _build_chained_run(tmp_path)
    ref = out1.record.artifacts["out"]
    path = _path_of(ck.store, ref)
    path.unlink()

    with pytest.raises(RepairError) as exc:
        verify_and_restore(ck.store, "s1", out1.record.artifacts, _encode(999))
    assert "refusing to substitute different bytes" in str(exc.value)
    assert not path.exists()  # the oracle rejected before any write


def test_verify_and_restore_requires_every_artifact(tmp_path):
    ck, out1, _ = _build_chained_run(tmp_path)
    with pytest.raises(RepairError) as exc:
        verify_and_restore(ck.store, "s1", out1.record.artifacts, {})
    assert "produced no artifact" in str(exc.value)


# ----------------------------------------------------------------------
# RepairEngine
# ----------------------------------------------------------------------
def test_engine_repairs_stage_and_its_lineage_inputs(tmp_path):
    ck, out1, out2 = _build_chained_run(tmp_path)
    ref1 = out1.record.artifacts["out"]
    ref2 = out2.record.artifacts["out"]
    _path_of(ck.store, ref1).unlink()
    _path_of(ck.store, ref2).write_bytes(b"tampered")

    engine = RepairEngine(ck.manifest, ck.store, _recompute_for(ck.store))
    healed = engine.ensure_healthy(ref2.hash)
    assert healed == ref2
    # s1's missing input was healed first, then s2 itself
    assert ck.store.get_json(ref1) == {"v": 41}
    assert ck.store.get_json(ref2) == {"v": 42}
    assert {a.stage for a in engine.actions} == {"s1", "s2"}


def test_engine_rejects_hash_without_producer(tmp_path):
    ck, _, _ = _build_chained_run(tmp_path)
    engine = RepairEngine(ck.manifest, ck.store, _recompute_for(ck.store))
    with pytest.raises(RepairError) as exc:
        engine.ensure_healthy("ff" * 32)
    assert "no producing stage" in str(exc.value)


def test_engine_rejects_nondeterministic_replay(tmp_path):
    ck, out1, _ = _build_chained_run(tmp_path)
    ref = out1.record.artifacts["out"]
    _path_of(ck.store, ref).unlink()

    engine = RepairEngine(ck.manifest, ck.store, lambda record: _encode(999))
    with pytest.raises(RepairError) as exc:
        engine.ensure_healthy(ref.hash)
    assert "refusing to substitute different bytes" in str(exc.value)
    assert ck.store.check(ref) == "missing"  # still damaged, never wrong


def test_engine_rejects_unrepairable_lineage_input(tmp_path):
    run_dir = tmp_path / "run"
    ck = RunCheckpointer(run_dir, context={})
    out = ck.stage(
        # declares an input hash no stage produced and no store file holds
        "s2", config={"inputs": {"x": "ab" * 32}}, **_stage_args(42)
    )
    ref = out.record.artifacts["out"]
    _path_of(ck.store, ref).unlink()

    engine = RepairEngine(ck.manifest, ck.store, lambda record: _encode(42))
    with pytest.raises(RepairError) as exc:
        engine.ensure_healthy(ref.hash)
    assert "neither produced" in str(exc.value)


def test_engine_accepts_intact_external_input(tmp_path):
    """An input not produced by any stage is fine if its bytes are
    intact in the store (externally supplied content)."""
    run_dir = tmp_path / "run"
    ck = RunCheckpointer(run_dir, context={})
    external = ck.store.put_json("evaluation", {"external": True})
    out = ck.stage(
        "s2", config={"inputs": {"x": external.hash}}, **_stage_args(42)
    )
    ref = out.record.artifacts["out"]
    _path_of(ck.store, ref).unlink()

    engine = RepairEngine(ck.manifest, ck.store, lambda record: _encode(42))
    assert engine.ensure_healthy(ref.hash) == ref
    assert ck.store.get_json(ref) == {"v": 42}


# ----------------------------------------------------------------------
# checkpointer auto-repair
# ----------------------------------------------------------------------
def test_resume_auto_repair_rebuilds_corrupt_stage(tmp_path):
    run_dir = tmp_path / "run"
    ck = RunCheckpointer(run_dir, context={})
    out = ck.stage("s", config={"k": 1}, **_stage_args(41))
    ref = out.record.artifacts["out"]
    _path_of(ck.store, ref).write_bytes(b"garbage")

    ck2 = RunCheckpointer(run_dir, context={}, resume=True, auto_repair=True)
    replay = ck2.stage("s", config={"k": 1}, **_stage_args(41))
    assert replay.reused and replay.value == 41
    assert ck2.repaired_stages == ["s"]
    assert ck2.store.check(ref) == "healthy"


def test_resume_auto_repair_off_by_default(tmp_path):
    run_dir = tmp_path / "run"
    ck = RunCheckpointer(run_dir, context={})
    out = ck.stage("s", config={"k": 1}, **_stage_args(41))
    _path_of(ck.store, out.record.artifacts["out"]).unlink()

    ck2 = RunCheckpointer(run_dir, context={}, resume=True)
    with pytest.raises(ArtifactMissingError):
        ck2.stage("s", config={"k": 1}, **_stage_args(41))


def test_resume_auto_repair_still_refuses_nondeterminism(tmp_path):
    run_dir = tmp_path / "run"
    ck = RunCheckpointer(run_dir, context={})
    out = ck.stage("s", config={"k": 1}, **_stage_args(41))
    ref = out.record.artifacts["out"]
    _path_of(ck.store, ref).unlink()

    ck2 = RunCheckpointer(run_dir, context={}, resume=True, auto_repair=True)
    with pytest.raises(RepairError):
        # the "replay" computes a different value: oracle must reject
        ck2.stage(
            "s",
            config={"k": 1},
            compute=lambda: 999,
            encode=_encode,
            decode=lambda payloads: payloads["out"]["v"],
        )
    assert ck2.store.check(ref) == "missing"


def test_auto_repair_error_types_are_checkpoint_errors():
    from repro.core.exceptions import CheckpointError

    assert issubclass(ArtifactMissingError, CheckpointError)
    assert issubclass(RepairError, CheckpointError)
    assert not issubclass(RepairError, IntegrityError)
