"""Tests for repro.runs — atomic artifacts, manifests, codecs,
checkpointers."""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.atomicio import atomic_write_json, canonical_json, sha256_hex
from repro.core.exceptions import CheckpointError, IntegrityError
from repro.runs import (
    ArtifactRef,
    ProgressManifest,
    RunCheckpointer,
    RunManifest,
    RunStore,
    stage_fingerprint,
)
from repro.runs import codecs


# ----------------------------------------------------------------------
# atomic IO
# ----------------------------------------------------------------------
def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(path, {"a": 1})
    atomic_write_json(path, {"a": 2})
    assert json.loads(path.read_text()) == {"a": 2}
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_bytes_cleans_up_on_failure(tmp_path):
    class Boom:
        pass

    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        atomic_write_json(path, {"bad": Boom()})
    assert list(tmp_path.iterdir()) == []


def test_canonical_json_is_key_order_invariant():
    a = canonical_json({"b": 1, "a": [1.5, {"y": 2, "x": 3}]})
    b = canonical_json({"a": [1.5, {"x": 3, "y": 2}], "b": 1})
    assert a == b
    assert sha256_hex(a.encode()) == sha256_hex(b.encode())


# ----------------------------------------------------------------------
# artifact store
# ----------------------------------------------------------------------
def test_store_roundtrip_and_dedup(tmp_path):
    store = RunStore(tmp_path)
    ref = store.put_bytes("blob.pkl", b"payload")
    again = store.put_bytes("blob.pkl", b"payload")
    assert ref == again
    assert store.get_bytes(ref) == b"payload"
    assert len(list(store.artifact_dir.iterdir())) == 1


def test_store_detects_corruption_and_quarantines(tmp_path):
    store = RunStore(tmp_path)
    ref = store.put_bytes("blob.pkl", b"payload")
    path = store._path_for(ref.hash, ref.kind)
    path.write_bytes(b"tampered")
    with pytest.raises(IntegrityError) as exc:
        store.get_bytes(ref)
    assert "quarantined" in str(exc.value)
    assert not path.exists()
    assert len(list(store.quarantine_dir.iterdir())) == 1
    # the artifact is gone, not silently recomputable
    with pytest.raises(CheckpointError):
        store.get_bytes(ref)


def test_store_missing_artifact_is_typed_and_repairable(tmp_path):
    from repro.core.exceptions import ArtifactMissingError

    store = RunStore(tmp_path)
    ref = store.put_bytes("blob.pkl", b"payload")
    store._path_for(ref.hash, ref.kind).unlink()
    with pytest.raises(ArtifactMissingError) as exc:
        store.get_bytes(ref)
    assert "scrub" in str(exc.value) and "--repair" in str(exc.value)
    assert exc.value.ref == ref
    assert store.check(ref) == "missing"


def test_store_put_bytes_self_heals_corrupt_preexisting_file(tmp_path):
    """A write that finds a same-named file with wrong bytes must not
    trust the name: verify and atomically rewrite (self-heal on write)."""
    store = RunStore(tmp_path)
    ref = store.put_bytes("blob.pkl", b"payload")
    path = store._path_for(ref.hash, ref.kind)
    path.write_bytes(b"rotted")

    again = store.put_bytes("blob.pkl", b"payload")
    assert again == ref
    assert path.read_bytes() == b"payload"
    assert store.get_bytes(ref) == b"payload"


def test_store_put_bytes_wraps_oserror_as_checkpoint_error(tmp_path):
    from repro.runs import FaultFSConfig, inject_faults

    store = RunStore(tmp_path)
    with inject_faults(FaultFSConfig.single("eio", 1.0)):
        with pytest.raises(CheckpointError) as exc:
            store.put_bytes("blob.pkl", b"payload")
    assert "artifact write failed" in str(exc.value)


def test_store_quarantine_is_idempotent_under_concurrency(tmp_path):
    """N threads racing to quarantine the same artifact: exactly one
    wins (returns the destination), the rest observe the race (None) —
    no FileNotFoundError, no double-move."""
    store = RunStore(tmp_path)
    ref = store.put_bytes("blob.pkl", b"payload")
    path = store._path_for(ref.hash, ref.kind)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads
    errors = []

    def racer(i):
        try:
            barrier.wait()
            results[i] = store.quarantine(path)
        except BaseException as exc:  # noqa: BLE001 - collected
            errors.append(exc)

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    winners = [r for r in results if r is not None]
    assert len(winners) == 1
    assert not path.exists()
    assert [p.name for p in store.quarantine_dir.iterdir()] == [winners[0].name]


def test_store_quarantine_does_not_clobber_existing_quarantined_file(tmp_path):
    store = RunStore(tmp_path)
    ref = store.put_bytes("blob.pkl", b"one")
    path = store._path_for(ref.hash, ref.kind)
    store.quarantine_dir.mkdir(parents=True, exist_ok=True)
    (store.quarantine_dir / path.name).write_bytes(b"earlier incident")

    moved = store.quarantine(path)
    assert moved is not None and moved.name != path.name
    assert (store.quarantine_dir / path.name).read_bytes() == b"earlier incident"
    assert moved.read_bytes() == b"one"


def test_store_json_envelope_roundtrip(tmp_path):
    store = RunStore(tmp_path)
    payload = {"metrics": {"auprc": 0.123456789012345}, "xs": [1, 2, 3]}
    ref = store.put_json("evaluation", payload)
    assert store.get_json(ref) == payload


def test_store_json_version_skew_rejected(tmp_path):
    store = RunStore(tmp_path)
    envelope = {"format_version": 999, "kind": "evaluation", "data": {}}
    ref = store.put_bytes(
        "evaluation", json.dumps(envelope, separators=(",", ":")).encode()
    )
    with pytest.raises(IntegrityError) as exc:
        store.get_json(ref)
    assert "format version" in str(exc.value)


def test_store_json_kind_mismatch_rejected(tmp_path):
    store = RunStore(tmp_path)
    ref = store.put_json("feature_table", {"rows": []})
    wrong = ArtifactRef(hash=ref.hash, kind="fusion_model", size=ref.size)
    with pytest.raises(IntegrityError):
        store.get_json(wrong)


def test_store_non_json_content_quarantined(tmp_path):
    store = RunStore(tmp_path)
    ref = store.put_bytes("evaluation", b"\x80 not json at all")
    with pytest.raises(IntegrityError) as exc:
        store.get_json(ref)
    assert exc.value.quarantined is not None


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def test_manifest_roundtrip(tmp_path):
    manifest = RunManifest.create(tmp_path, {"task": "CT1", "seed": 7})
    fp = stage_fingerprint({"task": "CT1"}, "curate", {"seed": 7})
    ref = ArtifactRef(hash="ab" * 32, kind="curation_result", size=10)
    manifest.record_stage("curate", fp, {"seed": 7}, {"curation": ref}, 1.5)

    loaded = RunManifest.load(tmp_path)
    assert loaded.context == {"task": "CT1", "seed": 7}
    record = loaded.completed("curate", fp)
    assert record is not None
    assert record.artifacts["curation"] == ref
    assert loaded.completed("curate", "deadbeef") is None
    assert loaded.completed("train", fp) is None


def test_manifest_truncated_json_raises_integrity_error(tmp_path):
    RunManifest.create(tmp_path, {})
    path = tmp_path / RunManifest.FILENAME
    path.write_text(path.read_text()[:20])
    with pytest.raises(IntegrityError):
        RunManifest.load(tmp_path)


def test_manifest_version_skew_raises_integrity_error(tmp_path):
    RunManifest.create(tmp_path, {})
    path = tmp_path / RunManifest.FILENAME
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError) as exc:
        RunManifest.load(tmp_path)
    assert "format version" in str(exc.value)


def test_fingerprint_sensitive_to_every_part():
    base = stage_fingerprint({"task": "CT1"}, "curate", {"seed": 7})
    assert base != stage_fingerprint({"task": "CT2"}, "curate", {"seed": 7})
    assert base != stage_fingerprint({"task": "CT1"}, "train", {"seed": 7})
    assert base != stage_fingerprint({"task": "CT1"}, "curate", {"seed": 8})
    assert base == stage_fingerprint({"task": "CT1"}, "curate", {"seed": 7})


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
def test_lf_codec_roundtrips_exactly(tiny_curation, tiny_text_table):
    rows = list(tiny_text_table.select_rows(np.arange(50)).iter_rows())
    for lf in tiny_curation.lfs[:10]:
        restored = codecs.decode_lf(codecs.encode_lf(lf))
        assert restored.name == lf.name
        assert restored.origin == lf.origin
        assert restored.recipe == lf.recipe
        assert [lf(row) for row in rows] == [restored(row) for row in rows]


def test_lf_without_recipe_rejected():
    from repro.labeling.lf import LabelingFunction

    lf = LabelingFunction(name="expert", fn=lambda row: 1, origin="expert")
    with pytest.raises(CheckpointError) as exc:
        codecs.encode_lf(lf)
    assert "recipe" in str(exc.value)


def test_label_matrix_codec_roundtrip(tiny_curation):
    matrix = tiny_curation.label_matrix
    restored = codecs.decode_label_matrix(codecs.encode_label_matrix(matrix))
    assert np.array_equal(restored.votes, matrix.votes)
    assert [lf.name for lf in restored.lfs] == [lf.name for lf in matrix.lfs]


def test_curation_codec_roundtrip_bit_exact(tiny_curation):
    restored = codecs.decode_curation(codecs.encode_curation(tiny_curation))
    assert np.array_equal(
        restored.probabilistic_labels, tiny_curation.probabilistic_labels
    )
    assert restored.class_balance == tiny_curation.class_balance
    if tiny_curation.label_model is not None:
        assert np.array_equal(
            restored.label_model.conditionals_,
            tiny_curation.label_model.conditionals_,
        )
    if tiny_curation.dev_quality is not None:
        assert restored.dev_quality.f1 == tiny_curation.dev_quality.f1


def test_model_codec_scores_bit_exact(
    tiny_pipeline, tiny_text_table, tiny_curation, tiny_test_table
):
    model = tiny_pipeline.train(tiny_text_table, tiny_curation)
    restored = codecs.decode_model(codecs.encode_model(model))
    metrics, scores = tiny_pipeline.evaluate(model, tiny_test_table)
    metrics2, scores2 = tiny_pipeline.evaluate(restored, tiny_test_table)
    assert metrics == metrics2
    assert np.array_equal(scores, scores2)


def test_restored_model_cannot_refit(
    tiny_pipeline, tiny_text_table, tiny_curation
):
    model = tiny_pipeline.train(tiny_text_table, tiny_curation)
    restored = codecs.decode_model(codecs.encode_model(model))
    with pytest.raises(CheckpointError):
        restored.model_factory()


def test_evaluation_codec_roundtrip():
    metrics = {"auprc": 1 / 3, "f1@0.5": 0.1234567890123456789}
    scores = np.array([0.1, 0.2, 1 / 7])
    m2, s2 = codecs.decode_evaluation(codecs.encode_evaluation(metrics, scores))
    assert m2 == metrics
    assert np.array_equal(s2, scores)


# ----------------------------------------------------------------------
# run checkpointer
# ----------------------------------------------------------------------
def _stage_args(value):
    return {
        "compute": lambda: value,
        "encode": lambda v: {"out": ("evaluation", {"v": v})},
        "decode": lambda payloads: payloads["out"]["v"],
    }


def test_checkpointer_skips_on_matching_fingerprint(tmp_path):
    run_dir = tmp_path / "run"
    ck = RunCheckpointer(run_dir, context={"seed": 7})
    first = ck.stage("s", config={"k": 1}, **_stage_args(41))
    assert not first.reused and first.value == 41

    ck2 = RunCheckpointer(run_dir, context={"seed": 7}, resume=True)
    calls = []
    second = ck2.stage(
        "s",
        config={"k": 1},
        compute=lambda: calls.append(1) or 99,
        encode=lambda v: {"out": ("evaluation", {"v": v})},
        decode=lambda payloads: payloads["out"]["v"],
    )
    assert second.reused and second.value == 41 and not calls
    assert ck2.reused_stages == ["s"]


def test_checkpointer_recomputes_on_config_change(tmp_path):
    run_dir = tmp_path / "run"
    RunCheckpointer(run_dir, context={}).stage("s", config={"k": 1}, **_stage_args(41))
    ck = RunCheckpointer(run_dir, context={}, resume=True)
    outcome = ck.stage("s", config={"k": 2}, **_stage_args(42))
    assert not outcome.reused and outcome.value == 42


def test_checkpointer_requires_resume_flag(tmp_path):
    run_dir = tmp_path / "run"
    RunCheckpointer(run_dir, context={})
    with pytest.raises(CheckpointError) as exc:
        RunCheckpointer(run_dir, context={})
    assert "--resume" in str(exc.value)


def test_checkpointer_refuses_context_mismatch(tmp_path):
    run_dir = tmp_path / "run"
    RunCheckpointer(run_dir, context={"seed": 7})
    with pytest.raises(CheckpointError) as exc:
        RunCheckpointer(run_dir, context={"seed": 8}, resume=True)
    assert "refusing to resume" in str(exc.value)


def test_checkpointer_corrupt_artifact_fails_loudly_on_resume(tmp_path):
    run_dir = tmp_path / "run"
    ck = RunCheckpointer(run_dir, context={})
    outcome = ck.stage("s", config={}, **_stage_args([1, 2, 3]))
    ref = outcome.record.artifacts["out"]
    path = ck.store._path_for(ref.hash, ref.kind)
    path.write_bytes(b"garbage")

    ck2 = RunCheckpointer(run_dir, context={}, resume=True)
    with pytest.raises(IntegrityError):
        ck2.stage("s", config={}, **_stage_args([1, 2, 3]))
    assert len(list(ck2.store.quarantine_dir.iterdir())) == 1


# ----------------------------------------------------------------------
# progress manifest
# ----------------------------------------------------------------------
def test_progress_manifest_roundtrip(tmp_path):
    path = tmp_path / "progress.json"
    manifest = ProgressManifest(path, job_key="job-a")
    assert manifest.get(0) is None
    manifest.save(0, {"rows": "r0"})
    manifest.save(3, {"rows": "r3"})
    assert manifest.completed() == [0, 3]

    reopened = ProgressManifest(path, job_key="job-a")
    assert reopened.get(0) == {"rows": "r0"}
    assert reopened.get(1) is None
    assert reopened.completed() == [0, 3]


def test_progress_manifest_concurrent_saves_lose_no_entry(tmp_path):
    """Units complete on worker threads at the same moment; a save that
    renames a stale snapshot over a newer one would drop an index from
    the file."""
    import sys

    n_threads = 12
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(10):
            path = tmp_path / f"progress-{attempt}.json"
            manifest = ProgressManifest(path, job_key="job-a")
            barrier = threading.Barrier(n_threads)

            def saver(index: int) -> None:
                barrier.wait(timeout=30)
                manifest.save(index, {"unit": index})

            threads = [
                threading.Thread(target=saver, args=(i,)) for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            expected = list(range(n_threads))
            assert manifest.completed() == expected
            assert ProgressManifest(path, job_key="job-a").completed() == expected
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# concurrent writers (the multi-tenant sharing contract)
# ----------------------------------------------------------------------
def test_store_concurrent_identical_writers_collapse_to_one_artifact(tmp_path):
    """N threads racing to store the same payload must agree on one ref
    and leave exactly one artifact on disk (atomic-rename dedup)."""
    store = RunStore(tmp_path)
    payload = {"metrics": {"auprc": 0.42}, "rows": list(range(50))}
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    refs = [None] * n_threads
    errors = []

    def writer(i):
        try:
            barrier.wait()
            refs[i] = store.put_json("evaluation", payload)
        except BaseException as exc:  # noqa: BLE001 - collected
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len({r.hash for r in refs}) == 1
    assert len(list(store.artifact_dir.iterdir())) == 1
    assert store.get_json(refs[0]) == payload


def test_store_same_key_different_bytes_is_integrity_error(tmp_path):
    """An artifact file whose bytes no longer hash to its key — e.g. a
    broken writer swapping contents under an existing name — must fail
    loudly and quarantine, never serve the wrong bytes."""
    store = RunStore(tmp_path)
    ref_a = store.put_json("evaluation", {"v": "a"})
    ref_b = store.put_json("evaluation", {"v": "b"})
    path_a = store._path_for(ref_a.hash, ref_a.kind)
    path_b = store._path_for(ref_b.hash, ref_b.kind)
    # plant b's (well-formed) bytes under a's content-hash key
    path_a.write_bytes(path_b.read_bytes())
    with pytest.raises(IntegrityError) as exc:
        store.get_json(ref_a)
    assert "quarantined" in str(exc.value)
    assert not path_a.exists()
    # the untampered artifact is unaffected
    assert store.get_json(ref_b) == {"v": "b"}


def test_concurrent_checkpointers_single_flight_dedup(tmp_path):
    """Two runs sharing a store + deduper hit the same stage fingerprint
    concurrently: exactly one computes, the other decodes its artifacts
    and reports deduped=True with an equal value."""
    from repro.scheduler import StageDeduper

    store = RunStore(tmp_path / "store")
    deduper = StageDeduper()
    computed = []

    def make_stage_args():
        def compute():
            time.sleep(0.1)  # hold the flight open so the other run joins it
            computed.append(1)
            return {"v": 41}

        return {
            "compute": compute,
            "encode": lambda v: {"out": ("evaluation", v)},
            "decode": lambda payloads: payloads["out"],
        }

    outcomes = [None, None]
    barrier = threading.Barrier(2)
    errors = []

    def run_one(i):
        try:
            ck = RunCheckpointer(
                tmp_path / f"run{i}", context={"seed": 7},
                store=store, deduper=deduper,
            )
            barrier.wait()
            outcomes[i] = (ck, ck.stage("s", config={"k": 1}, **make_stage_args()))
        except BaseException as exc:  # noqa: BLE001 - collected
            errors.append(exc)

    threads = [threading.Thread(target=run_one, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(computed) == 1
    (ck0, out0), (ck1, out1) = outcomes
    assert out0.value == out1.value == {"v": 41}
    assert {out0.deduped, out1.deduped} == {False, True}
    assert out0.record.fingerprint == out1.record.fingerprint
    assert out0.artifact_hashes == out1.artifact_hashes
    hit_ck = ck1 if out1.deduped else ck0
    assert hit_ck.deduped_stages == ["s"]
    assert deduper.stats() == {"hits": 1, "misses": 1}
    # both manifests recorded the stage durably (dedup is not a skip)
    for ck in (ck0, ck1):
        assert ck.manifest.completed("s", out0.record.fingerprint) is not None


def test_concurrent_checkpointers_different_fingerprints_never_collide(tmp_path):
    from repro.scheduler import StageDeduper

    store = RunStore(tmp_path / "store")
    deduper = StageDeduper()

    def stage_args(value):
        return {
            "compute": lambda: {"v": value},
            "encode": lambda v: {"out": ("evaluation", v)},
            "decode": lambda payloads: payloads["out"],
        }

    ck0 = RunCheckpointer(tmp_path / "a", context={"seed": 7},
                          store=store, deduper=deduper)
    ck1 = RunCheckpointer(tmp_path / "b", context={"seed": 7},
                          store=store, deduper=deduper)
    out0 = ck0.stage("s", config={"k": 1}, **stage_args(1))
    out1 = ck1.stage("s", config={"k": 2}, **stage_args(2))
    assert not out0.deduped and not out1.deduped
    assert out0.value != out1.value
    assert out0.record.fingerprint != out1.record.fingerprint
    assert deduper.stats() == {"hits": 0, "misses": 2}
