"""Crash/resume property tests: kill the pipeline at every checkpoint
boundary, resume, and demand the result be bit-identical to an
uninterrupted run.

Kills use ``REPRO_CRASH_MODE=raise`` (a :class:`SimulatedCrashError` at
the boundary instead of ``os._exit``), which exercises the same durable
state without subprocess cost; the subprocess ``os._exit`` path is
covered by ``python -m repro.experiments crash`` in CI.
"""

import numpy as np
import pytest

from repro.core.config import CurationConfig, PipelineConfig
from repro.core.exceptions import SimulatedCrashError
from repro.core.pipeline import CrossModalPipeline
from repro.exec import ExecutorConfig
from repro.runs import RunCheckpointer
from repro.runs.crash import CRASH_AT_ENV, CRASH_MODE_ENV

STAGES = ("featurize", "curate", "train", "evaluate")


@pytest.fixture(scope="module")
def baseline(tiny_pipeline, tiny_splits):
    """An uninterrupted, uncheckpointed run — the ground truth."""
    return tiny_pipeline.run(tiny_splits)


def _checkpointer(run_dir, resume=False):
    return RunCheckpointer(run_dir, context={"task": "CT1"}, resume=resume)


@pytest.mark.parametrize("kill_stage", STAGES)
def test_kill_at_every_stage_resumes_bit_identical(
    kill_stage, tiny_pipeline, tiny_splits, baseline, tmp_path, monkeypatch
):
    run_dir = tmp_path / "run"
    monkeypatch.setenv(CRASH_MODE_ENV, "raise")
    monkeypatch.setenv(CRASH_AT_ENV, f"stage:{kill_stage}")
    with pytest.raises(SimulatedCrashError):
        tiny_pipeline.run(tiny_splits, checkpoint=_checkpointer(run_dir))

    monkeypatch.delenv(CRASH_AT_ENV)
    resumed = tiny_pipeline.run(
        tiny_splits, checkpoint=_checkpointer(run_dir, resume=True)
    )
    # exactly the stages completed before the kill are replayed ...
    assert resumed.resumed_stages == list(STAGES[: STAGES.index(kill_stage) + 1])
    # ... and the result is indistinguishable from never crashing
    assert resumed.metrics == baseline.metrics
    assert np.array_equal(resumed.test_scores, baseline.test_scores)
    assert np.array_equal(
        resumed.curation.probabilistic_labels,
        baseline.curation.probabilistic_labels,
    )


def test_checkpointed_run_matches_plain_run(
    tiny_pipeline, tiny_splits, baseline, tmp_path
):
    """Checkpointing itself must not perturb the computation."""
    result = tiny_pipeline.run(
        tiny_splits, checkpoint=_checkpointer(tmp_path / "run")
    )
    assert result.resumed_stages == []
    assert result.metrics == baseline.metrics
    assert np.array_equal(result.test_scores, baseline.test_scores)


def test_full_resume_replays_all_stages(
    tiny_pipeline, tiny_splits, baseline, tmp_path
):
    run_dir = tmp_path / "run"
    tiny_pipeline.run(tiny_splits, checkpoint=_checkpointer(run_dir))
    resumed = tiny_pipeline.run(
        tiny_splits, checkpoint=_checkpointer(run_dir, resume=True)
    )
    assert resumed.resumed_stages == list(STAGES)
    assert resumed.metrics == baseline.metrics
    assert np.array_equal(resumed.test_scores, baseline.test_scores)


def test_process_backend_crash_resumes_on_serial_bit_identical(
    tiny_world, tiny_task, tiny_catalog, tiny_splits, baseline, tmp_path,
    monkeypatch,
):
    """Kill a process-backend pipeline run at a stage boundary, resume
    on the serial backend: stage fingerprints exclude the backend (all
    backends produce byte-identical artifacts), so the interrupted
    stage replays and the final result matches an uninterrupted,
    uncheckpointed serial run."""

    def pipeline_with(executor):
        config = PipelineConfig(
            seed=7,
            curation=CurationConfig(max_seed_nodes=600, max_dev_nodes=300),
            executor=executor,
        )
        return CrossModalPipeline(tiny_world, tiny_task, tiny_catalog, config)

    run_dir = tmp_path / "run"
    monkeypatch.setenv(CRASH_MODE_ENV, "raise")
    monkeypatch.setenv(CRASH_AT_ENV, "stage:curate")
    with pytest.raises(SimulatedCrashError):
        pipeline_with(ExecutorConfig(backend="process", workers=2)).run(
            tiny_splits, checkpoint=_checkpointer(run_dir)
        )

    monkeypatch.delenv(CRASH_AT_ENV)
    resumed = pipeline_with(ExecutorConfig()).run(
        tiny_splits, checkpoint=_checkpointer(run_dir, resume=True)
    )
    assert resumed.resumed_stages == ["featurize", "curate"]
    assert resumed.metrics == baseline.metrics
    assert np.array_equal(resumed.test_scores, baseline.test_scores)
