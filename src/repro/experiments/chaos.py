"""Chaos experiments — fault injection against the running pipeline.

Two fault models against the same pipeline:

* :func:`run_chaos` — *service* faults: every organizational resource
  is wrapped in a fault-injecting :class:`ServiceClient`, the full
  pipeline runs under a retry+fallback :class:`ResiliencePolicy`, and
  we sweep per-call availability.  The claim under test: AUPRC declines
  smoothly with availability rather than falling off a cliff, because
  retries recover most transient faults and exhausted calls degrade to
  the MISSING semantics the models already tolerate.

* :func:`run_crash_resume` — *process* faults: a checkpointed
  end-to-end run is killed (``os._exit``, no cleanup) at every stage
  boundary in turn, resumed with ``--resume``, and the resumed result
  is compared bit-for-bit against an uninterrupted baseline.  The claim
  under test: the :mod:`repro.runs` checkpoint layer makes a resumed
  run indistinguishable from one that never crashed.

    python -m repro.experiments chaos --scale 0.3 --seed 1
    python -m repro.experiments crash --scale 0.15 --seed 1
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.core.exceptions import CheckpointError
from repro.core.rng import derive_seed
from repro.runs.crash import CRASH_AT_ENV, CRASH_EXIT_CODE
from repro.runs.store import run_directory
from repro.experiments.common import ExperimentContext
from repro.experiments.reporting import no_cliff, render_bars, render_table
from repro.obs.bench import BenchArtifact, bench_dir
from repro.resilience import (
    FallbackChain,
    FaultInjector,
    FaultSpec,
    ResiliencePolicy,
    RetryConfig,
    build_substitute_map,
)
from repro.resources.featurize import featurize_corpus

__all__ = [
    "ChaosResult",
    "CrashResumeResult",
    "run_chaos",
    "run_crash_resume",
    "DEFAULT_AVAILABILITIES",
]

DEFAULT_AVAILABILITIES: tuple[float, ...] = (1.0, 0.9, 0.75, 0.5)


@dataclass
class ChaosResult:
    """End-task quality and degradation stats per availability level."""

    availabilities: list[float]
    auprcs: list[float]
    degraded_fractions: list[float]
    missing_fractions: list[float]
    retries: list[int]
    fallbacks: list[int]
    scale: float
    seed: int
    health_renders: list[str] = field(default_factory=list)

    def gates(self) -> dict[str, bool]:
        return {"graceful": no_cliff(dict(zip(self.availabilities, self.auprcs)))}

    def render(self) -> str:
        rows = []
        for i, availability in enumerate(self.availabilities):
            rows.append(
                [
                    availability,
                    round(self.auprcs[i], 3),
                    f"{self.degraded_fractions[i]:.1%}",
                    f"{self.missing_fractions[i]:.1%}",
                    self.retries[i],
                    self.fallbacks[i],
                ]
            )
        table = render_table(
            ["Availability", "AUPRC", "degraded", "missing", "retries",
             "fallbacks"],
            rows,
            title=(
                f"Chaos sweep — CT1 end-task AUPRC vs service availability "
                f"(scale={self.scale}, seed={self.seed})"
            ),
        )
        bars = render_bars(
            [f"avail {a:.2f}" for a in self.availabilities],
            self.auprcs,
            title="(AUPRC per availability level — graceful means no cliff)",
        )
        return table + "\n\n" + bars


def _chaos_policy(
    wrapped, seed: int, max_attempts: int = 3
) -> ResiliencePolicy:
    """Retry+fallback policy over the wrapped (faulty) service suite.

    Substitutes come from the wrapped clients themselves, so a fallback
    dial can fail too — fault cascades fall through toward MISSING.
    """
    return ResiliencePolicy(
        retry=RetryConfig(max_attempts=max_attempts),
        fallback=FallbackChain(substitutes=build_substitute_map(wrapped)),
        seed=derive_seed(seed, "chaos-policy"),
    )


def run_chaos(
    scale: float = 0.3,
    seed: int = 1,
    availabilities: tuple[float, ...] = DEFAULT_AVAILABILITIES,
    n_model_seeds: int = 2,
    ctx: ExperimentContext | None = None,
    out_dir: str | None = None,
) -> ChaosResult:
    """Sweep service availability; run the full pipeline at each level.

    ``availability`` is the per-call success probability: each service
    call fails transiently with probability ``1 - availability`` (fresh
    draw per retry, deterministic per seed).  Featurization uses the
    same seed the context's pipeline uses, so the 1.0 level reproduces
    the fault-free tables bit-for-bit.

    Writes ``BENCH_chaos.json`` — per-level quality plus the resilience
    control-plane counters (retries, fallbacks) —
    into ``$REPRO_BENCH_DIR``, else ``out_dir``, else nowhere
    (:func:`repro.obs.bench.bench_dir`).
    """
    if ctx is None:
        ctx = ExperimentContext(task_name="CT1", scale=scale, seed=seed)
    pipeline = ctx.pipeline
    feat_seed = derive_seed(pipeline.config.seed, "featurize")
    resources = list(ctx.catalog)

    auprcs: list[float] = []
    degraded: list[float] = []
    missing: list[float] = []
    retries: list[int] = []
    fallbacks: list[int] = []
    health_renders: list[str] = []

    for availability in availabilities:
        fault_rate = 1.0 - availability
        injector = FaultInjector(
            FaultSpec(transient_rate=fault_rate),
            seed=derive_seed(seed, f"chaos-faults-{availability}"),
        )
        wrapped = injector.wrap_all(resources)
        policy = _chaos_policy(wrapped, seed)

        tables = {}
        for name, corpus, labeled in (
            ("text", ctx.splits.text_labeled, True),
            ("image", ctx.splits.image_unlabeled, False),
            ("test", ctx.splits.image_test, True),
        ):
            tables[name] = featurize_corpus(
                corpus,
                wrapped,
                seed=feat_seed,
                include_labels=labeled,
                policy=policy,
                executor=pipeline.executor,
            )

        curation = pipeline.curate(tables["text"], tables["image"])
        scores = []
        for i in range(n_model_seeds):
            model = pipeline.train(
                tables["text"], curation, seed_tag=f"chaos-model-{i}"
            )
            metrics, _ = pipeline.evaluate(model, tables["test"])
            scores.append(metrics["auprc"])
        auprcs.append(float(np.mean(scores)))

        reports = [tables[n].degradation for n in ("text", "image", "test")]
        n_cells = sum(r.n_cells for r in reports)
        degraded.append(sum(r.n_degraded for r in reports) / max(n_cells, 1))
        missing.append(sum(r.n_missing for r in reports) / max(n_cells, 1))
        retries.append(sum(r.total_retries for r in reports))
        fallbacks.append(sum(r.n_degraded for r in reports))
        health_renders.append(policy.health_report().render())

    result = ChaosResult(
        availabilities=list(availabilities),
        auprcs=auprcs,
        degraded_fractions=degraded,
        missing_fractions=missing,
        retries=retries,
        fallbacks=fallbacks,
        scale=ctx.scale,
        seed=seed,
        health_renders=health_renders,
    )
    directory = bench_dir(out_dir)
    if directory:
        artifact = BenchArtifact("chaos", scale=ctx.scale, seed=seed)
        artifact.record(
            availabilities=result.availabilities,
            auprcs=[round(a, 4) for a in result.auprcs],
            degraded_fractions=[round(f, 4) for f in result.degraded_fractions],
            missing_fractions=[round(f, 4) for f in result.missing_fractions],
            retries=result.retries,
            fallbacks=result.fallbacks,
            graceful=result.gates()["graceful"],
        )
        artifact.write(directory)
    return result


# --------------------------------------------------------------------------
# crash/resume harness
# --------------------------------------------------------------------------

#: the durable boundaries a pipeline run crosses, in order
STAGE_BOUNDARIES: tuple[str, ...] = (
    "stage:featurize",
    "stage:curate",
    "stage:train",
    "stage:evaluate",
)


@dataclass
class KillPoint:
    """Outcome of one kill-and-resume cycle."""

    boundary: str
    crash_exit: int
    resumed_stages: list[str]
    metrics_match: bool


@dataclass
class CrashResumeResult:
    """Proof (or refutation) of the resume guarantee, per kill point."""

    task: str
    scale: float
    seed: int
    baseline_metrics: dict[str, float]
    kills: list[KillPoint]
    corruption_detected: bool
    quarantined_files: int
    #: where the runs were kept (None: a removed temporary directory)
    run_dir: str | None

    def gates(self) -> dict[str, bool]:
        return {
            "crash_safe": all(
                k.crash_exit == CRASH_EXIT_CODE and k.metrics_match
                for k in self.kills
            ),
            "corruption_detected": self.corruption_detected,
        }

    def render(self) -> str:
        rows = []
        for k in self.kills:
            rows.append(
                [
                    k.boundary,
                    k.crash_exit,
                    ", ".join(k.resumed_stages) or "-",
                    "bit-identical" if k.metrics_match else "MISMATCH",
                ]
            )
        table = render_table(
            ["kill at boundary", "exit", "stages replayed on resume", "metrics"],
            rows,
            title=(
                f"Crash/resume — {self.task} kill-and-resume at every stage "
                f"boundary (scale={self.scale}, seed={self.seed})"
            ),
        )
        return (
            f"{table}\n\ncorruption probe: {self.quarantined_files} "
            f"file(s) in quarantine/"
        )


def _end_to_end_argv(
    task: str, scale: float, seed: int, run_dir: Path, resume: bool
) -> list[str]:
    argv = [
        sys.executable, "-m", "repro.experiments", "end_to_end",
        "--tasks", task, "--scale", str(scale), "--seed", str(seed),
        "--run-dir", str(run_dir),
    ]
    if resume:
        argv.append("--resume")
    return argv


def _subprocess_env(crash_at: str | None = None) -> dict[str, str]:
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    env.pop(CRASH_AT_ENV, None)
    env.pop("REPRO_CRASH_MODE", None)
    if crash_at is not None:
        env[CRASH_AT_ENV] = crash_at
    return env


def run_crash_resume(
    task: str = "CT1",
    scale: float = 0.15,
    seed: int = 1,
    boundaries: tuple[str, ...] = STAGE_BOUNDARIES,
    keep_dir: str | None = None,
    timeout: float = 600.0,
) -> CrashResumeResult:
    """Kill a checkpointed run at each boundary; prove resume is exact.

    For every boundary: a fresh subprocess runs the checkpointed
    end-to-end experiment with ``REPRO_CRASH_AT`` targeting that
    boundary, which ``os._exit``\\ s the process the instant the
    boundary's durable state hits disk (exit status
    ``CRASH_EXIT_CODE``).  A second subprocess resumes the same run
    directory and must produce metrics bit-identical to an
    uninterrupted baseline.  Finally one artifact of the baseline run
    is corrupted in place and a resume attempted — the store must
    detect the hash mismatch, quarantine the file, and fail loudly
    rather than silently recompute.

    ``keep_dir`` preserves the run directories (the CI smoke job
    uploads the baseline manifest from there); by default they go to a
    temporary directory that is removed on return.
    """
    with run_directory(keep_dir or None, "crash-resume-") as root:
        root.mkdir(parents=True, exist_ok=True)

        baseline_dir = root / "baseline"
        proc = subprocess.run(
            _end_to_end_argv(task, scale, seed, baseline_dir, resume=False),
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise CheckpointError(
                f"baseline run failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}"
            )
        baseline = json.loads((baseline_dir / "result.json").read_text(encoding="utf-8"))

        kills: list[KillPoint] = []
        for boundary in boundaries:
            run_dir = root / boundary.replace(":", "-")
            crashed = subprocess.run(
                _end_to_end_argv(task, scale, seed, run_dir, resume=False),
                env=_subprocess_env(crash_at=boundary),
                capture_output=True,
                text=True,
                timeout=timeout,
            )
            resumed = subprocess.run(
                _end_to_end_argv(task, scale, seed, run_dir, resume=True),
                env=_subprocess_env(),
                capture_output=True,
                text=True,
                timeout=timeout,
            )
            if resumed.returncode != 0:
                raise CheckpointError(
                    f"resume after kill at {boundary!r} failed "
                    f"(exit {resumed.returncode}):\n{resumed.stderr[-2000:]}"
                )
            result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
            kills.append(
                KillPoint(
                    boundary=boundary,
                    crash_exit=crashed.returncode,
                    resumed_stages=list(result["resumed_stages"]),
                    metrics_match=result["metrics"] == baseline["metrics"],
                )
            )

        # corruption probe: flip bytes in one baseline artifact, then resume
        artifacts = sorted((baseline_dir / "artifacts").iterdir())
        victim = artifacts[0]
        victim.write_bytes(b"corrupted" + victim.read_bytes()[9:])
        corrupted = subprocess.run(
            _end_to_end_argv(task, scale, seed, baseline_dir, resume=True),
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        quarantine = baseline_dir / "quarantine"
        quarantined = len(list(quarantine.iterdir())) if quarantine.exists() else 0
        corruption_detected = (
            corrupted.returncode != 0
            and "IntegrityError" in corrupted.stderr
            and quarantined > 0
        )

        return CrashResumeResult(
            task=task,
            scale=scale,
            seed=seed,
            baseline_metrics=baseline["metrics"],
            kills=kills,
            corruption_detected=corruption_detected,
            quarantined_files=quarantined,
            run_dir=keep_dir or None,
        )
