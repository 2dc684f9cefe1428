"""Self-tests of the benchmark (not part of the repo's tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench/tests -q

The subprocess tests run ``run.py --tiny``: every workload at the
generator's smallest sizes, in about ten seconds each.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.fixture(scope="module")
def tiny_runs() -> dict[tuple[str, int], subprocess.CompletedProcess]:
    return {
        (w["name"], trace): run_bench(
            "--workload", w["name"], "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny",
        )
        for w in SPEC["workloads"]
        for trace in (0, 1)
    }


def test_spec_names_and_units_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(worker.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(worker.PER_LAYER)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_pass_emits_every_metric_with_its_unit(tiny_runs, workload, trace):
    proc = tiny_runs[(workload, trace)]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert "latency samples" in proc.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_leaf_layer_times_fit_inside_traced_adapt(tmp_path):
    w = wl.tiny(wl.WORKLOADS["adapt_ckpt"])
    tracer = tracing.Tracer()
    tracing.install_layer_wrappers(tracer)
    try:
        inputs = wl.build_inputs(w)
        seconds, _ = wl.adapt(w, inputs, tmp_path / "run")
    finally:
        tracer.uninstall()
    root = tracer.roots("core.run")[-1]
    inner = tracer.subtree(root)[1:]
    leaves = sum(span.self_s for span in inner)
    assert 0 < leaves <= tracer.spans[root].duration <= seconds
    names = {span.name for span in inner}
    assert {"resources.featurize", "shards.featurize_sharded", "propagation.graph",
            "labeling.em_fit", "models.train", "runs.put"} <= names
    assert tracing.wrapped_targets() == []


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    def refuse(tracer):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(tracing, "install_layer_wrappers", refuse)
    w = wl.tiny(wl.WORKLOADS["serve_chaos"])
    out = wl.measure(w, 1, 3, tmp_path, tampered=False)
    assert not out.failures
    assert tracing.wrapped_targets() == []


def test_traced_run_restores_every_original(tmp_path):
    w = wl.tiny(wl.WORKLOADS["adapt_exact"])
    host = {"calib_s": 0.1, "nproc": 2, "blas_threads": 1}
    out, metrics = worker.measure_traced(w, 1, 3, tmp_path, False, host)
    assert not out.failures
    assert tracing.wrapped_targets() == []
    assert metrics["core.unattributed_s"] >= 0
    assert metrics["serving.samples"] > 0


def test_tampered_reference_decision_fails_the_command():
    proc = run_bench(
        "--workload", "serve_chaos", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--tiny", "--tamper-reference",
    )
    assert proc.returncode == 1
    assert "CHECK FAILED" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_fails_without_a_result_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "adapt_exact", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
