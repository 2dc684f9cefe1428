"""Tests for the experiments CLI (python -m repro.experiments)."""

from dataclasses import replace

import pytest

from repro.experiments.__main__ import main


def test_table1_via_cli(capsys):
    code = main(["table1", "--scale", "0.05", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "CT5" in out
    assert "[table1:" in out


def test_task_subset_via_cli(capsys):
    code = main([
        "table3", "--scale", "0.05", "--seed", "3",
        "--model-seeds", "1", "--tasks", "CT1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "CT1" in out
    assert "CT2" not in out  # only the requested task ran


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["tableX"])


def test_scaling_via_cli(tmp_path, capsys):
    import json

    code = main([
        "scaling", "--sizes", "80", "160", "--graph-backend", "lsh",
        "--seed", "3", "--run-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Graph scaling" in out
    assert "lsh" in out
    data = json.loads((tmp_path / "BENCH_scaling.json").read_text())
    assert data["kind"] == "bench"
    metrics = data["metrics"]
    assert metrics["sizes"] == [80, 160]
    assert metrics["backends"] == ["lsh"]
    assert "build_lsh_n160" in data["timings"]
    assert 0.0 <= metrics["recall_lsh_n160"] <= 1.0


def test_scaling_rejects_unknown_graph_backend():
    with pytest.raises(SystemExit):
        main(["scaling", "--graph-backend", "annoy"])


def test_trace_flag_writes_trace_json(tmp_path, capsys):
    import json

    import repro.obs as obs

    trace_path = str(tmp_path / "trace.json")
    code = main(["table1", "--scale", "0.05", "--seed", "3",
                 "--trace", trace_path, "--profile"])
    assert code == 0
    assert not obs.enabled()  # tracer torn down after the run
    out = capsys.readouterr().out
    assert "trace 'experiments'" in out  # --profile summary printed
    data = json.loads(open(trace_path, encoding="utf-8").read())
    assert data["kind"] == "trace"
    names = [c["name"] for c in data["trace"]["children"]]
    assert names == ["experiment.table1"]


# ---------------------------------------------------------------------------
# numeric-argument validation: typo'd sweeps must fail in milliseconds
# with a one-line error, not after the first expensive cell
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["table1", "--scale", "-1"], "--scale must be > 0"),
        (["table1", "--scale", "0"], "--scale must be > 0"),
        (["table3", "--model-seeds", "0"], "--model-seeds must be >= 1"),
        (["chaos", "--workers", "0"], "--workers must be >= 1"),
        (["serve", "--requests", "0"], "--requests must be >= 1"),
        (["serve", "--clients", "4", "0"], "--clients values must be >= 1"),
        (["scaling", "--sizes", "-5"], "--sizes values must be >= 1"),
        (["multitenant", "--tenants", "-3"], "--tenants values must be >= 1"),
        (
            ["multitenant", "--rate-limits", "-1"],
            "--rate-limits values must be >= 0",
        ),
        (
            ["serve", "--availabilities", "1.5"],
            "--availabilities values must be in (0, 1]",
        ),
        (
            ["chaos", "--availabilities", "0"],
            "--availabilities values must be in (0, 1]",
        ),
    ],
)
def test_invalid_numeric_args_rejected(argv, fragment, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert fragment in capsys.readouterr().err


def test_serve_via_cli(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    code = main([
        "serve", "--scale", "0.05", "--seed", "3",
        "--availabilities", "1.0", "0.5", "--clients", "1",
        "--requests", "20", "--run-dir", str(tmp_path / "run"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Serving under chaos" in out
    assert "gate=identity_ok [OK]\n" in out
    assert "gate=graceful [OK]\n" in out
    # the batch run serve deploys is one of its steps, not an
    # end_to_end experiment: only BENCH_serving.json is written
    assert (tmp_path / "BENCH_serving.json").is_file()
    assert not list(tmp_path.rglob("BENCH_end_to_end.json"))
    data = json.loads((tmp_path / "BENCH_serving.json").read_text())
    assert data["kind"] == "bench"
    metrics = data["metrics"]
    assert metrics["identity_ok"] is True
    assert metrics["graceful"] is True
    assert len(metrics["cells"]) == 2  # 2 availabilities x 1 client count
    for cell in metrics["cells"]:
        assert cell["identical"] is True
        assert cell["qps"] > 0


# ---------------------------------------------------------------------------
# gate contract: every gated experiment prints one gate=<name> line per
# gate and the command exits 1 iff one of them failed
# ---------------------------------------------------------------------------
def _chaos_result(fail):
    from repro.experiments.chaos import ChaosResult

    return ChaosResult(
        availabilities=[1.0, 0.5],
        auprcs=[0.4, 0.1 if fail == "graceful" else 0.3],
        degraded_fractions=[0.0, 0.2],
        missing_fractions=[0.0, 0.1],
        retries=[0, 5],
        fallbacks=[0, 2],
        scale=0.05,
        seed=1,
    )


def _crash_result(fail):
    from repro.experiments.chaos import CrashResumeResult, KillPoint
    from repro.runs.crash import CRASH_EXIT_CODE

    return CrashResumeResult(
        task="CT1",
        scale=0.05,
        seed=1,
        baseline_metrics={"auprc": 0.5},
        kills=[
            KillPoint("stage:train", CRASH_EXIT_CODE, ["featurize", "curate"],
                      metrics_match=fail != "crash_safe"),
        ],
        corruption_detected=fail != "corruption_detected",
        quarantined_files=1,
        run_dir="crash-runs",
    )


def _serve_result(fail):
    from repro.experiments.serve import ServeResult

    return ServeResult(
        scale=0.05,
        seed=1,
        n_points=10,
        n_requests=20,
        warmed=40,
        cells=[],
        identity_checks={
            "warm_fresh": True, "cold_batched": fail != "identity_ok",
        },
        availabilities=[1.0, 0.5],
        cold_agreements=[1.0, 0.2 if fail == "graceful" else 0.9],
        batch_agreement=1.0,
        batch_score_max_diff=0.0,
    )


def _multitenant_result(fail):
    from repro.experiments.multitenant import MultiTenantCell, MultiTenantResult

    cell = MultiTenantCell(
        n_tenants=2,
        rate_limit=0.0,
        wall_s=1.0,
        throughput=2.0,
        jain_fairness=1.0,
        all_ok=fail != "all_complete",
        auprc_by_availability={
            1.0: 0.4, 0.5: 0.1 if fail == "all_graceful" else 0.3,
        },
    )
    return MultiTenantResult(
        cells=[cell],
        availabilities=[1.0, 0.5],
        victim="org_embedding",
        scale=0.05,
        seed=7,
        solo_identical=fail != "solo_identical",
    )


def _storagechaos_result(fail):
    from repro.experiments.storagechaos import ChaosCell, StorageChaosResult

    cell = ChaosCell(
        fault="bitflip", rate=0.6, outcome="completed", error="",
        faults_injected=3, damage_found=2, heal_path="resume --auto-repair",
        repaired=2, healed=True, healthy_after=True, hashes_match=True,
        metrics_match=fail != "holds", serving_loads=True,
    )
    return StorageChaosResult(task="CT1", scale=0.06, seed=1, cells=[cell])


def _shardscale_result(fail):
    from repro.experiments.shardscale import ShardScaleResult

    peak_ratio = 2.5 if fail == "sublinear" else 1.1
    return ShardScaleResult(
        cells=[],
        verdicts={64: (3.0, peak_ratio, peak_ratio <= 1.8)},
        seed=1,
    )


def _scaling_result(fail):
    from repro.experiments.scaling import ScalingCell, ScalingResult

    def cell(backend, divergence=0.0, recall=1.0, delta=0.0):
        return ScalingCell(
            size=300, backend=backend, build_seconds=0.01, stage_seconds={},
            n_edges=100, neighbor_recall=recall, edge_recall=recall,
            max_weight_divergence=divergence, auprc=0.5,
            auprc_oracle=0.5 - delta, auprc_delta=delta, speedup_vs_exact=1.0,
        )

    lsh = cell(
        "lsh",
        divergence=1e-3 if fail == "exact_scoring" else 0.0,
        recall=0.5 if fail == "recall" else 0.99,
        delta=-0.1 if fail == "downstream" else 0.001,
    )
    return ScalingResult(
        cells=[cell("exact"), lsh], sizes=(300,), backends=("exact", "lsh"),
        seed=1, k=10,
    )


def _scrub_result(fail):
    from repro.runs.scrub import ScrubEntry, ScrubReport

    status = "corrupt" if fail == "store_healthy" else "healthy"
    return ScrubReport(
        run_dir="scrub-run",
        entries=[ScrubEntry("train", "model", "ab" * 32, "json", status)],
    )


_GATED = {
    "chaos": ("run_chaos", _chaos_result, ["graceful"]),
    "crash": ("run_crash_resume", _crash_result,
              ["crash_safe", "corruption_detected"]),
    "serve": ("run_serve", _serve_result, ["identity_ok", "graceful"]),
    "multitenant": ("run_multitenant", _multitenant_result,
                    ["all_complete", "all_graceful", "solo_identical"]),
    "storagechaos": ("run_storagechaos", _storagechaos_result, ["holds"]),
    "shardscale": ("run_shardscale", _shardscale_result, ["sublinear"]),
    "scrub": ("run_scrub", _scrub_result, ["store_healthy"]),
    "scaling": ("run_scaling", _scaling_result,
                ["exact_scoring", "recall", "downstream"]),
}


@pytest.mark.parametrize(
    "experiment, fail",
    [
        (name, fail)
        for name, (_, _, gates) in _GATED.items()
        for fail in (None, *gates)
    ],
)
def test_gates_set_exit_status(experiment, fail, monkeypatch, capsys):
    import repro.experiments.__main__ as cli

    runner, make, gates = _GATED[experiment]
    result = make(fail)
    monkeypatch.setattr(cli, runner, lambda *args, **kwargs: result)
    code = main([experiment, "--run-dir", "unused"])
    assert code == (0 if fail is None else 1)
    out = capsys.readouterr().out
    for gate in gates:
        state = "FAIL" if gate == fail else "OK"
        assert f"gate={gate} [{state}]\n" in out
    assert out.count("gate=") == len(gates)


def test_solo_identity_gate_only_when_checked():
    result = _multitenant_result(None)
    result.solo_identical = None
    assert list(result.gates()) == ["all_complete", "all_graceful"]


def test_multitenant_gate_skips_unjudged_cells():
    result = _multitenant_result(None)
    result.cells.append(replace(result.cells[0], auprc_by_availability={1.0: 0.1}))
    assert result.gates()["all_graceful"] is True
    result.cells = result.cells[1:]
    assert result.gates()["all_graceful"] is False


def test_all_fails_when_one_experiment_fails(monkeypatch, capsys):
    """Under ``all`` a failed gate sets the exit status, and the
    remaining experiments still run."""
    import repro.experiments.__main__ as cli

    class Ungated:
        def __init__(self, name):
            self.name = name

        def render(self):
            return f"report of {self.name}"

    for runner in (
        "run_table1", "run_table2", "run_table3", "run_figure5",
        "run_figure6", "run_figure7", "run_fusion_ablation",
        "run_lf_comparison", "run_end_to_end", "run_scaling",
    ):
        monkeypatch.setattr(
            cli, runner, lambda *a, _name=runner, **k: Ungated(_name)
        )
    monkeypatch.setattr(cli, "run_all_ablations", lambda *a, **k: [])
    monkeypatch.setattr(cli, "render_ablations", lambda results: "ablations")
    monkeypatch.setattr(
        cli, "run_chaos", lambda *a, **k: _chaos_result("graceful")
    )
    monkeypatch.setattr(
        cli, "run_shardscale", lambda *a, **k: _shardscale_result(None)
    )
    assert main(["all"]) == 1
    out = capsys.readouterr().out
    assert "gate=graceful [FAIL]" in out
    assert "gate=sublinear [OK]" in out
    assert "report of run_scaling" in out


def test_shardscale_without_a_size_ratio_fails(tmp_path, capsys):
    """One corpus size forms no ratio, so sublinearity is unjudged."""
    import json

    code = main([
        "shardscale", "--sizes", "100", "--shard-sizes", "64",
        "--run-dir", str(tmp_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "no size ratio formed" in out
    assert "gate=sublinear [FAIL]\n" in out
    data = json.loads((tmp_path / "BENCH_shardscale.json").read_text())
    assert data["metrics"]["sublinear"] is False


def test_scaling_without_an_lsh_cell_fails(tmp_path, capsys):
    """An exact-only sweep compares nothing against the oracle, so the
    quality gates are unjudged and fail."""
    code = main([
        "scaling", "--sizes", "60", "--graph-backend", "exact",
        "--run-dir", str(tmp_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "no lsh cell measured" in out
    assert "gate=recall [FAIL]\n" in out


def test_scaling_smoke_sweep_passes_its_gates(tmp_path, capsys):
    """CI's smallest sweep size.  Far smaller corpora (n=120: 20 seed
    labels) swing the AUPRC delta past its bound on one changed edge."""
    code = main(["scaling", "--sizes", "300", "--run-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    for gate in ("exact_scoring", "recall", "downstream"):
        assert f"gate={gate} [OK]\n" in out


_MT_ARGS = [
    "multitenant", "--scale", "0.05", "--seed", "7", "--rate-limits", "0",
    "--availabilities", "1.0", "0.5", "--workers", "2",
]


def test_multitenant_two_tenants_leave_no_cliff_unjudged(tmp_path, capsys):
    """Tenant 1 is tenant 0's dedup twin, so a two-tenant cell runs at
    one availability level and the no-cliff rule has nothing to check."""
    code = main([*_MT_ARGS, "--tenants", "2", "--run-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "unjudged" in out
    assert "gate=all_graceful [FAIL]\n" in out
    assert "gate=all_complete [OK]\n" in out


def test_multitenant_six_tenant_cell_is_judged(tmp_path, capsys):
    code = main([*_MT_ARGS, "--tenants", "6", "--run-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "unjudged" not in out
    assert "gate=all_graceful [OK]\n" in out
