"""Where ``BENCH_<name>.json`` goes: one rule for every experiment.

``$REPRO_BENCH_DIR`` if set, else the directory the experiment was
given, else no file (:func:`repro.obs.bench.bench_dir`).  Every
experiment that writes an artifact must resolve its directory through
that one function, so an env dir and an explicit dir land the artifact
in the same place.
"""

import ast
import importlib
import inspect
import json

import pytest

from repro.obs.bench import BENCH_DIR_ENV, bench_dir

#: every experiment module that writes a ``BENCH_<name>.json``
EXPERIMENTS = (
    "chaos",
    "end_to_end",
    "multitenant",
    "scaling",
    "scrub",
    "serve",
    "shardscale",
    "storagechaos",
)


def test_env_dir_wins_over_the_given_dir(tmp_path, monkeypatch):
    env_dir, given = tmp_path / "env", tmp_path / "given"
    monkeypatch.delenv(BENCH_DIR_ENV, raising=False)
    assert bench_dir(given) == str(given)
    assert bench_dir(None) is None
    monkeypatch.setenv(BENCH_DIR_ENV, str(env_dir))
    assert bench_dir(given) == str(env_dir)
    assert bench_dir(None) == str(env_dir)


def _bench_writes(tree):
    """(directory argument, names bound by ``bench_dir(...)``) of every
    ``<BenchArtifact>.write(...)`` call, per function."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound: dict[str, set[str]] = {"BenchArtifact": set(), "bench_dir": set()}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in bound
            ):
                bound[node.value.func.id].update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "write"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in bound["BenchArtifact"]
            ):
                yield node.args[0], bound["bench_dir"]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_resolves_its_bench_dir_through_the_one_rule(name):
    module = importlib.import_module(f"repro.experiments.{name}")
    tree = ast.parse(inspect.getsource(module))
    # no call site reads the environment variable itself
    assert not any(
        isinstance(node, ast.Constant) and node.value == BENCH_DIR_ENV
        for node in ast.walk(tree)
    )
    writes = list(_bench_writes(tree))
    assert writes, f"{name} writes no BenchArtifact"
    for directory, resolved in writes:
        via_call = (
            isinstance(directory, ast.Call)
            and isinstance(directory.func, ast.Name)
            and directory.func.id == "bench_dir"
        )
        via_name = isinstance(directory, ast.Name) and directory.id in resolved
        assert via_call or via_name, ast.unparse(directory)


def _scrub_run_dir(path):
    from repro.runs import RunCheckpointer

    ck = RunCheckpointer(path, context={"seed": 7})
    ck.stage(
        "s1",
        config={"k": 1},
        compute=lambda: 41,
        encode=lambda v: {"out": ("evaluation", {"v": v})},
        decode=lambda payloads: payloads["out"]["v"],
    )
    return path


def test_scrub_and_shardscale_land_in_the_same_place(tmp_path, monkeypatch):
    """Run two experiments for real: once handed ``out`` explicitly, once
    handed elsewhere with ``$REPRO_BENCH_DIR=out``.  Both land the
    artifact in ``out`` with the same metrics."""
    from repro.experiments.scrub import run_scrub
    from repro.experiments.shardscale import run_shardscale

    run_dir = _scrub_run_dir(tmp_path / "run")
    metrics = {}
    for mode in ("explicit", "env"):
        out = tmp_path / mode
        if mode == "env":
            monkeypatch.setenv(BENCH_DIR_ENV, str(out))
            given = tmp_path / "elsewhere"
        else:
            monkeypatch.delenv(BENCH_DIR_ENV, raising=False)
            given = out
        run_scrub(run_dir, out_dir=str(given))
        run_shardscale(sizes=(60,), shard_sizes=(32,), seed=1, out_dir=str(given))
        metrics[mode] = {
            bench: json.loads((out / f"BENCH_{bench}.json").read_text())["metrics"]
            for bench in ("scrub", "shardscale")
        }
    assert not (tmp_path / "elsewhere").exists()
    assert metrics["env"]["scrub"] == metrics["explicit"]["scrub"]
    assert set(metrics["env"]["shardscale"]) == set(metrics["explicit"]["shardscale"])
