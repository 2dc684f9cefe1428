"""Check perfbench's deterministic work counters against their baseline.

Runs ``perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1
--tiny`` for every workload in ``perf_counters.json`` (next to this
file) and compares the exact work counters it reports — rows, cells,
shards, LFs, graph nodes and edges, LF votes, EM iterations, training
epochs and rows, and run-store calls and bytes — with the committed
values.  Wall times are not checked: they depend on the host.

    python benchmarks/check_perf_counters.py            # exit 1 on drift
    python benchmarks/check_perf_counters.py --write    # record new values

A change that alters the amount of work rewrites the baseline with
``--write`` and explains the new numbers.  Each tiny run takes about
ten seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "perf_counters.json"
COUNTERS = (
    "resources.featurize_rows",
    "resources.featurize_cells",
    "shards.shards_written",
    "mining.lfs",
    "propagation.graph_nodes",
    "propagation.graph_edges",
    "labeling.lf_votes",
    "labeling.em_iterations",
    "models.train_epochs",
    "models.train_rows",
    "runs.put_calls",
    "runs.bytes_written",
    "runs.get_calls",
    "runs.bytes_read",
)
WORKLOADS = ("adapt_exact", "adapt_ckpt", "serve_chaos")
ARGS = ("--seed", "1", "--seconds", "1", "--trace", "1", "--tiny")


def measure(workload: str) -> dict[str, int]:
    """The work counters of one tiny traced run of ``workload``."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, *ARGS],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload}: perfbench run failed (exit {proc.returncode})")
    metrics = json.loads(lines[-1])["metrics"]
    return {name: int(metrics[name]["value"]) for name in COUNTERS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="record the measured counters as the baseline"
    )
    args = parser.parse_args(argv)
    measured = {w: measure(w) for w in WORKLOADS}
    if args.write:
        BASELINE.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
        return 0
    baseline = json.loads(BASELINE.read_text())
    drift = [
        f"{w}: {name} = {measured[w].get(name)} (baseline {baseline.get(w, {}).get(name)})"
        for w in sorted(set(baseline) | set(measured))
        for name in COUNTERS
        if measured.get(w, {}).get(name) != baseline.get(w, {}).get(name)
    ]
    for line in drift:
        print(line)
    print(f"{len(drift)} counters drifted" if drift else "work counters match the baseline")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
