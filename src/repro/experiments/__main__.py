"""Command-line experiment runner.

Regenerate any of the paper's tables/figures from the shell:

    python -m repro.experiments table1  --scale 0.4 --seed 1
    python -m repro.experiments table2  --tasks CT1 CT3
    python -m repro.experiments table3
    python -m repro.experiments figure5
    python -m repro.experiments figure6
    python -m repro.experiments figure7
    python -m repro.experiments fusion
    python -m repro.experiments lf
    python -m repro.experiments ablations
    python -m repro.experiments chaos
    python -m repro.experiments crash
    python -m repro.experiments end_to_end
    python -m repro.experiments scaling
    python -m repro.experiments shardscale
    python -m repro.experiments all

Exit status: each gated experiment (chaos, crash, serve, multitenant,
storagechaos, shardscale, scrub, scaling) prints one ``gate=<name> [OK|FAIL]``
line per guarantee it checks after its report.  The command exits 0
when every gate of every experiment run passed (experiments without
gates always pass), 1 when any gate failed, and 2 on a usage error.

Checkpointing (see DESIGN.md "Checkpointing & crash recovery"):

    --run-dir DIR      end_to_end: persist each completed stage into DIR
                       as content-hashed artifacts plus a run manifest
    --resume           continue an interrupted run from --run-dir; stages
                       whose config fingerprints match are replayed from
                       artifacts, bit-identically

    python -m repro.experiments end_to_end --run-dir runs/e2e
    python -m repro.experiments end_to_end --run-dir runs/e2e --resume

Observability (see DESIGN.md "Observability"):

    --trace out.json   activate the tracer and export the full span
                       tree (nested spans, counters, gauges, latency
                       histograms) as JSON
    --profile          print a human-readable span-tree summary after
                       the experiments finish

    python -m repro.experiments end_to_end --trace trace.json --profile

Execution backends (see DESIGN.md "Execution backends"):

    --backend B        serial | thread | process — executor for the
                       parallel pipeline stages (end_to_end)
    --workers N        worker count for thread/process backends

    python -m repro.experiments end_to_end --backend process --workers 4

All backends produce byte-identical artifacts (the differential suite
in tests/test_exec_equivalence.py enforces this), so the backend is a
pure performance knob.

Graph backends (see DESIGN.md "Approximate graph construction"):

    --graph-backend B  exact | lsh — kNN graph construction for the
                       curation stage (end_to_end) and the scaling
                       sweep; lsh changes which candidate pairs are
                       considered (never edge weights), so — unlike
                       --backend — this knob IS part of the run
                       fingerprint
    --sizes N [N ...]  corpus sizes for the scaling sweep

    python -m repro.experiments scaling --sizes 600 1200 2400
    python -m repro.experiments end_to_end --graph-backend lsh

Out-of-core sharding (see DESIGN.md "Sharded data plane"):

    --shard-size N     end_to_end: featurize out-of-core in N-row shards
                       persisted as content-hashed artifacts (requires
                       --run-dir); bit-identical to an unsharded run
    --shard-sizes N [N ...]
                       shardscale: shard sizes for the memory sweep

    python -m repro.experiments end_to_end --run-dir runs/e2e --shard-size 256
    python -m repro.experiments shardscale --sizes 400 1600 --shard-sizes 64

Multi-tenant orchestration (see DESIGN.md "Multi-tenant run
orchestration"):

    --tenants N [N ...]        tenant counts to sweep (multitenant)
    --rate-limits Q [Q ...]    victim-service rate limits in calls/s
                               (0 = unlimited)
    --availabilities A [A ...] victim availability levels tenants cycle
                               through

    python -m repro.experiments multitenant --scale 0.1 --seed 7
    python -m repro.experiments multitenant --tenants 2 6 \\
        --rate-limits 0 400 --availabilities 1.0 0.5

Online serving (see DESIGN.md "Online serving path"):

    --clients N [N ...]        serve: concurrent client counts to sweep
    --requests N               serve: total requests per load cell
    --availabilities A [A ...] serve: service availability levels
    --run-dir DIR              serve: reuse (or create) a checkpointed
                               end-to-end run as the deployed artifact

    python -m repro.experiments serve --scale 0.15 --seed 1
    python -m repro.experiments serve --clients 1 8 --requests 400

Self-healing storage (see DESIGN.md "Self-healing storage"):

    scrub --run-dir DIR        audit every artifact the run's manifest
                               references (healthy/corrupt/missing, plus
                               orphans); exits 1 unless the store is
                               healthy
    scrub --run-dir DIR --repair
                               additionally rebuild damaged artifacts by
                               replaying their producing stages; the
                               original content hash is the acceptance
                               oracle (bit-identical or fail loudly)
    storagechaos               sweep fault type x rate with seeded
                               filesystem fault injection and gate on
                               "bit-identical after repair, or typed
                               error — never wrong bytes"
    --auto-repair              end_to_end: rebuild damaged artifacts in
                               place during checkpoint replay
    --fault-types T [T ...]    storagechaos: eio enospc fsync bitflip torn
    --fault-rates R [R ...]    storagechaos: per-write fault probabilities

    python -m repro.experiments scrub --run-dir runs/e2e --repair
    python -m repro.experiments storagechaos --scale 0.08 \\
        --fault-types bitflip torn --fault-rates 0.4
"""

from __future__ import annotations

import argparse
import sys

import repro.obs as obs
from repro.exec import BACKENDS, ExecutorConfig
from repro.experiments.ablations import render_ablations, run_all_ablations
from repro.experiments.chaos import run_chaos, run_crash_resume
from repro.experiments.end_to_end import run_end_to_end, run_figure5, run_table2
from repro.experiments.factor_analysis import run_figure6
from repro.experiments.fusion_ablation import run_fusion_ablation
from repro.experiments.label_prop import run_table3
from repro.experiments.lesion import run_figure7
from repro.experiments.lf_comparison import run_lf_comparison
from repro.experiments.multitenant import (
    DEFAULT_MT_AVAILABILITIES,
    DEFAULT_RATE_LIMITS,
    DEFAULT_TENANT_COUNTS,
    run_multitenant,
)
from repro.experiments.scaling import run_scaling
from repro.experiments.scrub import run_scrub
from repro.experiments.serve import (
    DEFAULT_CLIENT_COUNTS,
    DEFAULT_SERVE_AVAILABILITIES,
    run_serve,
)
from repro.experiments.shardscale import run_shardscale
from repro.experiments.storagechaos import run_storagechaos
from repro.experiments.table1 import run_table1
from repro.propagation.graph import GRAPH_BACKENDS
from repro.runs import FAULT_TYPES

_EXPERIMENTS = (
    "table1", "table2", "table3", "figure5", "figure6", "figure7",
    "fusion", "lf", "ablations", "chaos", "crash", "end_to_end",
    "scaling", "shardscale", "multitenant", "serve", "storagechaos", "scrub",
)


def _run_one(name: str, args: argparse.Namespace):
    """Run one experiment and return its result object."""
    scale, seed = args.scale, args.seed
    if name == "table1":
        return run_table1(scale=scale, seed=seed)
    if name == "table2":
        return run_table2(
            tasks=args.tasks or None, scale=scale, seed=seed,
            n_model_seeds=args.model_seeds,
        )
    if name == "table3":
        return run_table3(
            tasks=args.tasks or None, scale=scale, seed=seed,
            n_model_seeds=args.model_seeds,
        )
    if name == "figure5":
        return run_figure5(scale=scale, seed=seed,
                           n_model_seeds=args.model_seeds)
    if name == "figure6":
        return run_figure6(scale=scale, seed=seed,
                           n_model_seeds=args.model_seeds)
    if name == "figure7":
        return run_figure7(scale=scale, seed=seed,
                           n_model_seeds=args.model_seeds)
    if name == "fusion":
        return run_fusion_ablation(scale=scale, seed=seed)
    if name == "lf":
        return run_lf_comparison(scale=scale, seed=seed)
    if name == "ablations":
        return run_all_ablations(scale=scale, seed=seed)
    if name == "chaos":
        return run_chaos(scale=scale, seed=seed,
                         n_model_seeds=args.model_seeds,
                         out_dir=args.run_dir)
    if name == "crash":
        task = (args.tasks or ["CT1"])[0]
        return run_crash_resume(task=task, scale=scale, seed=seed,
                                keep_dir=args.run_dir)
    if name == "end_to_end":
        task = (args.tasks or ["CT1"])[0]
        executor = None
        if args.backend is not None or args.workers is not None:
            executor = ExecutorConfig(
                backend=args.backend or "thread",
                workers=args.workers if args.workers is not None else 1,
            )
        return run_end_to_end(task=task, scale=scale, seed=seed,
                              run_dir=args.run_dir, resume=args.resume,
                              executor=executor,
                              graph_backend=args.graph_backend,
                              auto_repair=args.auto_repair,
                              shard_size=args.shard_size)
    if name == "storagechaos":
        task = (args.tasks or ["CT1"])[0]
        return run_storagechaos(
            task=task, scale=scale, seed=seed,
            fault_types=tuple(args.fault_types) if args.fault_types else None,
            fault_rates=tuple(args.fault_rates) if args.fault_rates else None,
            out_dir=args.run_dir,
        )
    if name == "scrub":
        return run_scrub(args.run_dir, repair=args.repair)
    if name == "shardscale":
        return run_shardscale(
            sizes=args.sizes, shard_sizes=args.shard_sizes, seed=seed,
            out_dir=args.run_dir,
        )
    if name == "scaling":
        executor = None
        if args.backend is not None or args.workers is not None:
            executor = ExecutorConfig(
                backend=args.backend or "thread",
                workers=args.workers if args.workers is not None else 1,
            )
        backends = (
            (args.graph_backend,) if args.graph_backend is not None else None
        )
        return run_scaling(
            sizes=args.sizes, backends=backends, seed=seed,
            out_dir=args.run_dir, executor=executor,
        )
    if name == "serve":
        return run_serve(
            scale=scale, seed=seed,
            availabilities=(
                tuple(args.availabilities)
                if args.availabilities
                else DEFAULT_SERVE_AVAILABILITIES
            ),
            client_counts=(
                tuple(args.clients) if args.clients else DEFAULT_CLIENT_COUNTS
            ),
            n_requests=args.requests,
            run_dir=args.run_dir,
        )
    if name == "multitenant":
        return run_multitenant(
            scale=scale, seed=seed,
            tenant_counts=(
                tuple(args.tenants) if args.tenants else DEFAULT_TENANT_COUNTS
            ),
            rate_limits=(
                tuple(args.rate_limits)
                if args.rate_limits
                else DEFAULT_RATE_LIMITS
            ),
            availabilities=(
                tuple(args.availabilities)
                if args.availabilities
                else DEFAULT_MT_AVAILABILITIES
            ),
            workers=args.workers if args.workers is not None else 2,
            out_dir=args.run_dir,
        )
    raise ValueError(f"unknown experiment {name!r}")


def _validate_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject nonsensical numeric arguments with a one-line error.

    ``parser.error`` prints ``prog: error: <message>`` and exits 2 —
    the same contract argparse applies to unknown experiment names —
    so a typo'd sweep fails in milliseconds instead of after the first
    expensive cell.
    """
    if args.scale <= 0:
        parser.error(f"--scale must be > 0, got {args.scale}")
    if args.model_seeds < 1:
        parser.error(f"--model-seeds must be >= 1, got {args.model_seeds}")
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.requests < 1:
        parser.error(f"--requests must be >= 1, got {args.requests}")
    if args.shard_size is not None and args.shard_size < 1:
        parser.error(f"--shard-size must be >= 1, got {args.shard_size}")
    for flag, values, minimum in (
        ("--sizes", args.sizes, 1),
        ("--shard-sizes", args.shard_sizes, 1),
        ("--tenants", args.tenants, 1),
        ("--rate-limits", args.rate_limits, 0),
        ("--clients", args.clients, 1),
    ):
        for value in values or ():
            if value < minimum:
                parser.error(
                    f"{flag} values must be >= {minimum}, got {value}"
                )
    for value in args.availabilities or ():
        if not 0.0 < value <= 1.0:
            parser.error(
                f"--availabilities values must be in (0, 1], got {value}"
            )
    for value in args.fault_rates or ():
        if not 0.0 <= value <= 1.0:
            parser.error(
                f"--fault-rates values must be in [0, 1], got {value}"
            )
    if args.experiment == "scrub" and not args.run_dir:
        parser.error("scrub requires --run-dir pointing at a checkpointed run")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment", choices=(*_EXPERIMENTS, "all"),
        help="which artifact to regenerate",
    )
    parser.add_argument("--scale", type=float, default=0.4,
                        help="corpus-size multiplier (default 0.4)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--model-seeds", type=int, default=2,
                        help="model seeds averaged per measurement")
    parser.add_argument("--tasks", nargs="*", default=None,
                        help="task subset for table2/table3/end_to_end "
                             "(e.g. CT1 CT3)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="activate tracing and write the span tree "
                             "as JSON to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="print a span-tree summary after the run")
    parser.add_argument("--run-dir", metavar="DIR", default=None,
                        help="end_to_end: checkpoint every completed stage "
                             "into DIR (artifacts + manifest); "
                             "crash: keep the harness run dirs in DIR; "
                             "experiments that write BENCH_<name>.json "
                             "write it here unless REPRO_BENCH_DIR is set")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted checkpointed run from "
                             "--run-dir, replaying completed stages")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="execution backend for the parallel pipeline "
                             "stages (end_to_end); all backends produce "
                             "byte-identical artifacts")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the thread/process backends")
    parser.add_argument("--graph-backend", choices=GRAPH_BACKENDS,
                        default=None,
                        help="kNN graph construction backend, exact or lsh "
                             "(end_to_end: curation graph; scaling: "
                             "restrict the sweep to this backend, and an "
                             "exact-only sweep fails the lsh gates). lsh "
                             "changes results, so checkpoints are not "
                             "shared across graph backends")
    parser.add_argument("--sizes", type=int, nargs="*", default=None,
                        help="scaling: corpus sizes to sweep "
                             "(default 600 1200 2400 4800 9600); "
                             "shardscale: corpus sizes (default 400 1600)")
    parser.add_argument("--shard-size", type=int, default=None,
                        help="end_to_end: rows per shard for the "
                             "out-of-core featurize path (requires "
                             "--run-dir); results are bit-identical to "
                             "an unsharded run")
    parser.add_argument("--shard-sizes", type=int, nargs="*", default=None,
                        help="shardscale: shard sizes to sweep "
                             "(default 64)")
    parser.add_argument("--tenants", type=int, nargs="*", default=None,
                        help="multitenant: tenant counts to sweep "
                             "(default 2 6)")
    parser.add_argument("--rate-limits", type=float, nargs="*", default=None,
                        help="multitenant: victim-service rate limits in "
                             "calls/s, 0 = unlimited (default 0 400)")
    parser.add_argument("--availabilities", type=float, nargs="*",
                        default=None,
                        help="multitenant/serve: service availability levels "
                             "to sweep (default 1.0 0.5 / 1.0 0.9 0.75 0.5)")
    parser.add_argument("--clients", type=int, nargs="*", default=None,
                        help="serve: concurrent client counts to sweep "
                             "(default 1 8)")
    parser.add_argument("--requests", type=int, default=200,
                        help="serve: total requests per load cell "
                             "(default 200)")
    parser.add_argument("--auto-repair", action="store_true",
                        help="end_to_end: rebuild damaged artifacts in "
                             "place during checkpoint replay (recompute, "
                             "verify against the recorded content hash, "
                             "restore) instead of aborting")
    parser.add_argument("--repair", action="store_true",
                        help="scrub: rebuild corrupt/missing artifacts by "
                             "replaying their producing stages from lineage")
    parser.add_argument("--fault-types", choices=FAULT_TYPES, nargs="*",
                        default=None,
                        help="storagechaos: fault types to inject "
                             "(default: all five)")
    parser.add_argument("--fault-rates", type=float, nargs="*", default=None,
                        help="storagechaos: per-write fault probabilities "
                             "to sweep (default 0.25 0.6)")
    args = parser.parse_args(argv)
    _validate_args(parser, args)

    tracer = None
    if args.trace or args.profile:
        tracer = obs.enable(obs.Tracer("experiments"))

    # "all" excludes the subprocess-based crash harness, the
    # multi-tenant contention sweep (many concurrent full runs), the
    # serving load benchmark (its own end-to-end run plus load cells),
    # the storage chaos sweep (many full runs under fault injection),
    # and scrub (needs an existing --run-dir); run those explicitly
    names = (
        [
            n
            for n in _EXPERIMENTS
            if n not in ("crash", "multitenant", "serve", "storagechaos", "scrub")
        ]
        if args.experiment == "all"
        else [args.experiment]
    )
    failed = False
    try:
        for name in names:
            with obs.timed(f"experiment.{name}") as t:
                result = _run_one(name, args)
            print(
                render_ablations(result) if name == "ablations"
                else result.render()
            )
            gates = result.gates() if hasattr(result, "gates") else {}
            for gate, ok in gates.items():
                print(f"gate={gate} [{'OK' if ok else 'FAIL'}]")
            failed = failed or not all(gates.values())
            print(f"[{name}: {t.duration:.1f}s]\n")
        if tracer is not None:
            if args.profile:
                print(obs.format_trace(tracer))
            if args.trace:
                path = tracer.write_json(args.trace)
                print(f"[trace written to {path}]")
    finally:
        if tracer is not None:
            obs.disable()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
