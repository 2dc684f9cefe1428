"""The three benchmark workloads and the phases they share.

Every workload pins its *organization*: the synthetic world, the CT1
task definition, the corpora and the resource catalog all derive from
:data:`ORG_SEED`, so the adaptation work is identical from run to run
and a metric's spread measures the host and the program, not the
input draw.  ``--seed`` draws what a deployment sees at random: the
order in which clients request the test points and the fault schedule
of the chaos catalog.

A run is one **set-up** followed by **rounds**.  The set-up builds the
inputs and deploys a completed, checkpointed run behind a
``ModelServer``.  Each round then takes one sample of every timed
operation, so the samples of each metric are spread over the whole run
and a slow spell of the shared host hits few of them:

* another **set-up**, discarded afterwards;
* one **adapt**: ``CrossModalPipeline.run`` (featurize -> curate ->
  train -> evaluate);
* one **resume** of the deployed run directory, every stage replayed
  and hash-verified;
* one closed-loop **serve** burst of ``burst_s`` seconds.

Rounds run while the next one is expected to end within ``--seconds``,
and at least ``min_rounds`` times.  The first set-up runs in a cold
process, so ``setup_s`` is the median of the rounds' set-ups only.
"""

from __future__ import annotations

import gc
import math
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro.datagen.tasks as tasks
import repro.resources.service_sets as service_sets
from repro.core.config import CurationConfig, PipelineConfig
from repro.core.pipeline import CrossModalPipeline
from repro.core.rng import derive_seed, spawn
from repro.resilience import FaultInjector, FaultSpec
from repro.runs import RunCheckpointer
from repro.serving import Decision, ModelServer, ServingArtifacts, ServingConfig

#: fixes the world, task definition, corpora and catalog of every workload
ORG_SEED = 20200831
STAGES = ["featurize", "curate", "train", "evaluate"]
#: closed-loop clients; also the batcher's max batch size, so batches
#: flush on size rather than on the 2 ms wait timer
N_CLIENTS = 2
#: the serve check fails when more than this share of batches flushed
#: on the wait timer
MAX_TIMEOUT_FLUSH_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    n_text: int
    n_unlabeled: int
    n_test: int
    graph_backend: str
    #: sharded featurize into the run directory
    shard_size: int | None
    #: adapt reps checkpoint into a fresh run directory (else in memory)
    checkpoint_reps: bool
    #: the serving workload: set-up produces the served run, and the
    #: server dials a fault-injected catalog (else the plain catalog)
    chaos: bool
    burst_s: float
    n_history: int = 5_000
    n_calibration: int = 5_000
    min_rounds: int = 3
    #: test points the clients request, round robin
    n_served: int = 300


WORKLOADS = {
    "adapt_exact": Workload(
        "adapt_exact", n_text=1200, n_unlabeled=2400, n_test=300,
        graph_backend="exact", shard_size=None, checkpoint_reps=False,
        chaos=False, burst_s=1.0,
    ),
    "adapt_ckpt": Workload(
        "adapt_ckpt", n_text=1500, n_unlabeled=600, n_test=1000,
        graph_backend="lsh", shard_size=256, checkpoint_reps=True,
        chaos=False, burst_s=1.0,
    ),
    "serve_chaos": Workload(
        "serve_chaos", n_text=900, n_unlabeled=400, n_test=300,
        graph_backend="exact", shard_size=None, checkpoint_reps=True,
        chaos=True, burst_s=3.0,
    ),
}


def tiny(workload: Workload) -> Workload:
    """Smallest sizes the generator allows, one round; for the self-tests."""
    return replace(
        workload, n_text=400, n_unlabeled=300, n_test=300, n_history=2_000,
        n_calibration=2_000, min_rounds=1, n_served=40, burst_s=0.5,
    )


def host_probe() -> float:
    """Seconds for a fixed loop that touches no repo code (host speed)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    float(np.sort(np.sin(np.arange(50_000, dtype=float))).sum())
    return time.perf_counter() - t0


def median(values: list[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Outcome:
    """Check tallies and timing samples gathered during a run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    adapt_s: list[float] = field(default_factory=list)
    resume_s: list[float] = field(default_factory=list)
    auprc: float = math.nan
    #: (point_id, start, end) of every completed request
    requests: list[tuple[int, float, float]] = field(default_factory=list)
    #: decisions completed and wall seconds of every serve burst
    burst_decisions: list[int] = field(default_factory=list)
    burst_wall_s: list[float] = field(default_factory=list)
    batcher: dict = field(default_factory=dict)

    def serve_qps(self) -> float:
        """Decisions completed over the wall time of all serve bursts."""
        return sum(self.burst_decisions) / sum(self.burst_wall_s)

    def latencies_ms(self) -> np.ndarray:
        return np.asarray([t1 - t0 for _, t0, t1 in self.requests]) * 1e3

    def ops(self, n: int, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1)
        if not ok:
            self.failures.append(what)


@dataclass
class Inputs:
    world: object
    task: object
    splits: object
    catalog: object


@dataclass
class Served:
    """A deployed run: directory, first-pass result, server, reference."""

    run_dir: Path
    result: object
    server: ModelServer
    reference: dict[int, Decision]
    points: list


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def build_inputs(w: Workload) -> Inputs:
    """World, corpora and catalog, all pinned by :data:`ORG_SEED`.

    Module attributes are looked up at call time so that a tracer's
    wrappers see these calls.
    """
    config = replace(
        tasks.classification_task("CT1"),
        n_text_labeled=w.n_text,
        n_image_unlabeled=w.n_unlabeled,
        n_image_test=w.n_test,
        n_image_labeled_pool=300,
    )
    world, task, splits = tasks.generate_task_corpora(
        config, scale=1.0, seed=ORG_SEED, n_calibration=w.n_calibration
    )
    catalog = service_sets.build_resource_suite(
        world, task, n_history=w.n_history, seed=ORG_SEED
    )
    return Inputs(world, task, splits, catalog)


def pipeline_for(w: Workload, inputs: Inputs) -> CrossModalPipeline:
    config = PipelineConfig(
        seed=ORG_SEED,
        curation=CurationConfig(graph_backend=w.graph_backend),
        shard_size=w.shard_size,
    )
    return CrossModalPipeline(inputs.world, inputs.task, inputs.catalog, config)


def run_context(w: Workload) -> dict:
    return {"benchmark": "perfbench", "workload": w.name, "seed": ORG_SEED}


# ----------------------------------------------------------------------
# adapt and resume
# ----------------------------------------------------------------------
def adapt(w: Workload, inputs: Inputs, run_dir: Path | None):
    """One timed ``CrossModalPipeline.run``; returns (seconds, result)."""
    pipeline = pipeline_for(w, inputs)
    checkpoint = None
    if run_dir is not None:
        checkpoint = RunCheckpointer(run_dir, context=run_context(w))
    gc.collect()
    t0 = time.perf_counter()
    result = pipeline.run(inputs.splits, checkpoint=checkpoint)
    return time.perf_counter() - t0, result


def replay(w: Workload, inputs: Inputs, run_dir: Path):
    """Restore a completed run through the resume path, timed."""
    pipeline = pipeline_for(w, inputs)
    checkpoint = RunCheckpointer(run_dir, context=run_context(w), resume=True)
    gc.collect()
    t0 = time.perf_counter()
    result = pipeline.run(inputs.splits, checkpoint=checkpoint)
    return time.perf_counter() - t0, result


def same_result(a, b) -> bool:
    """Metrics and test scores bit-identical."""
    return a.metrics == b.metrics and a.test_scores.tobytes() == b.test_scores.tobytes()


def check_adapted(out: Outcome, w: Workload, result, reference, label: str) -> None:
    """Four stage runs, plus: auprc finite, n_test right, same as first pass."""
    out.ops(len(STAGES))
    out.check(math.isfinite(result.metrics["auprc"]), f"{label}: auprc not finite")
    out.check(
        int(result.metrics["n_test"]) == w.n_test,
        f"{label}: n_test {result.metrics['n_test']} != {w.n_test}",
    )
    if reference is not None:
        out.check(same_result(result, reference), f"{label}: differs from first pass")


def adapt_rep(w: Workload, inputs: Inputs, work: Path, served: Served, out: Outcome, index: int) -> None:
    run_dir = work / f"rep-{index}" if w.checkpoint_reps else None
    seconds, result = adapt(w, inputs, run_dir)
    out.adapt_s.append(seconds)
    check_adapted(out, w, result, served.result, f"adapt rep {index}")
    if run_dir is not None:
        shutil.rmtree(run_dir)


def replay_rep(w: Workload, inputs: Inputs, served: Served, out: Outcome, index: int) -> None:
    seconds, result = replay(w, inputs, served.run_dir)
    out.resume_s.append(seconds)
    out.ops(len(STAGES))
    out.check(
        list(result.resumed_stages) == STAGES,
        f"replay {index}: replayed {result.resumed_stages}, expected {STAGES}",
    )
    out.check(same_result(result, served.result), f"replay {index}: differs from first pass")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def reference_decisions(artifacts, inputs: Inputs, points) -> dict[int, Decision]:
    """Fault-free, cold-cache, batch-of-one decision for every point."""
    config = ServingConfig(warm_cache=False, max_batch_size=1, max_wait_s=0.0)
    with ModelServer(artifacts, list(inputs.catalog), config) as server:
        return {p.point_id: server.decide(p) for p in points}


def tamper(reference: dict[int, Decision]) -> None:
    """Flip one reference label (self-test: the serve check must fail)."""
    pid = min(reference)
    reference[pid] = replace(reference[pid], label=1 - reference[pid].label)


def make_server(w: Workload, artifacts, inputs: Inputs, seed: int) -> ModelServer:
    """A warm server whose cache entries are all expired (``ttl=0``), so
    every feature read refreshes through the resilience policy."""
    resources = list(inputs.catalog)
    if w.chaos:
        injector = FaultInjector(
            FaultSpec(transient_rate=0.1), seed=derive_seed(seed, "perfbench-faults")
        )
        resources = injector.wrap_all(resources)
    config = ServingConfig(cache_ttl_s=0.0, max_batch_size=N_CLIENTS)
    return ModelServer(artifacts, resources, config)


def deploy(w: Workload, inputs: Inputs, run_dir: Path, result, seed: int, tampered: bool) -> Served:
    """Load a completed run, compute reference decisions, warm a server."""
    artifacts = ServingArtifacts.load(run_dir)
    points = list(inputs.splits.image_test.points)[: w.n_served]
    reference = reference_decisions(artifacts, inputs, points)
    if tampered:
        tamper(reference)
    return Served(run_dir, result, make_server(w, artifacts, inputs, seed), reference, points)


def burst(served: Served, out: Outcome, seconds: float, seed: int, index: int) -> None:
    """``N_CLIENTS`` closed-loop clients for ``seconds``.

    The visiting order is a permutation of the served points drawn from
    ``(seed, index)``; client ``j`` takes every ``N_CLIENTS``-th entry,
    cyclically.  Every request's latency is kept; a request whose
    decision differs from the reference, or that raised, fails.
    """
    points = served.points
    order = spawn(seed, f"perfbench-order-{index}").permutation(len(points))
    per_client: list[list[tuple[int, float, float, bool]]] = [[] for _ in range(N_CLIENTS)]
    errors: list[str] = []
    barrier = threading.Barrier(N_CLIENTS + 1)
    stop_at = [0.0]

    def client(j: int) -> None:
        local = per_client[j]
        i = j
        barrier.wait()
        while True:
            point = points[order[i % len(order)]]
            i += N_CLIENTS
            t0 = time.perf_counter()
            try:
                decision = served.server.decide(point)
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                errors.append(f"point {point.point_id}: {exc!r}")
                return
            t1 = time.perf_counter()
            local.append((point.point_id, t0, t1, decision.key == served.reference[point.point_id].key))
            if t1 >= stop_at[0]:
                return

    threads = [threading.Thread(target=client, args=(j,)) for j in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    gc.collect()
    start = time.perf_counter()
    stop_at[0] = start + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    samples = [s for local in per_client for s in local]
    wrong = sum(1 for *_, ok in samples if not ok)
    out.ops(len(samples) + len(errors), wrong + len(errors))
    if wrong:
        out.failures.append(f"serve burst {index}: {wrong} decisions differ from the reference")
    out.failures.extend(f"serve burst {index}: {e}" for e in errors)
    out.requests.extend((pid, t0, t1) for pid, t0, t1, _ in samples)
    out.burst_decisions.append(len(samples))
    out.burst_wall_s.append(wall)


def check_batcher(out: Outcome, server: ModelServer) -> None:
    batcher = out.batcher = server.stats()["batcher"]
    out.check(
        batcher["timeout_flushes"] <= MAX_TIMEOUT_FLUSH_SHARE * max(batcher["batches"], 1),
        f"serve: {batcher['timeout_flushes']} of {batcher['batches']} batches "
        f"flushed on the wait timer",
    )


# ----------------------------------------------------------------------
# set-up and rounds
# ----------------------------------------------------------------------
def setup(w: Workload, work: Path, seed: int, out: Outcome, tampered: bool, index: int):
    """One timed set-up; returns (inputs, served).

    serve_chaos: inputs, then the served run is produced (after the
    first set-up its ``CrossModalPipeline.run`` also counts as an adapt
    sample), loaded and warmed, and its reference decisions computed —
    all inside ``setup_s``.  Adapt workloads: inputs only; :func:`first_pass`
    deploys afterwards, untimed.
    """
    gc.collect()
    t0 = time.perf_counter()
    inputs = build_inputs(w)
    served = None
    if w.chaos:
        run_dir = work / f"served-{index}"
        seconds, result = adapt(w, inputs, run_dir)
        check_adapted(out, w, result, None, f"served run {index}")
        served = deploy(w, inputs, run_dir, result, seed, tampered)
        if index > 0:  # the first run of a process also warms it up
            out.adapt_s.append(seconds)
    out.setup_s.append(time.perf_counter() - t0)
    return inputs, served


def first_pass(w: Workload, inputs: Inputs, work: Path, seed: int, out: Outcome, tampered: bool) -> Served:
    """Adapt workloads: an untimed checkpointed run that warms the
    process and leaves the run directory the resume and serve phases
    use, then its deployment."""
    run_dir = work / "first"
    _, result = adapt(w, inputs, run_dir)
    check_adapted(out, w, result, None, "first pass")
    return deploy(w, inputs, run_dir, result, seed, tampered)


def start(w: Workload, work: Path, seed: int, out: Outcome, tampered: bool):
    inputs, served = setup(w, work, seed, out, tampered, 0)
    if served is None:
        served = first_pass(w, inputs, work, seed, out, tampered)
    out.auprc = served.result.metrics["auprc"]
    return inputs, served


def extra_setup(w: Workload, work: Path, seed: int, out: Outcome, index: int) -> None:
    _, served = setup(w, work, seed, out, False, index)
    if served is not None:
        served.server.close()
        shutil.rmtree(served.run_dir)


def measure(w: Workload, seconds: float, seed: int, work: Path, tampered: bool) -> Outcome:
    """The untraced run behind the end-to-end metrics."""
    out = Outcome()
    inputs, served = start(w, work, seed, out, tampered)
    with served.server:
        began = time.perf_counter()
        index, round_s = 0, 0.0
        # stop before a round that would end past ``seconds``
        while index < w.min_rounds or time.perf_counter() - began + round_s <= seconds:
            round_began = time.perf_counter()
            extra_setup(w, work, seed, out, index + 1)
            adapt_rep(w, inputs, work, served, out, index)
            replay_rep(w, inputs, served, out, index)
            burst(served, out, w.burst_s, seed, index)
            round_s = time.perf_counter() - round_began
            index += 1
        check_batcher(out, served.server)
    return out
