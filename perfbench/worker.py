"""One workload run, in its own process (started by ``run.py``).

Prints progress lines, then, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with nothing patched;
with ``--trace 1`` they are the per-layer ones, from a run with the
layer wrappers of :mod:`tracing` installed.  Exits 1 when any
correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

# (name, unit) of every metric, in output order
END_TO_END = [
    ("setup_s", "s"), ("adapt_s", "s"), ("auprc", "score"), ("peak_rss_mb", "MB"),
    ("serve_qps", "1/s"), ("serve_p90_ms", "ms"), ("success_ratio", "ratio"),
]
PER_LAYER = [
    ("datagen.generate_s", "s"), ("datagen.points", "count"),
    ("resources.catalog_s", "s"), ("resources.featurize_s", "s"),
    ("resources.featurize_cpu_s", "s"), ("resources.featurize_rows", "count"),
    ("resources.featurize_cells", "count"),
    ("shards.featurize_sharded_s", "s"), ("shards.shards_written", "count"),
    ("mining.generate_s", "s"), ("mining.lfs", "count"),
    ("propagation.graph_s", "s"), ("propagation.graph_nodes", "count"),
    ("propagation.graph_edges", "count"), ("propagation.propagate_s", "s"),
    ("labeling.apply_lfs_s", "s"), ("labeling.lf_votes", "count"),
    ("labeling.em_fit_s", "s"), ("labeling.em_iterations", "count"),
    ("labeling.em_converged", "count"),
    ("models.train_s", "s"), ("models.train_epochs", "count"),
    ("models.train_rows", "count"), ("models.evaluate_s", "s"),
    ("models.score_s", "s"),
    ("core.unattributed_s", "s"),
    ("runs.put_s", "s"), ("runs.put_calls", "count"), ("runs.bytes_written", "bytes"),
    ("runs.get_s", "s"), ("runs.get_calls", "count"), ("runs.bytes_read", "bytes"),
    ("runs.resume_s", "s"),
    ("serving.load_s", "s"), ("serving.decide_batch_s", "s"),
    ("serving.batches", "count"), ("serving.mean_batch", "count"),
    ("serving.timeout_flushes", "count"), ("serving.queue_wait_ms", "ms"),
    ("serving.samples", "count"), ("serving.p50_ms", "ms"),
    ("serving.cache_fresh", "count"), ("serving.cache_stale", "count"),
    ("serving.cache_miss", "count"),
    ("resilience.attempts", "count"), ("resilience.retries", "count"),
    ("resilience.fallbacks", "count"), ("resilience.useful_ratio", "ratio"),
    ("host.calib_s", "s"), ("host.nproc", "count"), ("host.blas_threads", "count"),
    ("obs.trace_overhead_s", "s"),
]
#: top-level spans of the set-up and deploy steps
SETUP_SPANS = ("datagen.generate", "resources.catalog", "serving.load")


def host_info() -> dict:
    return {
        "calib_s": wl.median([wl.host_probe() for _ in range(5)]),
        "nproc": os.cpu_count() or 1,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def end_to_end_metrics(out: wl.Outcome) -> dict[str, float]:
    lat_ms = out.latencies_ms()
    return {
        # the first set-up ran in a cold process
        "setup_s": wl.median(out.setup_s[1:]),
        "adapt_s": wl.median(out.adapt_s),
        "auprc": out.auprc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "serve_qps": out.serve_qps(),
        "serve_p90_ms": float(np.percentile(lat_ms, 90)),
        "success_ratio": (out.attempted - out.failed) / max(out.attempted, 1),
    }


def measure_traced(w, seconds, seed, work: Path, tampered: bool, host: dict):
    """The traced run behind the per-layer metrics.

    Traced: one set-up (adapt workloads: with the first pass and its
    deployment), one adapt, two replays and one serve burst.  One more
    adapt runs untraced right before the traced one; the difference is
    the tracing overhead.
    """
    tracer = tracing.Tracer()
    out = wl.Outcome()
    try:
        tracing.install_layer_wrappers(tracer)
        inputs, served = wl.start(w, work, seed, out, tampered)
        tracer.uninstall()
        with served.server:
            wl.adapt_rep(w, inputs, work, served, out, 0)
            tracing.install_layer_wrappers(tracer)
            wl.adapt_rep(w, inputs, work, served, out, 1)
            root = tracer.roots("core.run")[-1]
            for index in range(2):
                wl.replay_rep(w, inputs, served, out, index)
            tracing.wrap_model_scoring(tracer, served.server.artifacts.model)
            serve_start = time.perf_counter()
            wl.burst(served, out, max(w.burst_s, seconds / 4), seed, 0)
            wl.check_batcher(out, served.server)
            cache = served.server.stats()["cache"]
            health = served.server.policy.health_report()
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, root, serve_start, out, cache, health)
    metrics["obs.trace_overhead_s"] = out.adapt_s[-1] - out.adapt_s[-2]
    for key in ("calib_s", "nproc", "blas_threads"):
        metrics[f"host.{key}"] = host[key]
    return out, metrics


def add_spans(metrics: dict[str, float], spans) -> None:
    """Add the self times (metric ``<span name>_s``), CPU times and
    counters of ``spans``."""
    for span in spans:
        metrics[f"{span.name}_s"] += span.self_s
        if span.name == "resources.featurize":
            metrics["resources.featurize_cpu_s"] += span.cpu_s
        for name, value in span.counts.items():
            metrics[name] += value


def queue_wait_ms(serve_spans, out: wl.Outcome) -> float:
    """Median of (request latency - its batch's decide_batch time).

    A request joins the ``decide_batch`` span that served its point id
    inside the request's own [start, end] interval.
    """
    by_point: dict[int, list[tracing.Span]] = {}
    for span in serve_spans:
        if span.name == "serving.decide_batch":
            for pid in span.point_ids:
                by_point.setdefault(pid, []).append(span)
    waits = []
    for pid, t0, t1 in out.requests:
        for span in by_point.get(pid, ()):
            if span.start >= t0 and span.end <= t1:
                waits.append((t1 - t0) - span.duration)
                break
    return float(np.median(waits) * 1e3) if waits else 0.0


def layer_metrics(tracer, root, serve_start, out, cache, health) -> dict[str, float]:
    """Per-layer numbers, each summed over the spans it is about.

    Set-up layers: the top-level set-up and deploy spans.  Adapt layers:
    the traced adapt's subtree.  ``runs.get*``: the replays' subtrees.
    Serving layers: spans inside the serve burst.
    """
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    spans = tracer.spans
    add_spans(metrics, [s for s in spans if s.parent is None and s.name in SETUP_SPANS])
    add_spans(metrics, tracer.subtree(root)[1:])
    for replay in tracer.roots("core.run", after=root):
        add_spans(metrics, tracer.subtree(replay)[1:])
    serve_spans = [s for s in spans if s.start >= serve_start]
    add_spans(metrics, serve_spans)
    metrics["core.unattributed_s"] = spans[root].self_s
    batcher = out.batcher
    metrics.update({
        "serving.batches": batcher["batches"],
        "serving.mean_batch": batcher["requests"] / max(batcher["batches"], 1),
        "serving.timeout_flushes": batcher["timeout_flushes"],
        "serving.queue_wait_ms": queue_wait_ms(serve_spans, out),
        "serving.samples": len(out.requests),
        "serving.p50_ms": float(np.percentile(out.latencies_ms(), 50)),
        "runs.resume_s": wl.median(out.resume_s),
        "serving.cache_fresh": cache["fresh_hits"],
        "serving.cache_stale": cache["stale_hits"],
        "serving.cache_miss": cache["misses"],
        "resilience.attempts": health.total_attempts,
        "resilience.retries": health.total_retries,
        "resilience.fallbacks": health.total_fallbacks,
        "resilience.useful_ratio": (
            sum(h.successes for h in health.services.values()) / health.total_attempts
            if health.total_attempts else 0.0
        ),
    })
    return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--tamper-reference", action="store_true")
    return parser.parse_args(argv)


def fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def main(argv=None) -> int:
    args = parse_args(argv)
    w = wl.WORKLOADS[args.workload]
    if args.tiny:
        w = wl.tiny(w)
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    host = host_info()
    print(
        f"perfbench {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace} | "
        f"host nproc={host['nproc']} blas_threads={host['blas_threads']} "
        f"python={host['python']} numpy={host['numpy']} calib_s={host['calib_s']:.4f}",
        flush=True,
    )
    gc.collect()
    try:
        if args.trace:
            out, metrics = measure_traced(
                w, args.seconds, args.seed, work, args.tamper_reference, host
            )
            units = PER_LAYER
        else:
            out = wl.measure(w, args.seconds, args.seed, work, args.tamper_reference)
            metrics = end_to_end_metrics(out)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"setup_s samples {fmt(out.setup_s)}")
    print(f"adapt_s samples {fmt(out.adapt_s)}")
    print(f"resume_s samples {fmt(out.resume_s)}")
    per_burst = [n / s for n, s in zip(out.burst_decisions, out.burst_wall_s)]
    print(f"serve_qps per burst {fmt(per_burst)}")
    lat_ms = out.latencies_ms()
    print(
        f"serve: {len(lat_ms)} latency samples, p50 {np.percentile(lat_ms, 50):.3f} ms, "
        f"p90 {np.percentile(lat_ms, 90):.3f} ms; {out.batcher['timeout_flushes']} of "
        f"{out.batcher['batches']} batches flushed on the wait timer"
    )
    for name, unit in units:
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    for failure in out.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not out.failures and out.failed == 0
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
