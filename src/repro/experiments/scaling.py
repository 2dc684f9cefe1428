"""Scaling-curve benchmark: graph-build cost vs corpus size per backend.

The exact kNN build is O(n²) — the asymptotic wall between this
pipeline and "millions of users" world sizes (ROADMAP).  This
experiment sweeps corpus size × graph backend and measures, per cell:

* build wall time plus per-stage timings from the obs spans
  (channel prep, hashing, bucketing, scoring, symmetrization);
* structural quality against the exact oracle at the same size
  (:func:`~repro.propagation.recall.compare_graphs`);
* downstream quality: AUPRC of label propagation over the approximate
  graph vs over the oracle, from identical seeds
  (:func:`~repro.propagation.recall.propagation_auprc_delta`).

The corpus is a planted-cluster feature table (clustered embeddings +
cluster-correlated categorical tokens + noisy binary labels), so
ground truth for the downstream AUPRC exists at every size and the
benchmark is self-contained — no world generation in the timing path.

Everything lands in ``BENCH_scaling.json``: the artifact that shows
near-linear approximate builds where the exact build is quadratic.

Gates (:meth:`ScalingResult.gates`), on every lsh cell at every size:
``exact_scoring`` (shared edges carry the oracle's weights),
``recall`` (neighbour recall) and ``downstream`` (propagation AUPRC
delta).  The wall-clock targets are recorded, never gated: they
measure the host as much as the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.core.rng import spawn
from repro.datagen.entities import Modality
from repro.experiments.reporting import render_table
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.features.table import FeatureTable
from repro.obs.bench import BenchArtifact
from repro.propagation.graph import GraphConfig, SimilarityGraph, build_knn_graph
from repro.propagation.propagate import LabelPropagation
from repro.propagation.recall import compare_graphs, propagation_auprc_delta

__all__ = [
    "DEFAULT_SIZES",
    "ScalingCell",
    "ScalingResult",
    "planted_table",
    "run_scaling",
]

DEFAULT_SIZES = (600, 1200, 2400, 4800, 9600)
DEFAULT_BACKENDS = ("exact", "lsh")

#: per-stage spans worth splitting out in the artifact, by backend
_STAGE_SPANS = (
    "graph.channels", "graph.hash", "graph.bucket", "graph.score",
    "graph.symmetrize",
)

#: gate bounds on every lsh cell: max |weight - oracle weight| over
#: shared edges, neighbour-recall floor, max |AUPRC delta|
MAX_WEIGHT_DIVERGENCE = 1e-6
RECALL_FLOOR = 0.9
MAX_AUPRC_DELTA = 0.02


def planted_table(
    n: int,
    seed: int = 0,
    n_clusters: int | None = None,
    dim: int = 32,
    label_noise: float = 0.08,
) -> tuple[FeatureTable, np.ndarray]:
    """A clustered feature table with known labels.

    Points sit near one of ``n_clusters`` embedding centroids and carry
    that cluster's categorical token (plus a uniform noise token).
    Labels follow the cluster's class with ``label_noise`` flips — so
    similarity structure predicts labels, as in the paper's graphs.

    By default the cluster count grows with ``n`` (constant ~100-point
    clusters): a growing corpus means more organizations, not bigger
    ones, and it keeps the neighbourhood structure comparable across
    the sweep's sizes.
    """
    if n_clusters is None:
        n_clusters = max(8, round(n / 100))
    rng = spawn(seed, f"scaling-table-{n}")
    centers = rng.standard_normal((n_clusters, dim)).astype(np.float64)
    cluster_class = (np.arange(n_clusters) % 3 == 0)  # ~1/3 positive
    assign = rng.integers(0, n_clusters, size=n)
    embeddings = centers[assign] + 0.35 * rng.standard_normal((n, dim))
    noise_tokens = rng.integers(0, 8, size=n)
    labels = cluster_class[assign] ^ (rng.random(n) < label_noise)

    schema = FeatureSchema()
    schema.add(FeatureSpec("org_embedding", FeatureKind.EMBEDDING))
    schema.add(FeatureSpec("org_tokens", FeatureKind.CATEGORICAL))
    columns = {
        "org_embedding": [tuple(map(float, e)) for e in embeddings],
        "org_tokens": [
            {f"c{assign[i]}", f"noise{noise_tokens[i]}"} for i in range(n)
        ],
    }
    table = FeatureTable(
        schema,
        columns,
        point_ids=list(range(n)),
        modalities=[Modality.IMAGE] * n,
        labels=labels.astype(np.int64),
    )
    return table, labels.astype(np.int64)


@dataclass
class ScalingCell:
    """One (size, backend) measurement."""

    size: int
    backend: str
    build_seconds: float
    stage_seconds: dict[str, float]
    n_edges: int
    neighbor_recall: float
    edge_recall: float
    max_weight_divergence: float
    auprc: float
    auprc_oracle: float
    auprc_delta: float
    speedup_vs_exact: float


@dataclass
class ScalingResult:
    """The full size × backend sweep."""

    cells: list[ScalingCell]
    sizes: tuple[int, ...]
    backends: tuple[str, ...]
    seed: int
    k: int
    artifact_path: str | None = None
    config_overrides: dict[str, object] = field(default_factory=dict)

    def cell(self, size: int, backend: str) -> ScalingCell:
        for c in self.cells:
            if c.size == size and c.backend == backend:
                return c
        raise KeyError((size, backend))

    def gates(self) -> dict[str, bool]:
        # a sweep without an lsh cell has judged nothing, so it fails
        lsh = [c for c in self.cells if c.backend == "lsh"]
        return {
            "exact_scoring": bool(lsh) and all(
                c.max_weight_divergence <= MAX_WEIGHT_DIVERGENCE for c in lsh
            ),
            "recall": bool(lsh)
            and all(c.neighbor_recall >= RECALL_FLOOR for c in lsh),
            "downstream": bool(lsh)
            and all(abs(c.auprc_delta) <= MAX_AUPRC_DELTA for c in lsh),
        }

    def render(self) -> str:
        rows = []
        for c in self.cells:
            rows.append([
                c.size,
                c.backend,
                f"{c.build_seconds:.3f}",
                f"{c.speedup_vs_exact:.2f}x",
                round(c.neighbor_recall, 3),
                round(c.max_weight_divergence, 6),
                f"{c.auprc_delta:+.4f}",
                c.n_edges,
            ])
        table = render_table(
            ["n", "backend", "build s", "vs exact", "recall",
             "max w-div", "AUPRC delta", "edges"],
            rows,
            title=(
                f"Graph scaling — build time × quality vs the exact oracle "
                f"(k={self.k}, seed={self.seed})"
            ),
        )
        if not any(c.backend == "lsh" for c in self.cells):
            table += (
                "\nno lsh cell measured: the quality gates judge lsh "
                "against the exact oracle, so they fail"
            )
        if self.artifact_path:
            table += f"\n[bench artifact: {self.artifact_path}]"
        return table


def _build_traced(table, config, executor=None):
    """Build a graph under a private tracer; returns (graph, wall
    seconds, per-stage seconds).  The caller's active tracer (if any)
    is restored afterwards."""
    previous = obs.current()
    tracer = obs.enable(obs.Tracer("scaling"))
    try:
        graph = build_knn_graph(table, config, executor=executor)
    finally:
        if previous is not None:
            obs.enable(previous)
        else:
            obs.disable()
    build_spans = tracer.find_spans("graph.build_knn")
    wall = sum(s.duration for s in build_spans)
    stages = {
        name: sum(s.duration for s in tracer.find_spans(name))
        for name in _STAGE_SPANS
        if tracer.find_spans(name)
    }
    return graph, wall, stages


def _graph_config(backend: str, k: int, seed: int, **overrides) -> GraphConfig:
    return GraphConfig(k=k, backend=backend, seed=seed, **overrides)


def _downstream(
    graph: SimilarityGraph,
    oracle: SimilarityGraph,
    labels: np.ndarray,
    seed: int,
    size: int,
) -> tuple[float, float, float]:
    """Propagation AUPRC on the graph vs the oracle, identical seeds."""
    rng = spawn(seed, f"scaling-seeds-{size}")
    n = len(labels)
    n_seeds = max(20, n // 20)
    seed_indices = np.sort(rng.choice(n, size=n_seeds, replace=False))
    seed_labels = labels[seed_indices]
    prior = float(np.clip(labels.mean(), 1e-4, 0.5))
    return propagation_auprc_delta(
        graph,
        oracle,
        seed_indices,
        seed_labels,
        labels,
        propagation=LabelPropagation(prior=prior),
    )


def run_scaling(
    sizes: tuple[int, ...] | list[int] | None = None,
    backends: tuple[str, ...] | list[str] | None = None,
    seed: int = 1,
    k: int = 10,
    out_dir: str | None = None,
    executor=None,
    **config_overrides,
) -> ScalingResult:
    """Sweep corpus size × graph backend; write ``BENCH_scaling.json``.

    ``exact`` is always measured (it is the oracle for recall and the
    speedup denominator) even when not listed in ``backends``.
    ``config_overrides`` pass through to every :class:`GraphConfig`
    (e.g. ``lsh_tables=16``); ``out_dir=None`` resolves to the
    ``REPRO_BENCH_DIR`` env var and then the working directory.
    """
    import os

    sizes = tuple(sizes) if sizes else DEFAULT_SIZES
    backends = tuple(backends) if backends else DEFAULT_BACKENDS
    cells: list[ScalingCell] = []
    artifact = BenchArtifact("scaling", scale=float(max(sizes)), seed=seed)

    with obs.span("experiment.scaling.sweep", sizes=list(sizes)):
        for size in sizes:
            table, labels = planted_table(size, seed=seed)
            oracle, oracle_wall, oracle_stages = _build_traced(
                table, _graph_config("exact", k, seed, **config_overrides),
                executor,
            )
            for backend in backends:
                if backend == "exact":
                    graph, wall, stages = oracle, oracle_wall, oracle_stages
                else:
                    graph, wall, stages = _build_traced(
                        table,
                        _graph_config(backend, k, seed, **config_overrides),
                        executor,
                    )
                quality = compare_graphs(graph, oracle)
                auprc_graph, auprc_oracle, delta = _downstream(
                    graph, oracle, labels, seed, size
                )
                cell = ScalingCell(
                    size=size,
                    backend=backend,
                    build_seconds=wall,
                    stage_seconds=stages,
                    n_edges=quality.n_edges,
                    neighbor_recall=quality.neighbor_recall,
                    edge_recall=quality.edge_recall,
                    max_weight_divergence=quality.max_weight_divergence,
                    auprc=auprc_graph,
                    auprc_oracle=auprc_oracle,
                    auprc_delta=delta,
                    speedup_vs_exact=(oracle_wall / wall) if wall > 0 else 0.0,
                )
                cells.append(cell)
                tag = f"{backend}_n{size}"
                artifact.time(f"build_{tag}", wall)
                for stage, secs in stages.items():
                    artifact.time(f"{stage.removeprefix('graph.')}_{tag}", secs)
                artifact.record(**{
                    f"recall_{tag}": round(cell.neighbor_recall, 4),
                    f"edge_recall_{tag}": round(cell.edge_recall, 4),
                    f"weight_divergence_{tag}": cell.max_weight_divergence,
                    f"auprc_delta_{tag}": round(cell.auprc_delta, 4),
                    f"speedup_{tag}": round(cell.speedup_vs_exact, 3),
                    f"n_edges_{tag}": cell.n_edges,
                })

    largest = max(sizes)
    for backend in backends:
        if backend == "exact":
            continue
        cell = next(
            (c for c in cells if c.size == largest and c.backend == backend),
            None,
        )
        if cell is not None:
            artifact.record(**{
                f"{backend}_meets_wall_target": cell.speedup_vs_exact > 2.0,
                f"{backend}_meets_recall_target": (
                    cell.neighbor_recall >= RECALL_FLOOR
                ),
                f"{backend}_meets_auprc_target": (
                    abs(cell.auprc_delta) <= MAX_AUPRC_DELTA
                ),
            })
    artifact.record(sizes=list(sizes), backends=list(backends), k=k)

    directory = out_dir or os.environ.get("REPRO_BENCH_DIR", ".")
    path = artifact.write(directory)
    return ScalingResult(
        cells=cells,
        sizes=sizes,
        backends=backends,
        seed=seed,
        k=k,
        artifact_path=path,
        config_overrides=dict(config_overrides),
    )
