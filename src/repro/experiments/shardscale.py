"""Out-of-core shard scaling: peak memory vs corpus size at fixed shard size.

The point of the sharded data plane (:mod:`repro.shards`, DESIGN.md
§16) is an O(shard) memory profile: streaming a corpus through
featurize → LF application → MapReduce should hold one shard of points
and feature rows resident at a time, no matter how large the corpus is.
This experiment measures that claim and **gates** on it:

* sweep corpus size × shard size; every cell streams generated points
  through :func:`~repro.shards.build_sharded_corpus`,
  :func:`~repro.shards.featurize_corpus_sharded`,
  :func:`~repro.shards.apply_lfs_sharded`, and
  :func:`~repro.shards.run_mapreduce_sharded` — the full corpus is
  never materialized;
* record the ``tracemalloc`` peak per cell (numpy buffers are tracked)
  plus per-stage wall timings, and ``ru_maxrss`` for context
  (process-monotone across cells, so recorded but never gated);
* verdict: at fixed shard size, growing the corpus by k× must grow the
  traced peak by well under k× (``peak_ratio <= 0.6 * size_ratio``).
  A linear data plane fails this immediately, and the ``sublinear``
  gate makes ``python -m repro.experiments shardscale`` exit 1.

Everything lands in ``BENCH_shardscale.json``.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
import tracemalloc
from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.rng import derive_seed, spawn
from repro.datagen.entities import DataPoint, Modality
from repro.experiments.reporting import render_table
from repro.features.schema import FeatureKind
from repro.labeling.lf import LabelingFunction
from repro.obs.bench import BenchArtifact, bench_dir

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_SHARD_SIZES",
    "ShardScaleCell",
    "ShardScaleResult",
    "run_shardscale",
]

DEFAULT_SIZES = (400, 1600)
DEFAULT_SHARD_SIZES = (64,)

#: peak-RSS growth allowed per unit of corpus-size growth; a linear
#: plane has ratio ~1.0, a constant-memory one ~1/size_ratio
_SUBLINEAR_SLOPE = 0.6

_STAGES = ("corpus", "featurize", "apply_lfs", "mapreduce")


@dataclass
class ShardScaleCell:
    """One (corpus size, shard size) measurement."""

    n_rows: int
    shard_size: int
    n_shards: int
    tracemalloc_peak_bytes: int
    ru_maxrss_kb: int
    stage_seconds: dict[str, float]
    distinct_keys: int


@dataclass
class ShardScaleResult:
    """The sweep plus the sublinearity verdicts it gates on."""

    cells: list[ShardScaleCell]
    #: shard_size -> (size_ratio, peak_ratio, passed)
    verdicts: dict[int, tuple[float, float, bool]]
    seed: int

    def gates(self) -> dict[str, bool]:
        # a sweep that formed no size ratio has shown nothing, so it fails
        return {
            "sublinear": bool(self.verdicts)
            and all(ok for _, _, ok in self.verdicts.values())
        }

    def render(self) -> str:
        rows = []
        for c in self.cells:
            rows.append(
                [
                    c.n_rows,
                    c.shard_size,
                    c.n_shards,
                    f"{c.tracemalloc_peak_bytes / 1e6:.1f}",
                    c.ru_maxrss_kb,
                    *(f"{c.stage_seconds[s]:.2f}" for s in _STAGES),
                ]
            )
        table = render_table(
            ["rows", "shard", "shards", "peak MB", "maxrss KB", *_STAGES],
            rows,
            title=f"Shard scaling — peak memory vs corpus size (seed={self.seed})",
        )
        ratios = render_table(
            ["shard", "rows x", "peak x", "limit x", "sublinear"],
            [
                [shard_size, f"{size_ratio:.1f}", f"{peak_ratio:.2f}",
                 f"{_SUBLINEAR_SLOPE * size_ratio:.2f}", "yes" if ok else "NO"]
                for shard_size, (size_ratio, peak_ratio, ok)
                in sorted(self.verdicts.items())
            ],
            title="(peak growth vs corpus growth per shard size; a ratio "
                  "needs two corpus sizes)",
        )
        if not self.verdicts:
            ratios += (
                "\nno size ratio formed: every shard size ran one corpus "
                "size, so sublinearity is unjudged and the gate fails"
            )
        return table + "\n\n" + ratios


def _stream_points(
    world, task, n: int, seed: int
) -> Iterator[DataPoint]:
    """Generate ``n`` image points one at a time.

    Each point draws from its own ``spawn(seed, tag(point_id))`` stream,
    so generation order — and therefore shard layout — cannot change a
    single byte of any point.
    """
    for pid in range(n):
        rng = spawn(seed, f"shardscale/point/{pid}")
        yield world.generate_point(task, Modality.IMAGE, point_id=pid, rng=rng)


def _threshold_lfs(schema) -> list[LabelingFunction]:
    """Two numeric-threshold LFs over the catalog schema (pure row
    functions, so sharded and unsharded application agree by value)."""
    numeric = [s.name for s in schema if s.kind is FeatureKind.NUMERIC]
    if len(numeric) < 2:
        raise ValueError(
            f"shardscale needs >= 2 numeric features, schema has {numeric}"
        )
    lo, hi = numeric[0], numeric[1]

    def vote_lo(row, name=lo):
        value = row.get(name)
        return 1 if value is not None and float(value) > 0.1 else 0

    def vote_hi(row, name=hi):
        value = row.get(name)
        return -1 if value is not None and float(value) > 0.2 else 0

    return [
        LabelingFunction(f"lf_{lo}_gt", vote_lo, depends_on=(lo,)),
        LabelingFunction(f"lf_{hi}_gt", vote_hi, depends_on=(hi,)),
    ]


def _bucket_mapper(row: dict) -> list[tuple[int, int]]:
    """Decile-bucket every numeric value in the row (commutative count
    job — reducer output is invariant under combiner pre-aggregation,
    the contract sharded MapReduce requires)."""
    out = []
    for value in row.values():
        if isinstance(value, float):
            out.append((min(9, max(0, int(value * 10))), 1))
    return out


def _sum_combiner(key: int, values: list[int]) -> list[int]:
    return [sum(values)]


def _sum_reducer(key: int, values: list[int]) -> int:
    return sum(values)


def run_shardscale(
    sizes: "tuple[int, ...] | list[int] | None" = None,
    shard_sizes: "tuple[int, ...] | list[int] | None" = None,
    seed: int = 1,
    out_dir: str | None = None,
) -> ShardScaleResult:
    """Sweep corpus size × shard size through the sharded data plane."""
    import resource

    from repro.datagen.tasks import classification_task, generate_task_corpora
    from repro.resources.service_sets import build_resource_suite
    from repro.runs.store import RunStore
    from repro.shards import (
        apply_lfs_sharded,
        build_sharded_corpus,
        featurize_corpus_sharded,
        run_mapreduce_sharded,
    )

    sizes = tuple(sizes) if sizes else DEFAULT_SIZES
    shard_sizes = tuple(shard_sizes) if shard_sizes else DEFAULT_SHARD_SIZES

    # world + catalog are built once, outside the measured cells — the
    # plane under test is corpus streaming, not world construction
    config = classification_task("CT1")
    world, task, _splits = generate_task_corpora(
        config, scale=0.05, seed=seed, n_calibration=4000
    )
    catalog = build_resource_suite(world, task, n_history=2500, seed=seed)
    resources = list(catalog)
    from repro.features.schema import FeatureSchema

    schema = FeatureSchema(r.spec for r in resources)
    lfs = _threshold_lfs(schema)
    feat_seed = derive_seed(seed, "featurize")

    cells: list[ShardScaleCell] = []
    for shard_size in shard_sizes:
        for n in sizes:
            workdir = tempfile.mkdtemp(prefix="repro-shardscale-")
            try:
                store = RunStore(workdir)
                gc.collect()
                tracemalloc.start()
                timings: dict[str, float] = {}

                t0 = time.perf_counter()
                corpus = build_sharded_corpus(
                    store,
                    _stream_points(world, task, n, seed),
                    n,
                    shard_size,
                    name=f"shardscale-{n}",
                )
                timings["corpus"] = time.perf_counter() - t0

                t0 = time.perf_counter()
                table = featurize_corpus_sharded(
                    corpus, resources, store, shard_size, seed=feat_seed
                )
                timings["featurize"] = time.perf_counter() - t0

                t0 = time.perf_counter()
                apply_lfs_sharded(lfs, table, store=store)
                timings["apply_lfs"] = time.perf_counter() - t0

                t0 = time.perf_counter()
                counters: dict[str, int] = {}
                run_mapreduce_sharded(
                    (list(shard.iter_rows()) for shard in table.iter_shards()),
                    _bucket_mapper,
                    _sum_reducer,
                    combiner=_sum_combiner,
                    counters=counters,
                )
                timings["mapreduce"] = time.perf_counter() - t0

                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                cells.append(
                    ShardScaleCell(
                        n_rows=n,
                        shard_size=shard_size,
                        n_shards=table.n_shards,
                        tracemalloc_peak_bytes=int(peak),
                        ru_maxrss_kb=int(
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        ),
                        stage_seconds=timings,
                        distinct_keys=int(counters.get("distinct_keys", 0)),
                    )
                )
            finally:
                if tracemalloc.is_tracing():
                    tracemalloc.stop()
                shutil.rmtree(workdir, ignore_errors=True)

    verdicts: dict[int, tuple[float, float, bool]] = {}
    for shard_size in shard_sizes:
        group = sorted(
            (c for c in cells if c.shard_size == shard_size),
            key=lambda c: c.n_rows,
        )
        if len(group) < 2 or group[-1].n_rows <= group[0].n_rows:
            continue
        size_ratio = group[-1].n_rows / group[0].n_rows
        peak_ratio = (
            group[-1].tracemalloc_peak_bytes
            / max(1, group[0].tracemalloc_peak_bytes)
        )
        verdicts[shard_size] = (
            size_ratio,
            peak_ratio,
            peak_ratio <= _SUBLINEAR_SLOPE * size_ratio,
        )

    result = ShardScaleResult(cells=cells, verdicts=verdicts, seed=seed)

    directory = bench_dir(out_dir)
    if directory:
        artifact = BenchArtifact("shardscale", scale=0.0, seed=seed)
        for c in cells:
            tag = f"n{c.n_rows}_s{c.shard_size}"
            for stage, seconds in c.stage_seconds.items():
                artifact.time(f"{tag}.{stage}", seconds)
        artifact.record(
            cells=[
                {
                    "n_rows": c.n_rows,
                    "shard_size": c.shard_size,
                    "n_shards": c.n_shards,
                    "tracemalloc_peak_bytes": c.tracemalloc_peak_bytes,
                    "ru_maxrss_kb": c.ru_maxrss_kb,
                    "stage_seconds": {
                        k: round(v, 4) for k, v in c.stage_seconds.items()
                    },
                    "distinct_keys": c.distinct_keys,
                }
                for c in cells
            ],
            verdicts={
                str(k): {
                    "size_ratio": round(sr, 3),
                    "peak_ratio": round(pr, 3),
                    "sublinear": ok,
                }
                for k, (sr, pr, ok) in verdicts.items()
            },
            sublinear=result.gates()["sublinear"],
        )
        artifact.write(directory)
    return result
