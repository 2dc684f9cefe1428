"""Out-of-core shard scaling: peak memory vs corpus size at fixed shard size.

The point of the sharded data plane (:mod:`repro.shards`, DESIGN.md
§16) is an O(shard) memory profile: streaming a corpus through
featurize should hold one shard of points and feature rows resident at
a time, no matter how large the corpus is.  This experiment measures
that claim and **gates** on it:

* sweep corpus size × shard size; every cell streams generated points
  through :func:`~repro.shards.build_sharded_corpus` and
  :func:`~repro.shards.featurize_corpus_sharded` — the full corpus is
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

_STAGES = ("corpus", "featurize")


@dataclass
class ShardScaleCell:
    """One (corpus size, shard size) measurement."""

    n_rows: int
    shard_size: int
    n_shards: int
    tracemalloc_peak_bytes: int
    ru_maxrss_kb: int
    stage_seconds: dict[str, float]


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
    from repro.shards import build_sharded_corpus, featurize_corpus_sharded

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
