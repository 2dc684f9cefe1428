"""Sharded featurization.

:func:`featurize_corpus_sharded` featurizes a corpus shard-by-shard
into a :class:`~repro.shards.table.ShardedTable`, one shard at a time
on the :mod:`repro.exec` executor grid, so peak RSS is O(shard) +
O(output), not O(corpus).  Per-point RNG streams
(``feat/<point>/<resource>``) depend only on the point and resource,
so the shard grid cannot change a single value — that is the theorem
the differential harness checks by hash.

Crash safety: every completed shard is persisted and recorded in a
:class:`~repro.runs.progress.ProgressManifest` before the
``shard:<tag>:<index>`` crash boundary, so a killed run recomputes only
unfinished shards — and resumes to bit-identical artifacts, which the
harness proves by killing runs at every shard boundary.
"""

from __future__ import annotations

from typing import Any

import repro.obs as obs
from repro.datagen.corpus import Corpus
from repro.exec import Executor, ExecutorConfig
from repro.features.schema import FeatureSchema
from repro.resources.base import OrganizationalResource
from repro.resources.featurize import featurize_corpus
from repro.runs.crash import crash_boundary
from repro.runs.progress import ProgressManifest
from repro.runs.store import ArtifactRef, RunStore
from repro.shards.corpus import ShardedCorpus
from repro.shards.table import ShardedTable, ShardedTableWriter

__all__ = ["featurize_corpus_sharded"]


def _refs_healthy(store: RunStore, refs: list[ArtifactRef | None]) -> bool:
    return all(
        ref is None or store.check(ref) == "healthy" for ref in refs
    )


def _corpus_rows(corpus: Corpus | ShardedCorpus, start: int, stop: int):
    if isinstance(corpus, ShardedCorpus):
        return corpus.rows(start, stop)
    return corpus.points[start:stop]


def featurize_corpus_sharded(
    corpus: Corpus | ShardedCorpus,
    resources: list[OrganizationalResource],
    store: RunStore,
    shard_size: int,
    seed: int = 0,
    include_labels: bool = False,
    policy: Any = None,
    executor: "Executor | ExecutorConfig | str | None" = None,
    progress: ProgressManifest | None = None,
    tag: str = "table",
) -> ShardedTable:
    """Featurize ``corpus`` shard-by-shard into a :class:`ShardedTable`.

    Each shard is an independent :func:`featurize_corpus` call on the
    executor grid; only one shard of points and feature rows is resident
    at a time.  With a ``progress`` manifest, completed shards whose
    artifacts are still healthy are adopted instead of recomputed, and
    damaged ones are transparently rebuilt (per-point RNG streams make
    the rebuild bit-identical).  Degradation reports are per-shard and
    not carried on the sharded handle — a resilience-regime run that
    needs the report should featurize unsharded.
    """
    schema = FeatureSchema(r.spec for r in resources)
    n_rows = len(corpus)
    writer = ShardedTableWriter(
        store, schema, n_rows, shard_size, labeled=include_labels
    )
    name = getattr(corpus, "name", "corpus")
    with obs.span(
        "shards.featurize",
        corpus=name,
        n_rows=n_rows,
        shard_size=shard_size,
        n_shards=len(writer.ranges),
    ) as sp:
        for index, (start, stop) in enumerate(writer.ranges):
            entry = progress.get(index) if progress is not None else None
            if entry is not None and _refs_healthy(
                store,
                [
                    ArtifactRef.from_dict(entry["rows"]),
                    None
                    if entry.get("dense") is None
                    else ArtifactRef.from_dict(entry["dense"]),
                ],
            ):
                writer.adopt(index, entry)
                sp.add_counter("shards_adopted")
                continue
            shard_corpus = Corpus(
                points=list(_corpus_rows(corpus, start, stop)),
                name=f"{name}[{start}:{stop}]",
            )
            table = featurize_corpus(
                shard_corpus,
                resources,
                seed=seed,
                include_labels=include_labels,
                policy=policy,
                executor=executor,
            )
            entry = writer.add_shard(index, table)
            if progress is not None:
                progress.save(index, entry)
            crash_boundary(f"shard:{tag}:{index}")
            sp.add_counter("shards_computed")
    return writer.finish()
