"""Sharded stage drivers: featurize, LF application, MapReduce.

Each driver processes one shard at a time on the :mod:`repro.exec`
executor grid, so peak RSS is O(shard) + O(output), not O(corpus):

* :func:`featurize_corpus_sharded` — featurizes shard-by-shard into a
  :class:`~repro.shards.table.ShardedTable`.  Per-point RNG streams
  (``feat/<point>/<resource>``) depend only on the point and resource,
  so the shard grid cannot change a single value — that is the theorem
  the differential harness checks by hash.
* :func:`apply_lfs_sharded` — votes shard-by-shard; the int8 vote
  matrix (a few bytes per row) is the only O(corpus) state.
* :func:`run_mapreduce_sharded` — maps shard batches through the
  existing partition core and folds each shard's groups into a running
  combiner-compressed state, so only distinct keys stay resident.
  Requires the classic MapReduce contract: the reducer's output must be
  invariant under combiner pre-aggregation (combiners may run zero or
  more times).  Values reach the reducer in global input order.

Crash safety mirrors MapReduce partitions one level up: every
completed shard is persisted and recorded in a
:class:`~repro.runs.progress.ProgressManifest` before the
``shard:<tag>:<index>`` crash boundary, so a killed run recomputes only
unfinished shards — and resumes to bit-identical artifacts, which the
harness proves by killing runs at every shard boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

import repro.obs as obs
from repro.core.atomicio import canonical_json
from repro.core.exceptions import IntegrityError
from repro.dataflow.mapreduce import (
    Combiner,
    Key,
    Mapper,
    Reducer,
    _map_partition_core,
    _PartitionTask,
)
from repro.datagen.corpus import Corpus
from repro.exec import Executor, ExecutorConfig, as_executor, iter_chunks
from repro.features.schema import FeatureSchema
from repro.labeling.lf import LabelingFunction
from repro.labeling.matrix import LabelMatrix, apply_lfs
from repro.resources.base import OrganizationalResource
from repro.resources.featurize import featurize_corpus
from repro.runs.crash import crash_boundary
from repro.runs.progress import ProgressManifest
from repro.runs.store import ArtifactRef, RunStore
from repro.shards.corpus import ShardedCorpus
from repro.shards.table import ShardedTable, ShardedTableWriter

__all__ = [
    "ShardedVotesResult",
    "VOTES_KIND",
    "VOTES_MANIFEST_KIND",
    "apply_lfs_sharded",
    "featurize_corpus_sharded",
    "run_mapreduce_sharded",
]

VOTES_KIND = "votes_shard.npy"
VOTES_MANIFEST_KIND = "votes_manifest"
_VOTES_MAGIC = b"RSHV\x01\n"


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


# ----------------------------------------------------------------------
# sharded LF application
# ----------------------------------------------------------------------
def _encode_votes(votes: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(votes, dtype=np.int8)
    header = canonical_json(
        {"format_version": 1, "shape": list(arr.shape)}
    ).encode("utf-8")
    return b"".join(
        [_VOTES_MAGIC, len(header).to_bytes(8, "little"), header, arr.tobytes()]
    )


def _decode_votes(data: bytes) -> np.ndarray:
    if data[: len(_VOTES_MAGIC)] != _VOTES_MAGIC:
        raise IntegrityError(
            "votes shard lacks the RSHV magic; the artifact kind does "
            "not match its content"
        )
    pos = len(_VOTES_MAGIC)
    header_len = int.from_bytes(data[pos : pos + 8], "little")
    pos += 8
    header = json.loads(data[pos : pos + header_len].decode("utf-8"))
    shape = tuple(header["shape"])
    return (
        np.frombuffer(
            data, dtype=np.int8, offset=pos + header_len,
            count=int(np.prod(shape, dtype=np.int64)),
        )
        .reshape(shape)
        .copy()
    )


@dataclass
class ShardedVotesResult:
    """Output of :func:`apply_lfs_sharded`."""

    matrix: LabelMatrix
    #: per-shard vote artifact refs (empty without a store)
    shard_refs: list[ArtifactRef]
    #: the votes manifest ref (None without a store)
    manifest_ref: ArtifactRef | None


def apply_lfs_sharded(
    lfs: list[LabelingFunction],
    table: ShardedTable,
    executor: "Executor | ExecutorConfig | str | None" = None,
    store: RunStore | None = None,
    progress: ProgressManifest | None = None,
    tag: str = "votes",
) -> ShardedVotesResult:
    """Apply ``lfs`` shard-by-shard; only int8 votes accumulate.

    With a ``store``, each shard's votes persist as a content-hashed
    artifact (recorded in ``progress`` for crash resume) and a votes
    manifest chains over the shard hashes.  The returned matrix is
    byte-identical to ``apply_lfs`` over the materialized table: LF
    votes are pure row functions, so shard boundaries cannot move them.

    LF closures do not pickle (see :func:`apply_lfs`), so a process
    executor is downgraded to the thread backend here, mirroring what
    the pipeline does for its own LF application.
    """
    if isinstance(executor, ExecutorConfig) and executor.backend == "process":
        executor = ExecutorConfig(backend="thread", workers=executor.workers)
    elif executor == "process":
        executor = "thread"
    parts: list[np.ndarray] = []
    shard_refs: list[ArtifactRef] = []
    entries: list[dict] = []
    with obs.span(
        "shards.apply_lfs",
        n_rows=table.n_rows,
        n_shards=table.n_shards,
        n_lfs=len(lfs),
    ) as sp:
        for index, (start, stop) in enumerate(table.ranges):
            entry = progress.get(index) if progress is not None else None
            votes: np.ndarray | None = None
            if (
                entry is not None
                and store is not None
                and _refs_healthy(store, [ArtifactRef.from_dict(entry["ref"])])
            ):
                ref = ArtifactRef.from_dict(entry["ref"])
                votes = _decode_votes(store.get_bytes(ref))
                if votes.shape != (stop - start, len(lfs)):
                    votes = None  # stale shape: recompute
            if votes is None:
                shard_matrix = apply_lfs(
                    lfs,
                    table.shard(index),
                    executor=executor,
                )
                votes = shard_matrix.votes
                if store is not None:
                    ref = store.put_bytes(VOTES_KIND, _encode_votes(votes))
                    entry = {"start": start, "stop": stop, "ref": ref.to_dict()}
                    if progress is not None:
                        progress.save(index, entry)
                    crash_boundary(f"shard:{tag}:{index}")
                sp.add_counter("shards_computed")
            else:
                sp.add_counter("shards_adopted")
            if store is not None:
                assert entry is not None
                shard_refs.append(ArtifactRef.from_dict(entry["ref"]))
                entries.append(entry)
            parts.append(votes)
    stacked = (
        np.vstack(parts)
        if parts
        else np.zeros((0, len(lfs)), dtype=np.int8)
    )
    manifest_ref = None
    if store is not None:
        manifest_ref = store.put_json(
            VOTES_MANIFEST_KIND,
            {
                "format_version": 1,
                "kind": "label_matrix",
                "n_rows": table.n_rows,
                "shard_size": table.shard_size,
                "lf_names": [lf.name for lf in lfs],
                "shards": entries,
            },
        )
    return ShardedVotesResult(
        matrix=LabelMatrix(stacked, lfs),
        shard_refs=shard_refs,
        manifest_ref=manifest_ref,
    )


# ----------------------------------------------------------------------
# sharded MapReduce
# ----------------------------------------------------------------------
def run_mapreduce_sharded(
    shard_batches: Any,
    mapper: Mapper,
    reducer: Reducer,
    combiner: Combiner | None = None,
    executor: "Executor | ExecutorConfig | str | None" = None,
    counters: dict[str, int] | None = None,
) -> dict[Key, Any]:
    """MapReduce over an iterator of record batches (one per shard).

    Each batch is mapped on the executor grid (contiguous chunks, so
    value order is input order on every backend) and folded into a
    running grouped state; the ``combiner`` re-compresses every key on
    merge, keeping resident state at O(distinct keys) instead of
    O(records).  The reduce phase runs once, in sorted key order.

    Equivalence with :func:`~repro.dataflow.mapreduce.run_mapreduce`
    holds for jobs honouring the classic contract — reducer output
    invariant under combiner pre-aggregation; such jobs hash
    byte-identically sharded vs unsharded across all backends.
    """
    ex = as_executor(executor)
    grouped_total: dict[Key, list[Any]] = {}
    totals: dict[str, int] = {}
    n_records = 0
    n_shards = 0
    with obs.span(
        "shards.mapreduce", backend=ex.backend, workers=ex.workers
    ) as sp:
        offset = 0
        for batch in shard_batches:
            batch = list(batch)
            n_shards += 1
            n_records += len(batch)
            indexed = [(offset + i, r) for i, r in enumerate(batch)]
            offset += len(batch)
            if ex.backend == "serial" or len(indexed) < 2:
                results = [
                    _map_partition_core(mapper, combiner, indexed, 0, False)
                ]
            else:
                task = _PartitionTask(
                    mapper=mapper,
                    combiner=combiner,
                    record_retries=0,
                    skip_bad_records=False,
                )
                chunks = iter_chunks(indexed, ex.workers)
                results = ex.map_ordered(task, chunks, chunk_size=1)
            for grouped, counts in results:
                for key, values in grouped.items():
                    bucket = grouped_total.setdefault(key, [])
                    bucket.extend(values)
                    if combiner is not None and len(bucket) > len(values):
                        grouped_total[key] = list(combiner(key, bucket))
                for name, value in counts.items():
                    totals[name] = totals.get(name, 0) + value
        output: dict[Key, Any] = {}
        for key in sorted(grouped_total, key=repr):
            output[key] = reducer(key, grouped_total[key])
        sp.add_counter("input_records", n_records)
        sp.add_counter("shards", n_shards)
        sp.add_counter("distinct_keys", len(grouped_total))
    totals["input_records"] = n_records
    totals["distinct_keys"] = len(grouped_total)
    totals["reduced_keys"] = len(output)
    if counters is not None:
        counters.update(totals)
    return output
