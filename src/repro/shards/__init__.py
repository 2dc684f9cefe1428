"""Out-of-core sharded data plane (DESIGN.md §16).

Corpora, feature tables, and label matrices become sequences of
content-hashed *shard artifacts* in a :class:`~repro.runs.store.RunStore`
plus one small JSON manifest listing shard refs and row ranges.  The
manifest hash therefore chains over every shard hash, so checkpoint
fingerprints built on it (the PR 4 Merkle machinery) pin the exact
sharded bytes.

Dense numeric/embedding columns travel in a binary container
(:mod:`repro.shards.codec`) that memory-maps straight off the store
file; everything else rides in a JSON rows part.  Streaming accessors
(``iter_shards`` / ``iter_rows``) hold one shard at a time, which is
what makes peak RSS O(shard) instead of O(corpus) in the sharded stage
drivers (:mod:`repro.shards.stages`).

Equivalence contract: a stage run sharded must produce byte-identical
results to the unsharded run — across shard sizes and executor
backends.  ``tests/test_shard_equivalence.py`` is the differential
harness enforcing it, crash-resume at shard boundaries included.
"""

from repro.shards.codec import (
    decode_dense,
    decode_table_shard,
    encode_dense,
    encode_table_shard,
    mmap_dense,
)
from repro.shards.corpus import ShardedCorpus, build_sharded_corpus
from repro.shards.layout import shard_of_row, shard_ranges
from repro.shards.stages import (
    ShardedVotesResult,
    apply_lfs_sharded,
    featurize_corpus_sharded,
    run_mapreduce_sharded,
)
from repro.shards.table import ShardedTable, ShardedTableWriter

__all__ = [
    "ShardedCorpus",
    "ShardedTable",
    "ShardedTableWriter",
    "ShardedVotesResult",
    "apply_lfs_sharded",
    "build_sharded_corpus",
    "decode_dense",
    "decode_table_shard",
    "encode_dense",
    "encode_table_shard",
    "featurize_corpus_sharded",
    "mmap_dense",
    "run_mapreduce_sharded",
    "shard_of_row",
    "shard_ranges",
]
