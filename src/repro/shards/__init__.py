"""Out-of-core sharded data plane (DESIGN.md §16).

Corpora and feature tables become sequences of content-hashed *shard
artifacts* in a :class:`~repro.runs.store.RunStore` plus one small
JSON manifest listing shard refs and row ranges.  The manifest hash
therefore chains over every shard hash, so checkpoint fingerprints
built on it pin the exact sharded bytes.

Dense numeric/embedding columns travel in a binary container
(:mod:`repro.shards.codec`) that memory-maps straight off the store
file; everything else rides in a JSON rows part.  Sharded featurize
(:mod:`repro.shards.stages`) reads and writes one shard at a time,
which is what makes its peak RSS O(shard) instead of O(corpus).

Equivalence contract: featurize run sharded must produce byte-identical
results to the unsharded run — across shard sizes and executor
backends.  ``tests/test_shard_equivalence.py`` is the differential
harness enforcing it, crash-resume at shard boundaries included.
"""

from repro.shards.codec import (
    decode_dense,
    decode_table_shard,
    encode_dense,
    encode_table_shard,
)
from repro.shards.corpus import ShardedCorpus, build_sharded_corpus
from repro.shards.layout import shard_of_row, shard_ranges
from repro.shards.stages import featurize_corpus_sharded
from repro.shards.table import ShardedTable, ShardedTableWriter

__all__ = [
    "ShardedCorpus",
    "ShardedTable",
    "ShardedTableWriter",
    "build_sharded_corpus",
    "decode_dense",
    "decode_table_shard",
    "encode_dense",
    "encode_table_shard",
    "featurize_corpus_sharded",
    "shard_of_row",
    "shard_ranges",
]
