"""LSH candidate generation for the approximate kNN graph backend.

Random-hyperplane signatures over embedding channels and minhash
banding over categorical channels; nodes sharing a bucket in any hash
table become candidates.  O(n · tables · candidates).  Every candidate
pair is scored with the exact Algorithm-1 similarity
(:func:`score_pairs`), so approximation changes the candidate set only
— never the weight of a surviving edge.

Determinism contract: every random decision draws from an RNG stream
derived from ``(config.seed, stage)``.  Shards are fixed by
``(n, block_size)`` — not by the executor's worker count — and shard
results merge in shard order, so for a fixed seed the graph is
byte-identical across the serial/thread/process executors and across
runs.  Because approximation changes *results* (unlike exec backends),
run fingerprints must include the graph backend and its parameters;
see ``CrossModalPipeline.graph_config``.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.core.exceptions import GraphError
from repro.core.rng import derive_seed
from repro.exec import Executor
from repro.features.schema import FeatureKind

__all__ = ["lsh_edges", "score_pairs"]

#: sentinel minhash value for present-but-empty categorical sets, so
#: all-empty sets (Jaccard 1 with each other) share a bucket
_EMPTY_SET_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)

_MIX = np.uint64(0x9E3779B97F4A7C15)


def score_pairs(channels, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact Algorithm-1 similarity for explicit ``(rows[i], cols[i])``
    pairs, accumulated over all channels (float32, in [0, 1])."""
    numerator = np.zeros(len(rows), dtype=np.float32)
    denominator = np.zeros(len(rows), dtype=np.float32)
    for channel in channels:
        channel.accumulate_pairs(rows, cols, numerator, denominator)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denominator > 0, numerator / denominator, 0.0).astype(
            np.float32
        )


def _top_k_edges(
    channels,
    node_ids: np.ndarray,
    cand_offsets: np.ndarray,
    cand_flat: np.ndarray,
    k: int,
    min_weight: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact-score each node's candidate list, keep its best ``k``.

    ``cand_flat[cand_offsets[i]:cand_offsets[i+1]]`` are the candidate
    neighbours of ``node_ids[i]``.  Ties break on the smaller neighbour
    index so the selection is order-independent.
    """
    pair_rows = np.repeat(node_ids, np.diff(cand_offsets))
    weights = score_pairs(channels, pair_rows, cand_flat)
    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    wts_out: list[np.ndarray] = []
    for i, node in enumerate(node_ids):
        lo, hi = cand_offsets[i], cand_offsets[i + 1]
        if lo == hi:
            continue
        cand = cand_flat[lo:hi]
        wts = weights[lo:hi]
        order = np.lexsort((cand, -wts))[:k]
        keep_idx = order[wts[order] >= min_weight]
        if len(keep_idx) == 0:
            continue
        rows_out.append(np.full(len(keep_idx), node, dtype=np.int64))
        cols_out.append(cand[keep_idx].astype(np.int64))
        wts_out.append(wts[keep_idx].astype(np.float64))
    if not rows_out:
        empty = np.empty(0)
        return empty.astype(np.int64), empty.astype(np.int64), empty
    return (
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(wts_out),
    )


class _LSHSignatureTask:
    """Per-shard bucket-key computation (picklable, pure).

    For each hashing channel a node gets one ``uint64`` key per hash
    table: packed random-hyperplane sign bits for embedding channels,
    mixed minhash rows for categorical channels.
    """

    __slots__ = ("channels", "plans")

    def __init__(self, channels, plans) -> None:
        self.channels = channels
        self.plans = plans

    def __call__(self, bounds: tuple[int, int]) -> list[np.ndarray]:
        start, stop = bounds
        keys: list[np.ndarray] = []
        for channel_idx, plan in self.plans:
            channel = self.channels[channel_idx]
            if channel.kind is FeatureKind.EMBEDDING:
                keys.append(_embedding_keys(channel, plan, start, stop))
            else:
                keys.append(_minhash_keys(channel, plan, start, stop))
        return keys


def _embedding_keys(channel, planes: np.ndarray, start: int, stop: int) -> np.ndarray:
    """(b, tables) uint64 keys from packed hyperplane sign bits.

    ``planes`` has shape (tables, bits, dim)."""
    n_tables, bits, dim = planes.shape
    block = channel.matrix[start:stop]
    signs = (
        block @ planes.reshape(n_tables * bits, dim).T >= 0.0
    ).reshape(-1, n_tables, bits)
    powers = (np.uint64(1) << np.arange(bits, dtype=np.uint64))
    return signs.astype(np.uint64) @ powers


def _minhash_keys(
    channel, coeffs: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """(b, tables) uint64 keys: ``band_rows`` minhash rows mixed per table.

    ``coeffs`` has shape (tables, band_rows, 2) holding the (a, b) of
    each universal hash ``h(t) = a * (t + 1) + b`` over uint64 (natural
    wraparound).  Present-but-empty sets map to a shared sentinel so
    pairs of empty sets (Jaccard 1) stay candidates.
    """
    binary = channel.binary
    indptr = binary.indptr[start:stop + 1]
    tokens = binary.indices[indptr[0]:indptr[-1]].astype(np.uint64) + np.uint64(1)
    starts = (indptr[:-1] - indptr[0]).astype(np.int64)
    lengths = np.diff(indptr)
    b = stop - start
    n_tables, band_rows = coeffs.shape[0], coeffs.shape[1]
    keys = np.zeros((b, n_tables), dtype=np.uint64)
    empty = lengths == 0
    for t in range(n_tables):
        acc = np.full(b, _EMPTY_SET_SENTINEL, dtype=np.uint64)
        for r in range(band_rows):
            a_coef, b_coef = coeffs[t, r]
            hashed = a_coef * tokens + b_coef
            if len(tokens):
                # reduceat needs in-range starts; empty rows are fixed
                # up with the sentinel below
                safe_starts = np.minimum(starts, len(tokens) - 1)
                row_min = np.minimum.reduceat(hashed, safe_starts)
            else:
                row_min = np.zeros(b, dtype=np.uint64)
            row_min = row_min.astype(np.uint64)
            row_min[empty] = _EMPTY_SET_SENTINEL
            acc = acc * _MIX + row_min
        keys[:, t] = acc
    return keys


class _LSHScoreTask:
    """Per-shard candidate gather + exact scoring (picklable, pure).

    A node's candidates are the members of every bucket it belongs to.
    Oversized candidate sets keep the ``max_candidates`` nodes with the
    most shared buckets (collision count — the standard LSH candidate
    ranking): true neighbours collide in many tables while members of
    big uninformative buckets collide in few, so the cap sheds junk
    first.  Ties break on the smaller index; the whole pass is
    deterministic.
    """

    __slots__ = (
        "channels", "bucket_members", "node_bucket_indptr",
        "node_bucket_flat", "k", "min_weight", "max_candidates",
    )

    def __init__(
        self, channels, bucket_members, node_bucket_indptr, node_bucket_flat,
        k, min_weight, max_candidates,
    ) -> None:
        self.channels = channels
        self.bucket_members = bucket_members
        self.node_bucket_indptr = node_bucket_indptr
        self.node_bucket_flat = node_bucket_flat
        self.k = k
        self.min_weight = min_weight
        self.max_candidates = max_candidates

    def __call__(
        self, bounds: tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        start, stop = bounds
        node_ids: list[int] = []
        cand_lists: list[np.ndarray] = []
        n_capped = 0
        for node in range(start, stop):
            lo = self.node_bucket_indptr[node]
            hi = self.node_bucket_indptr[node + 1]
            if lo == hi:
                continue
            members = np.concatenate(
                [self.bucket_members[b] for b in self.node_bucket_flat[lo:hi]]
            )
            cand, counts = np.unique(members, return_counts=True)
            keep = cand != node
            cand, counts = cand[keep], counts[keep]
            if len(cand) == 0:
                continue
            if len(cand) > self.max_candidates:
                order = np.lexsort((cand, -counts))[: self.max_candidates]
                cand = np.sort(cand[order])
                n_capped += 1
            node_ids.append(node)
            cand_lists.append(cand)
        if not node_ids:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0), 0
        offsets = np.zeros(len(cand_lists) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in cand_lists], out=offsets[1:])
        rows, cols, wts = _top_k_edges(
            self.channels,
            np.asarray(node_ids, dtype=np.int64),
            offsets,
            np.concatenate(cand_lists),
            self.k,
            self.min_weight,
        )
        return rows, cols, wts, n_capped


def lsh_edges(
    channels,
    n: int,
    k: int,
    config,
    bounds: list[tuple[int, int]],
    executor: Executor,
    span,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed kNN edges ``(rows, cols, weights)`` over LSH candidates.

    ``channels`` are the graph's precomputed per-feature arrays,
    ``config`` its :class:`~repro.propagation.graph.GraphConfig` and
    ``bounds`` its node shards.  Requires at least one embedding or
    categorical channel (numeric channels contribute to edge weights
    but cannot be hashed).
    """
    plans = _sample_plans(channels, config)
    if not plans:
        raise GraphError(
            "lsh backend needs at least one categorical or embedding "
            "feature to hash; use backend='exact' for purely numeric tables"
        )
    with obs.span("graph.hash", n_tables=config.lsh_tables):
        sig_task = _LSHSignatureTask(channels, plans)
        shard_keys = list(executor.imap_ordered(sig_task, bounds))
    # (n, tables) keys per hashing channel, merged in shard order
    channel_keys = [
        np.concatenate([keys[c] for keys in shard_keys])
        for c in range(len(plans))
    ]

    with obs.span("graph.bucket") as bucket_span:
        bucket_members, node_bucket_indptr, node_bucket_flat = (
            _build_buckets(channels, plans, channel_keys, n, config)
        )
        bucket_span.set_gauge("n_buckets", len(bucket_members))

    with obs.span("graph.score"):
        score_task = _LSHScoreTask(
            channels, bucket_members, node_bucket_indptr, node_bucket_flat,
            k, config.min_weight, config.lsh_max_candidates,
        )
        rows_out, cols_out, wts_out = [], [], []
        for rows, cols, wts, n_capped in executor.imap_ordered(
            score_task, bounds
        ):
            span.add_counter("candidate_capped_nodes", n_capped)
            rows_out.append(rows)
            cols_out.append(cols)
            wts_out.append(wts)
    return (
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(wts_out),
    )


def _sample_plans(channels, config):
    """One hashing plan per hashable channel, from the global
    ``(seed, "lsh-plans")`` stream (shared by every shard)."""
    rng = np.random.default_rng(derive_seed(config.seed, "lsh-plans"))
    plans = []
    for idx, channel in enumerate(channels):
        if channel.kind is FeatureKind.EMBEDDING:
            dim = channel.matrix.shape[1]
            planes = rng.standard_normal(
                (config.lsh_tables, dim, config.lsh_bits)
            ).astype(np.float32)
            # (tables, dim, bits) -> (tables, bits, dim) for packing
            plans.append((idx, np.ascontiguousarray(planes.transpose(0, 2, 1))))
        elif channel.kind is FeatureKind.CATEGORICAL:
            coeffs = rng.integers(
                1, 2**63, size=(config.lsh_tables, config.lsh_band_rows, 2),
                dtype=np.uint64,
            )
            coeffs[..., 0] |= np.uint64(1)  # odd multipliers mix better
            plans.append((idx, coeffs))
    return plans


def _build_buckets(channels, plans, channel_keys, n, config):
    """Group nodes by (channel, table, key); oversized buckets are
    subsampled with a dedicated RNG stream consumed in deterministic
    (channel, table, sorted-key) order."""
    rng = np.random.default_rng(derive_seed(config.seed, "lsh-buckets"))
    bucket_members: list[np.ndarray] = []
    pair_nodes: list[np.ndarray] = []
    pair_buckets: list[np.ndarray] = []
    for (channel_idx, _plan), keys in zip(plans, channel_keys):
        present_nodes = np.flatnonzero(channels[channel_idx].present)
        if len(present_nodes) == 0:
            continue
        for t in range(keys.shape[1]):
            table_keys = keys[present_nodes, t]
            order = np.argsort(table_keys, kind="stable")
            sorted_nodes = present_nodes[order]
            sorted_keys = table_keys[order]
            boundaries = np.flatnonzero(
                np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
            )
            ends = np.r_[boundaries[1:], len(sorted_keys)]
            for lo, hi in zip(boundaries, ends):
                if hi - lo < 2:
                    continue
                members = sorted_nodes[lo:hi]
                if len(members) > config.lsh_bucket_cap:
                    members = np.sort(
                        rng.choice(
                            members, size=config.lsh_bucket_cap,
                            replace=False,
                        )
                    )
                bucket_id = len(bucket_members)
                bucket_members.append(members.astype(np.int64))
                pair_nodes.append(members.astype(np.int64))
                pair_buckets.append(
                    np.full(len(members), bucket_id, dtype=np.int64)
                )
    if not bucket_members:
        indptr = np.zeros(n + 1, dtype=np.int64)
        return [], indptr, np.empty(0, dtype=np.int64)
    nodes_flat = np.concatenate(pair_nodes)
    buckets_flat = np.concatenate(pair_buckets)
    order = np.argsort(nodes_flat, kind="stable")
    nodes_flat = nodes_flat[order]
    buckets_flat = buckets_flat[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr[1:], nodes_flat, 1)
    np.cumsum(indptr, out=indptr)
    return bucket_members, indptr, buckets_flat
