"""Pluggable kNN graph builders: exact oracle, LSH, and NN-descent.

A :class:`GraphBuilder` decides *which* node pairs are considered for
the kNN graph; every backend scores its candidate pairs with the exact
Algorithm-1 similarity (:func:`repro.propagation.graph.score_pairs`),
so approximation changes the candidate set only — never the weight of
a surviving edge.

* ``exact`` — the blockwise O(n²) sweep (the recall oracle).
* ``lsh`` — random-hyperplane signatures over embedding channels and
  minhash banding over categorical channels; nodes sharing a bucket in
  any hash table become candidates.  O(n · tables · candidates).
* ``nn-descent`` — neighbour lists seeded at random and refined by
  local joins (neighbours-of-neighbours, forward and reverse), the
  classic NN-descent iteration [Dong et al., WWW 2011].
  O(n · k · sample · iters).

Determinism contract: every random decision draws from an RNG stream
derived from ``(config.seed, stage, shard)``.  Shards are fixed by
``(n, block_size)`` — not by the executor's worker count — and shard
results merge in shard order, so for a fixed seed each backend's graph
is byte-identical across the serial/thread/process executors and
across runs.  Because approximation changes *results* (unlike exec
backends), run fingerprints must include the graph backend and its
parameters; see ``CrossModalPipeline.graph_config``.

Custom backends register via :func:`register_graph_backend` and become
selectable through ``GraphConfig.backend``.
"""

from __future__ import annotations

import abc

import numpy as np

import repro.obs as obs
from repro.core.exceptions import GraphError
from repro.core.rng import derive_seed
from repro.exec import Executor
from repro.features.schema import FeatureKind

__all__ = [
    "GRAPH_BACKENDS",
    "GraphBuilder",
    "ExactGraphBuilder",
    "LSHGraphBuilder",
    "NNDescentGraphBuilder",
    "get_graph_builder",
    "register_graph_backend",
]

#: registry of backend name -> builder class (see register_graph_backend)
GRAPH_BACKENDS: dict[str, type["GraphBuilder"]] = {}

#: sentinel minhash value for present-but-empty categorical sets, so
#: all-empty sets (Jaccard 1 with each other) share a bucket
_EMPTY_SET_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)

_MIX = np.uint64(0x9E3779B97F4A7C15)


def register_graph_backend(name: str):
    """Class decorator registering a :class:`GraphBuilder` under ``name``."""

    def decorate(cls: type["GraphBuilder"]) -> type["GraphBuilder"]:
        cls.name = name
        GRAPH_BACKENDS[name] = cls
        return cls

    return decorate


def get_graph_builder(name: str) -> "GraphBuilder":
    """Instantiate the registered builder for ``name``."""
    try:
        cls = GRAPH_BACKENDS[name]
    except KeyError:
        raise GraphError(
            f"unknown graph backend {name!r}; available: {sorted(GRAPH_BACKENDS)}"
        ) from None
    return cls()


class GraphBuilder(abc.ABC):
    """Backend contract: produce a symmetric kNN similarity graph.

    ``channels`` are the precomputed per-feature arrays, ``n`` the node
    count, ``k`` the (already clamped) neighbour count.  Builders must
    honour the determinism contract in the module docstring and score
    every edge with the exact Algorithm-1 similarity.
    """

    name: str = "?"

    @abc.abstractmethod
    def build(self, channels, n, k, config, executor: Executor, span):
        """Return a :class:`~repro.propagation.graph.SimilarityGraph`."""


# ----------------------------------------------------------------------
# exact (oracle) backend — the original blockwise O(n²) sweep
# ----------------------------------------------------------------------
@register_graph_backend("exact")
class ExactGraphBuilder(GraphBuilder):
    """Blockwise sweep over every pair; bit-identical to the
    pre-backend implementation and the recall oracle for the others."""

    def build(self, channels, n, k, config, executor, span):
        from repro.propagation.graph import (
            _edges_to_graph,
            _GraphBlockTask,
            _shard_bounds,
        )

        bounds = _shard_bounds(n, config.block_size)
        task = _GraphBlockTask(channels, n, k, config.min_weight)
        rows_out: list[np.ndarray] = []
        cols_out: list[np.ndarray] = []
        weights_out: list[np.ndarray] = []
        with obs.span("graph.score"):
            for block_rows, block_cols, block_weights, n_below in (
                executor.imap_ordered(task, bounds)
            ):
                span.add_counter("blocks", 1)
                span.add_counter("edges_below_min_weight", n_below)
                rows_out.append(block_rows)
                cols_out.append(block_cols)
                weights_out.append(block_weights)
        with obs.span("graph.symmetrize"):
            return _edges_to_graph(
                np.concatenate(rows_out),
                np.concatenate(cols_out),
                np.concatenate(weights_out),
                n,
            )


# ----------------------------------------------------------------------
# shared: score per-node candidate lists and keep the top-k
# ----------------------------------------------------------------------
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
    from repro.propagation.graph import score_pairs

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


# ----------------------------------------------------------------------
# LSH backend
# ----------------------------------------------------------------------
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
        self, shard: tuple[int, tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        shard_index, (start, stop) = shard
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


@register_graph_backend("lsh")
class LSHGraphBuilder(GraphBuilder):
    """Random-hyperplane / minhash-banding candidate generation.

    Requires at least one embedding or categorical channel (numeric
    channels contribute to edge weights but cannot be hashed)."""

    def build(self, channels, n, k, config, executor, span):
        from repro.propagation.graph import _edges_to_graph, _shard_bounds

        plans = self._sample_plans(channels, config)
        if not plans:
            raise GraphError(
                "lsh backend needs at least one categorical or embedding "
                "feature to hash; use backend='exact' for purely numeric tables"
            )
        bounds = _shard_bounds(n, config.block_size)

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
                self._build_buckets(channels, plans, channel_keys, n, config)
            )
            bucket_span.set_gauge("n_buckets", len(bucket_members))

        with obs.span("graph.score"):
            score_task = _LSHScoreTask(
                channels, bucket_members, node_bucket_indptr, node_bucket_flat,
                k, config.min_weight, config.lsh_max_candidates,
            )
            shards = list(enumerate(bounds))
            rows_out, cols_out, wts_out = [], [], []
            for rows, cols, wts, n_capped in executor.imap_ordered(
                score_task, shards
            ):
                span.add_counter("candidate_capped_nodes", n_capped)
                rows_out.append(rows)
                cols_out.append(cols)
                wts_out.append(wts)
        with obs.span("graph.symmetrize"):
            return _edges_to_graph(
                np.concatenate(rows_out),
                np.concatenate(cols_out),
                np.concatenate(wts_out),
                n,
            )

    @staticmethod
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

    @staticmethod
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


# ----------------------------------------------------------------------
# NN-descent backend
# ----------------------------------------------------------------------
class _NNDInitTask:
    """Per-shard random neighbour-list seeding (picklable, pure)."""

    __slots__ = ("channels", "n", "k", "seed")

    def __init__(self, channels, n, k, seed) -> None:
        self.channels = channels
        self.n = n
        self.k = k
        self.seed = seed

    def __call__(
        self, shard: tuple[int, tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        shard_index, (start, stop) = shard
        rng = np.random.default_rng(
            derive_seed(self.seed, f"nnd-init-{shard_index}")
        )
        from repro.propagation.graph import score_pairs

        b = stop - start
        k = min(self.k, self.n - 1)
        nbr = np.empty((b, k), dtype=np.int64)
        for row, node in enumerate(range(start, stop)):
            cand = rng.choice(self.n - 1, size=k, replace=False)
            cand[cand >= node] += 1  # skip self
            nbr[row] = np.sort(cand)
        rows = np.repeat(np.arange(start, stop), k)
        wts = score_pairs(self.channels, rows, nbr.ravel()).reshape(b, k)
        return nbr, wts.astype(np.float32)


class _NNDIterTask:
    """One Jacobi-style local-join refinement over a shard of nodes.

    Reads the *previous* iteration's full neighbour state (so the
    result is independent of shard scheduling), joins each node with
    the neighbours of a sampled subset of its forward+reverse
    neighbours, rescoring everything exactly.
    """

    __slots__ = (
        "channels", "nbr", "wts", "rev_indptr", "rev_flat",
        "k", "sample", "seed", "iteration",
    )

    def __init__(
        self, channels, nbr, wts, rev_indptr, rev_flat, k, sample, seed,
        iteration,
    ) -> None:
        self.channels = channels
        self.nbr = nbr
        self.wts = wts
        self.rev_indptr = rev_indptr
        self.rev_flat = rev_flat
        self.k = k
        self.sample = sample
        self.seed = seed
        self.iteration = iteration

    def __call__(
        self, shard: tuple[int, tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray, int]:
        shard_index, (start, stop) = shard
        rng = np.random.default_rng(
            derive_seed(
                self.seed, f"nnd-iter-{self.iteration}-{shard_index}"
            )
        )
        from repro.propagation.graph import score_pairs

        b = stop - start
        k = self.k
        node_ids = np.arange(start, stop, dtype=np.int64)
        fwd = self.nbr[start:stop]  # (b, k), always k valid entries

        # reverse neighbours, clipped to the first `sample` per node
        # (the reverse lists are in stable source order, so the clip is
        # deterministic); -1 pads short rows
        row_starts = self.rev_indptr[start:stop]
        lengths = self.rev_indptr[start + 1:stop + 1] - row_starts
        take = np.minimum(lengths, self.sample)
        cols = np.arange(self.sample)
        rev = np.full((b, self.sample), -1, dtype=np.int64)
        in_row = cols[None, :] < take[:, None]
        rev[in_row] = self.rev_flat[
            (row_starts[:, None] + cols[None, :])[in_row]
        ]

        # sample `sample` join bases per node from its forward+reverse
        # pool (random keys + argpartition = vectorized subsampling;
        # invalid entries sort last)
        pool = np.concatenate([fwd, rev], axis=1)
        keys = rng.random(pool.shape)
        keys[pool < 0] = np.inf
        base_cols = np.argpartition(keys, kth=self.sample - 1, axis=1)[
            :, : self.sample
        ]
        base = np.take_along_axis(pool, base_cols, axis=1)  # (b, sample)

        # local join: candidates are the bases' own neighbour lists,
        # plus the bases and current neighbours themselves
        nbr_of_base = np.where(
            base[:, :, None] >= 0, self.nbr[np.clip(base, 0, None)], -1
        ).reshape(b, -1)
        cand = np.concatenate([fwd, base, nbr_of_base], axis=1)

        # row-sort so duplicates are adjacent, then mask dups/self/pads
        cand = np.sort(cand, axis=1)
        invalid = np.zeros(cand.shape, dtype=bool)
        invalid[:, 1:] = cand[:, 1:] == cand[:, :-1]
        invalid |= (cand < 0) | (cand == node_ids[:, None])

        valid_flat = ~invalid.ravel()
        pair_rows = np.repeat(node_ids, cand.shape[1])[valid_flat]
        pair_cols = cand.ravel()[valid_flat]
        wts = np.full(cand.shape, -1.0, dtype=np.float32)
        wts[~invalid] = score_pairs(self.channels, pair_rows, pair_cols)

        # each row keeps >= k valid candidates (its k current
        # neighbours survive dedup), so the top-k is always fully valid
        top = np.argpartition(-wts, kth=k - 1, axis=1)[:, :k]
        new_nbr = np.take_along_axis(cand, top, axis=1)
        new_wts = np.take_along_axis(wts, top, axis=1)
        changed = (
            np.sort(new_nbr, axis=1) != np.sort(self.nbr[start:stop], axis=1)
        ).any(axis=1)
        return new_nbr, new_wts, int(changed.sum())


@register_graph_backend("nn-descent")
class NNDescentGraphBuilder(GraphBuilder):
    """Seeded neighbour-list refinement with local joins."""

    def build(self, channels, n, k, config, executor, span):
        from repro.propagation.graph import _edges_to_graph, _shard_bounds

        bounds = _shard_bounds(n, config.block_size)
        shards = list(enumerate(bounds))

        with obs.span("graph.init"):
            init_task = _NNDInitTask(channels, n, k, config.seed)
            parts = list(executor.imap_ordered(init_task, shards))
            nbr = np.concatenate([p[0] for p in parts])
            wts = np.concatenate([p[1] for p in parts])

        with obs.span("graph.iterate") as iter_span:
            for iteration in range(config.nnd_iters):
                rev_indptr, rev_flat = _reverse_lists(nbr, n)
                task = _NNDIterTask(
                    channels, nbr, wts, rev_indptr, rev_flat,
                    k, config.nnd_sample, config.seed, iteration,
                )
                parts = list(executor.imap_ordered(task, shards))
                nbr = np.concatenate([p[0] for p in parts])
                wts = np.concatenate([p[1] for p in parts])
                n_changed = sum(p[2] for p in parts)
                iter_span.add_counter("nnd_iterations", 1)
                span.add_counter("nnd_updated_lists", n_changed)
                if n_changed <= config.nnd_tol * n:
                    break
            iter_span.set_gauge("final_updated_fraction", n_changed / max(n, 1))

        with obs.span("graph.symmetrize"):
            valid = (nbr >= 0) & (wts >= config.min_weight)
            rows = np.repeat(np.arange(n, dtype=np.int64), k)[valid.ravel()]
            cols = nbr.ravel()[valid.ravel()]
            weights = wts.ravel()[valid.ravel()].astype(np.float64)
            return _edges_to_graph(rows, cols, weights, n)


def _reverse_lists(nbr: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR-shaped reverse-neighbour lists from a (n, k) forward array."""
    valid = nbr >= 0
    sources = np.repeat(np.arange(n, dtype=np.int64), nbr.shape[1])[valid.ravel()]
    targets = nbr.ravel()[valid.ravel()]
    order = np.argsort(targets, kind="stable")
    sources = sources[order]
    targets = targets[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr[1:], targets, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, sources
