"""Similarity-graph construction over a feature table.

The graph uses the paper's Algorithm-1 weights.  *Which* node pairs are
considered depends on ``GraphConfig.backend``, one of
:data:`GRAPH_BACKENDS`:

* ``exact`` — the blockwise O(n²) sweep over every pair (the oracle);
* ``lsh`` — random-hyperplane / minhash-banding candidate generation
  (:mod:`repro.propagation.lsh`).

Edge *weights* are always the exact Algorithm-1 similarity — for each
pair the per-feature contributions are accumulated feature by feature
(Jaccard for categorical features, normalized absolute difference for
numeric features, and shifted cosine for embeddings), and only features
present on both endpoints contribute (matching
:func:`algorithm1_similarity`).  The approximate backend therefore
changes only the candidate set, never the weight of a surviving edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

import repro.obs as obs
from repro.core.exceptions import GraphError
from repro.exec import Executor, ExecutorConfig, as_executor
from repro.features.distance import numeric_ranges
from repro.features.schema import FeatureKind
from repro.features.table import MISSING, FeatureTable
from repro.propagation.lsh import lsh_edges

__all__ = ["GRAPH_BACKENDS", "GraphConfig", "SimilarityGraph", "build_knn_graph"]

#: kNN graph construction backends (``GraphConfig.backend``)
GRAPH_BACKENDS = ("exact", "lsh")


@dataclass(frozen=True)
class GraphConfig:
    """Knobs for graph construction.

    ``features`` — feature names to build edges from (default: all in
    the table).  ``k`` — neighbours kept per node.  ``block_size`` —
    rows per dense block / per candidate shard (memory/speed
    trade-off).  ``min_weight`` — edges below this similarity are
    dropped.  ``feature_weights`` scale a feature's Algorithm-1
    contribution (default 1.0); values are stored as Python floats, so
    a numpy scalar weight builds the same bytes as its float.
    ``backend`` is one of :data:`GRAPH_BACKENDS`; ``seed`` feeds the
    lsh backend's deterministic RNG streams (exact ignores it).

    LSH parameters: ``lsh_tables`` hash tables per hashing channel,
    each combining ``lsh_bits`` random-hyperplane bits (embedding
    channels) or ``lsh_band_rows`` minhash rows (categorical channels);
    per node at most ``lsh_max_candidates`` bucket-mates are scored and
    buckets larger than ``lsh_bucket_cap`` are subsampled.
    """

    features: tuple[str, ...] | None = None
    k: int = 10
    block_size: int = 512
    min_weight: float = 0.05
    feature_weights: dict[str, float] = field(default_factory=dict)
    backend: str = "exact"
    seed: int = 0
    # --- lsh backend ---------------------------------------------------
    lsh_tables: int = 12
    lsh_bits: int = 8
    lsh_band_rows: int = 2
    lsh_max_candidates: int = 128
    lsh_bucket_cap: int = 128

    def __post_init__(self) -> None:
        if self.k < 1:
            raise GraphError(f"k must be >= 1, got {self.k}")
        if self.block_size < 1:
            raise GraphError(f"block_size must be >= 1, got {self.block_size}")
        if not 0.0 <= self.min_weight <= 1.0:
            raise GraphError(
                f"min_weight must be in [0, 1], got {self.min_weight}"
            )
        for name, weight in self.feature_weights.items():
            if not math.isfinite(weight) or weight <= 0:
                raise GraphError(
                    f"feature weight for {name!r} must be a positive finite "
                    f"number, got {weight}"
                )
        # a numpy scalar weight would promote ``weight * sim`` past
        # float32 and shift edge bytes, though the configs compare equal
        object.__setattr__(
            self,
            "feature_weights",
            {name: float(w) for name, w in self.feature_weights.items()},
        )
        for attr in (
            "lsh_tables", "lsh_bits", "lsh_band_rows",
            "lsh_max_candidates", "lsh_bucket_cap",
        ):
            if getattr(self, attr) < 1:
                raise GraphError(f"{attr} must be >= 1, got {getattr(self, attr)}")
        if self.backend not in GRAPH_BACKENDS:
            raise GraphError(
                f"unknown graph backend {self.backend!r}; "
                f"available: {sorted(GRAPH_BACKENDS)}"
            )


@dataclass
class SimilarityGraph:
    """Symmetric weighted graph as a CSR adjacency matrix."""

    adjacency: sparse.csr_matrix
    n_nodes: int

    def degree(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def n_edges(self) -> int:
        return int(self.adjacency.nnz // 2)

    def neighbors(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor indices, edge weights) of one node."""
        row = self.adjacency.getrow(node)
        return row.indices, row.data


class _FeatureChannel:
    """Precomputed per-feature arrays for blockwise similarity."""

    def __init__(self, kind: FeatureKind, weight: float) -> None:
        self.kind = kind
        self.weight = weight
        self.present: np.ndarray | None = None
        # categorical
        self.binary: sparse.csr_matrix | None = None
        self.set_sizes: np.ndarray | None = None
        # numeric
        self.values: np.ndarray | None = None
        self.value_range: float = 1.0
        # embedding
        self.matrix: np.ndarray | None = None

    def accumulate(
        self,
        block: slice,
        numerator: np.ndarray,
        denominator: np.ndarray,
    ) -> None:
        """Add this channel's weighted similarity to a (block, n) panel.

        Byte-identical to the dense formula
        ``numerator += weight * sim * co_present`` (and
        ``denominator += weight * co_present``), without its panels: a
        pair that is not co-present (or, for categorical channels, has
        an empty intersection and not two empty sets) contributes ±0.0,
        and a sum that starts at +0.0 never becomes −0.0, so skipping
        those addends is exact.  Every remaining addend goes through the
        same float32 ops as the dense formula, in channel order.
        """
        present = self.present
        assert present is not None
        block_present = present[block]
        if not (block_present.any() and present.any()):
            return
        co_present = (
            True
            if block_present.all() and present.all()
            else np.logical_and.outer(block_present, present)
        )
        if self.kind is FeatureKind.CATEGORICAL:
            self._add_categorical(block, block_present, numerator)
        else:
            sim = (
                self._numeric_block(block)
                if self.kind is FeatureKind.NUMERIC
                else self._embedding_block(block)
            )
            np.add(numerator, self.weight * sim, out=numerator, where=co_present)
        np.add(denominator, self.weight, out=denominator, where=co_present)

    def _add_categorical(
        self, block: slice, block_present: np.ndarray, numerator: np.ndarray
    ) -> None:
        """Add ``weight * Jaccard`` on the pairs where it is nonzero: the
        nonzeros of the sparse intersection (only present rows carry
        tokens, so these pairs are co-present) and the co-present pairs
        whose sets are both empty, since Jaccard(∅, ∅) := 1."""
        assert self.binary is not None and self.set_sizes is not None
        sizes = self.set_sizes
        # binary is float32 CSR, so the intersection counts stay float32
        inter = self.binary[block] @ self.binary.T
        rows = np.repeat(np.arange(inter.shape[0]), np.diff(inter.indptr))
        cols = inter.indices
        union = sizes[block][rows] + sizes[cols] - inter.data
        numerator[rows, cols] += self.weight * (inter.data / union)
        empty_rows = np.flatnonzero(block_present & (sizes[block] == 0))
        empty_cols = np.flatnonzero(self.present & (sizes == 0))
        if empty_rows.size and empty_cols.size:
            numerator[np.ix_(empty_rows, empty_cols)] += self.weight

    def _numeric_block(self, block: slice) -> np.ndarray:
        assert self.values is not None
        sim = self.values[block][:, None] - self.values[None, :]
        np.abs(sim, out=sim)
        sim /= self.value_range
        np.subtract(1.0, sim, out=sim)
        return np.clip(sim, 0.0, 1.0, out=sim)

    def _embedding_block(self, block: slice) -> np.ndarray:
        assert self.matrix is not None
        sim = self.matrix[block] @ self.matrix.T
        sim += 1.0
        sim *= 0.5
        return sim

    def accumulate_pairs(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        numerator: np.ndarray,
        denominator: np.ndarray,
    ) -> None:
        """Accumulate this channel's contribution for explicit pairs.

        The sparse analogue of :meth:`accumulate`: instead of a dense
        (block, n) panel, only the given ``(rows[i], cols[i])`` pairs
        are scored — this is what lets the lsh backend score its
        candidate pairs with the exact Algorithm-1 similarity.
        """
        present = self.present
        assert present is not None
        co_present = (present[rows] & present[cols]).astype(np.float32)
        if not co_present.any():
            return
        if self.kind is FeatureKind.CATEGORICAL:
            assert self.binary is not None and self.set_sizes is not None
            inter = np.asarray(
                self.binary[rows].multiply(self.binary[cols]).sum(axis=1),
                dtype=np.float32,
            ).ravel()
            sizes_i = self.set_sizes[rows]
            sizes_j = self.set_sizes[cols]
            union = sizes_i + sizes_j - inter
            sim = np.zeros_like(inter)
            nonzero = union > 0
            sim[nonzero] = inter[nonzero] / union[nonzero]
            sim[(sizes_i == 0) & (sizes_j == 0)] = 1.0
        elif self.kind is FeatureKind.NUMERIC:
            assert self.values is not None
            diff = np.abs(self.values[rows] - self.values[cols])
            sim = np.clip(1.0 - diff / self.value_range, 0.0, 1.0).astype(
                np.float32
            )
        else:
            assert self.matrix is not None
            cosine = (self.matrix[rows] * self.matrix[cols]).sum(axis=1)
            sim = (0.5 * (cosine + 1.0)).astype(np.float32)
        numerator += self.weight * sim * co_present
        denominator += self.weight * co_present


def _build_channels(
    table: FeatureTable, config: GraphConfig
) -> list[_FeatureChannel]:
    names = (
        list(config.features) if config.features is not None else table.feature_names
    )
    ranges = numeric_ranges(table)
    channels: list[_FeatureChannel] = []
    for name in names:
        spec = table.schema[name]
        column = table.column(name)
        channel = _FeatureChannel(
            spec.kind, config.feature_weights.get(name, 1.0)
        )
        channel.present = np.array([v is not MISSING for v in column])
        if spec.kind is FeatureKind.CATEGORICAL:
            vocab: dict[str, int] = {}
            rows: list[int] = []
            cols: list[int] = []
            sizes = np.zeros(len(column), dtype=np.float32)
            for i, value in enumerate(column):
                if value is MISSING:
                    continue
                sizes[i] = len(value)  # type: ignore[arg-type]
                # sorted: vocab index assignment must not depend on set
                # iteration order (PYTHONHASHSEED) — minhash keys hash
                # these indices, so LSH candidates would otherwise vary
                # across processes (Jaccard itself never notices)
                for token in sorted(value):  # type: ignore[arg-type]
                    j = vocab.setdefault(token, len(vocab))
                    rows.append(i)
                    cols.append(j)
            channel.binary = sparse.csr_matrix(
                (np.ones(len(rows), dtype=np.float32), (rows, cols)),
                shape=(len(column), max(len(vocab), 1)),
            )
            channel.set_sizes = sizes
        elif spec.kind is FeatureKind.NUMERIC:
            channel.values = np.array(
                [float(v) if v is not MISSING else 0.0 for v in column],  # type: ignore[arg-type]
                dtype=np.float32,
            )
            channel.value_range = max(ranges.get(name, 1.0), 1e-9)
        else:
            dim = None
            for v in column:
                if v is not MISSING:
                    dim = len(v)  # type: ignore[arg-type]
                    break
            if dim is None:
                channel.present = np.zeros(len(column), dtype=bool)
                channel.matrix = np.zeros((len(column), 1), dtype=np.float32)
            else:
                matrix = np.zeros((len(column), dim), dtype=np.float32)
                for i, v in enumerate(column):
                    if v is not MISSING:
                        matrix[i] = np.asarray(v, dtype=np.float32)
                norms = np.linalg.norm(matrix, axis=1, keepdims=True)
                norms[norms < 1e-9] = 1.0
                channel.matrix = matrix / norms
        channels.append(channel)
    return channels


class _GraphBlockTask:
    """Picklable per-block kNN computation shipped to executor workers.

    Each block is a pure function of the precomputed channels and its
    row range; blocks merge in block order on the coordinator, so the
    resulting edge arrays are byte-identical across backends.
    """

    __slots__ = ("channels", "n", "k", "min_weight")

    def __init__(
        self,
        channels: list[_FeatureChannel],
        n: int,
        k: int,
        min_weight: float,
    ) -> None:
        self.channels = channels
        self.n = n
        self.k = k
        self.min_weight = min_weight

    def __call__(
        self, bounds: tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        start, stop = bounds
        block = slice(start, stop)
        b = stop - start
        numerator = np.zeros((b, self.n), dtype=np.float32)
        denominator = np.zeros((b, self.n), dtype=np.float32)
        for channel in self.channels:
            channel.accumulate(block, numerator, denominator)
        # a pair no channel covers keeps its +0.0 numerator as similarity
        sim = np.divide(numerator, denominator, out=numerator, where=denominator > 0)
        # no self-loops
        sim[np.arange(b), np.arange(start, stop)] = -1.0
        top = np.argpartition(-sim, kth=self.k - 1, axis=1)[:, : self.k]
        block_rows = np.repeat(np.arange(start, stop), self.k)
        block_cols = top.ravel()
        block_weights = sim[np.arange(b)[:, None], top].ravel()
        keep = block_weights >= self.min_weight
        return (
            block_rows[keep],
            block_cols[keep],
            block_weights[keep].astype(np.float64),
            int((~keep).sum()),
        )


def _exact_edges(
    channels: list[_FeatureChannel],
    n: int,
    k: int,
    config: GraphConfig,
    bounds: list[tuple[int, int]],
    executor: Executor,
    span,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed kNN edges ``(rows, cols, weights)`` from the blockwise
    sweep over every pair — the recall oracle for the lsh backend."""
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
    return (
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(weights_out),
    )


def _shard_bounds(n: int, block_size: int) -> list[tuple[int, int]]:
    """Contiguous node shards; fixed by (n, block_size) so shard RNG
    streams are identical regardless of the executor backend.  Same
    partition law as the data plane's shard layout, so the boundary
    property suite (``tests/test_shards.py``) covers this math too."""
    from repro.shards.layout import shard_ranges

    return shard_ranges(n, block_size)


def _edges_to_graph(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, n: int
) -> SimilarityGraph:
    """Symmetrize directed kNN edges (max weight per pair) into a graph."""
    adjacency = sparse.csr_matrix((weights, (rows, cols)), shape=(n, n))
    adjacency = adjacency.maximum(adjacency.T)
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return SimilarityGraph(adjacency=adjacency.tocsr(), n_nodes=n)


def _validate_graph_features(table: FeatureTable, config: GraphConfig) -> None:
    """Reject names that do not exist in the table's schema — today a
    bad name would otherwise fail deep inside a block task."""
    if config.features is not None:
        unknown = [n for n in config.features if n not in table.schema]
        if unknown:
            raise GraphError(
                f"unknown graph feature(s) {unknown!r}; "
                f"table has {sorted(table.schema.names)}"
            )
    names = (
        set(config.features) if config.features is not None
        else set(table.feature_names)
    )
    unknown = [n for n in config.feature_weights if n not in names]
    if unknown:
        raise GraphError(
            f"feature_weights refer to unknown graph feature(s) {unknown!r}; "
            f"graph features are {sorted(names)}"
        )


def build_knn_graph(
    table: FeatureTable,
    config: GraphConfig | None = None,
    executor: Executor | ExecutorConfig | str | None = None,
) -> SimilarityGraph:
    """Build a symmetric k-nearest-neighbour similarity graph.

    Each node keeps its ``k`` most similar other nodes (Algorithm-1
    similarity); the union of directed kNN edges is symmetrized by
    taking the maximum weight per pair.

    ``config.backend`` picks the candidate pairs: ``exact`` considers
    every pair (O(n²), the oracle); ``lsh`` considers a sub-quadratic
    candidate set but scores it with the same exact similarity, and is
    deterministic for a fixed ``config.seed``.

    ``executor`` parallelizes the candidate/similarity pass; every
    shard is an independent pure task and shards merge in shard order,
    so each backend's graph is byte-identical on the serial, thread,
    and process executors.
    """
    config = config or GraphConfig()
    n = table.n_rows
    if n < 2:
        raise GraphError(f"need at least 2 nodes to build a graph, got {n}")
    _validate_graph_features(table, config)
    k = min(config.k, n - 1)
    ex = as_executor(executor)
    with obs.span(
        "graph.build_knn",
        n_nodes=n,
        k=k,
        backend=ex.backend,
        graph_backend=config.backend,
    ) as sp:
        with obs.span("graph.channels"):
            channels = _build_channels(table, config)
        if not channels:
            raise GraphError("no features available for graph construction")
        sp.set_gauge("n_features", len(channels))
        edges = _exact_edges if config.backend == "exact" else lsh_edges
        rows, cols, weights = edges(
            channels, n, k, config, _shard_bounds(n, config.block_size), ex, sp
        )
        with obs.span("graph.symmetrize"):
            graph = _edges_to_graph(rows, cols, weights, n)
        sp.set_gauge("n_edges", graph.n_edges())
    return graph
