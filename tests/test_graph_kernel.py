"""Oracle test for the exact graph backend's per-block kernel.

The exact kernel scores categorical channels on the nonzeros of the
sparse intersection only and adds under co-presence instead of
multiplying by a dense co-presence panel.  That is exact, not
approximate: every skipped addend is ±0.0 and no sum is ever −0.0.
This suite keeps the dense kernel it replaced, verbatim, as the
reference, and asserts that both give a byte-identical CSR adjacency
on generated tables.  The tables cover MISSING cells, present-but-empty
sets next to MISSING rows, channels present on no row, non-integer
feature weights, ``n`` that is not a multiple of ``block_size`` and
``k`` clamped to ``n - 1``.

``REPRO_EXEC_BACKENDS`` (comma-separated names, same idiom as
``tests/test_exec_equivalence.py``) restricts the executor backends
the kernel runs on; the reference always runs in-process, so the
process backend checks the kernel after it is pickled into workers.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datagen.entities import Modality
from repro.exec import ExecutorConfig
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.features.table import MISSING, FeatureTable
from repro.propagation.graph import (
    GraphConfig,
    _build_channels,
    _edges_to_graph,
    _FeatureChannel,
    _GraphBlockTask,
    _shard_bounds,
    build_knn_graph,
)

_ALL_BACKENDS = ("serial", "thread", "process")
_env = os.environ.get("REPRO_EXEC_BACKENDS", "").strip()
BACKENDS_UNDER_TEST = tuple(
    b.strip() for b in _env.split(",") if b.strip()
) or _ALL_BACKENDS
_EXECUTORS = {
    "serial": ExecutorConfig(),
    "thread": ExecutorConfig(backend="thread", workers=3),
    "process": ExecutorConfig(backend="process", workers=2),
}


# ----------------------------------------------------------------------
# reference: the dense kernel, kept verbatim
# ----------------------------------------------------------------------
class _DenseChannel(_FeatureChannel):
    def accumulate(
        self,
        block: slice,
        numerator: np.ndarray,
        denominator: np.ndarray,
    ) -> None:
        present = self.present
        assert present is not None
        co_present = np.outer(present[block], present).astype(np.float32)
        if not co_present.any():
            return
        if self.kind is FeatureKind.CATEGORICAL:
            sim = self._categorical_block(block)
        elif self.kind is FeatureKind.NUMERIC:
            sim = self._numeric_block(block)
        else:
            sim = self._embedding_block(block)
        numerator += self.weight * sim * co_present
        denominator += self.weight * co_present

    def _categorical_block(self, block: slice) -> np.ndarray:
        assert self.binary is not None and self.set_sizes is not None
        # binary is float32 CSR, so the intersection matmul stays float32
        # end-to-end; .toarray() avoids the np.matrix round-trip (and its
        # extra dense copy) that .todense() incurs
        inter = (self.binary[block] @ self.binary.T).toarray()
        sizes_block = self.set_sizes[block][:, None]
        union = sizes_block + self.set_sizes[None, :] - inter
        sim = np.zeros_like(inter)
        nonzero = union > 0
        sim[nonzero] = inter[nonzero] / union[nonzero]
        # Jaccard(∅, ∅) := 1 (both endpoints agree the feature is empty)
        both_empty = (sizes_block == 0) & (self.set_sizes[None, :] == 0)
        sim[both_empty] = 1.0
        return sim

    def _numeric_block(self, block: slice) -> np.ndarray:
        assert self.values is not None
        diff = np.abs(self.values[block][:, None] - self.values[None, :])
        sim = 1.0 - diff / self.value_range
        return np.clip(sim, 0.0, 1.0).astype(np.float32)

    def _embedding_block(self, block: slice) -> np.ndarray:
        assert self.matrix is not None
        cosine = self.matrix[block] @ self.matrix.T
        return (0.5 * (cosine + 1.0)).astype(np.float32)


class _DenseBlockTask(_GraphBlockTask):
    __slots__ = ()

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
        with np.errstate(invalid="ignore", divide="ignore"):
            sim = np.where(denominator > 0, numerator / denominator, 0.0)
        # no self-loops
        for i in range(b):
            sim[i, start + i] = -1.0
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


def _dense(channel: _FeatureChannel) -> _DenseChannel:
    dense = object.__new__(_DenseChannel)
    dense.__dict__.update(vars(channel))
    return dense


def _reference_adjacency(table: FeatureTable, config: GraphConfig):
    n = table.n_rows
    channels = [_dense(c) for c in _build_channels(table, config)]
    task = _DenseBlockTask(channels, n, min(config.k, n - 1), config.min_weight)
    parts = [task(b) for b in _shard_bounds(n, config.block_size)]
    return _edges_to_graph(
        *(np.concatenate([p[i] for p in parts]) for i in range(3)), n
    ).adjacency


def _assert_kernel_matches_reference(table, config, backend):
    expected = _reference_adjacency(table, config)
    actual = build_knn_graph(table, config, _EXECUTORS[backend]).adjacency
    for attr in ("data", "indices", "indptr"):
        a, e = getattr(actual, attr), getattr(expected, attr)
        assert a.dtype == e.dtype, attr
        assert a.tobytes() == e.tobytes(), attr


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
_KINDS = (FeatureKind.CATEGORICAL, FeatureKind.NUMERIC, FeatureKind.EMBEDDING)
_TOKENS = ("a", "b", "c", "d", "e")


def _table(kinds, columns) -> FeatureTable:
    names = [f"f{i}" for i in range(len(kinds))]
    n = len(columns[0])
    return FeatureTable(
        schema=FeatureSchema(FeatureSpec(nm, k) for nm, k in zip(names, kinds)),
        columns=dict(zip(names, columns)),
        point_ids=list(range(n)),
        modalities=[Modality.IMAGE] * n,
    )


def _value(kind):
    if kind is FeatureKind.CATEGORICAL:
        # small sets from a tiny vocabulary: empty sets and repeats abound
        return st.frozensets(st.sampled_from(_TOKENS), max_size=3)
    if kind is FeatureKind.NUMERIC:
        return st.one_of(
            st.integers(-3, 3).map(float),
            st.floats(-5.0, 5.0, allow_nan=False, width=32),
        )
    return st.lists(st.integers(-2, 2).map(float), min_size=3, max_size=3)


@st.composite
def _column(draw, kind, n):
    presence = draw(st.sampled_from(("all", "partial", "none")))
    values = [draw(_value(kind)) for _ in range(n)]
    if presence == "none":
        return [MISSING] * n
    if presence == "partial":
        missing = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        values = [MISSING if m else v for v, m in zip(values, missing)]
    return values


@st.composite
def graph_cases(draw):
    n = draw(st.integers(2, 24))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=5))
    columns = [draw(_column(kind, n)) for kind in kinds]
    weights = {
        f"f{i}": w
        for i in range(len(kinds))
        if (w := draw(st.sampled_from((None, 0.3, 6.0, 1.7, 0.1)))) is not None
    }
    config = GraphConfig(
        k=draw(st.integers(1, n + 2)),
        block_size=draw(st.integers(1, n + 3)),
        min_weight=draw(st.sampled_from((0.0, 0.05, 0.3))),
        feature_weights=weights,
    )
    return _table(kinds, columns), config


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=graph_cases())
def test_exact_kernel_is_byte_identical_to_dense_reference(backend, case):
    table, config = case
    _assert_kernel_matches_reference(table, config, backend)


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
def test_exact_kernel_pinned_edge_cases(backend):
    """One table with every listed edge case at once, so coverage does
    not depend on what the generator happens to draw."""
    m = MISSING
    kinds = [
        FeatureKind.CATEGORICAL,  # present-but-empty sets beside MISSING
        FeatureKind.CATEGORICAL,  # present on every row
        FeatureKind.NUMERIC,  # partial presence
        FeatureKind.EMBEDDING,  # present on no row
        FeatureKind.EMBEDDING,  # present on every row
    ]
    empty = frozenset()
    columns = [
        [empty, m, empty, frozenset("a"), m, frozenset("ab"), empty, m, frozenset("b")],
        [frozenset("a"), empty, frozenset("ab"), frozenset("c"), empty,
         frozenset("abc"), frozenset("a"), frozenset("d"), empty],
        [1.0, m, 2.5, m, 0.0, 4.0, m, 1.0, 3.0],
        [m] * 9,
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0],
         [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.5, 0.5, 0.5], [0.0, 0.0, 1.0],
         [2.0, 1.0, 0.0]],
    ]
    table = _table(kinds, columns)
    for k, block_size in ((3, 4), (20, 2), (8, 9)):  # 9 rows; k 20 and 8 clamp
        config = GraphConfig(
            k=k,
            block_size=block_size,
            min_weight=0.0,
            # the float32 running sum of (0.3, 0.3, 1.7, 0.1) differs from
            # its float64 sum rounded once, so a weight added in the
            # wrong precision shows
            feature_weights={"f0": 0.3, "f1": 0.3, "f2": 1.7, "f3": 6.0, "f4": 0.1},
        )
        _assert_kernel_matches_reference(table, config, backend)


def test_both_empty_rule_needs_co_presence():
    """A present-but-empty set and a MISSING cell both have set size 0;
    Jaccard(∅, ∅) = 1 applies only when both sets are present."""
    table = _table(
        [FeatureKind.CATEGORICAL],
        [[frozenset(), MISSING, frozenset(), frozenset("a")]],
    )
    adj = build_knn_graph(table, GraphConfig(k=3, min_weight=0.0)).adjacency
    assert adj[0, 2] == 1.0
    assert adj[0, 1] == 0.0 and adj[2, 1] == 0.0
