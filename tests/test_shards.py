"""Unit and property tests for the sharded data plane primitives:
shard boundary math (:mod:`repro.shards.layout`), the shard payload
codec (:mod:`repro.shards.codec`), and the table/corpus containers.

The boundary properties here also cover the graph builder's block
partitioning — ``repro.propagation.graph._shard_bounds`` delegates to
:func:`~repro.shards.layout.shard_ranges`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import (
    CheckpointError,
    ConfigurationError,
    IntegrityError,
    SchemaError,
)
from repro.datagen.entities import Modality
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.features.table import MISSING, FeatureTable
from repro.runs.store import RunStore
from repro.shards import shard_of_row, shard_ranges
from repro.shards.codec import (
    decode_dense,
    decode_table_shard,
    encode_dense,
    encode_table_shard,
)
from repro.shards.table import ShardedTable, ShardedTableWriter


# ----------------------------------------------------------------------
# boundary math: shard_ranges partitions [0, n) exactly
# ----------------------------------------------------------------------
@given(
    n_rows=st.integers(min_value=0, max_value=5000),
    shard_size=st.integers(min_value=1, max_value=6000),
)
@settings(max_examples=200)
def test_ranges_partition_exactly(n_rows, shard_size):
    ranges = shard_ranges(n_rows, shard_size)
    # contiguous, ordered, non-empty, no overlap, no gap
    cursor = 0
    for start, stop in ranges:
        assert start == cursor
        assert stop > start
        cursor = stop
    assert cursor == n_rows
    # every shard but the last is exactly shard_size rows
    for start, stop in ranges[:-1]:
        assert stop - start == shard_size
    if ranges:
        assert ranges[-1][1] - ranges[-1][0] <= shard_size


@given(
    n_rows=st.integers(min_value=1, max_value=5000),
    shard_size=st.integers(min_value=1, max_value=6000),
    data=st.data(),
)
@settings(max_examples=200)
def test_shard_of_row_agrees_with_ranges(n_rows, shard_size, data):
    row = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
    ranges = shard_ranges(n_rows, shard_size)
    index = shard_of_row(row, n_rows, shard_size)
    start, stop = ranges[index]
    assert start <= row < stop


def test_empty_corpus_has_no_shards():
    assert shard_ranges(0, 10) == []


def test_shard_size_larger_than_corpus_is_one_shard():
    assert shard_ranges(7, 100) == [(0, 7)]
    assert shard_ranges(7, 7) == [(0, 7)]


def test_invalid_layout_arguments_rejected():
    with pytest.raises(ConfigurationError):
        shard_ranges(-1, 5)
    with pytest.raises(ConfigurationError):
        shard_ranges(10, 0)
    with pytest.raises(ConfigurationError):
        shard_of_row(10, 10, 3)  # row out of range
    with pytest.raises(ConfigurationError):
        shard_of_row(0, 0, 3)  # empty corpus has no rows


def test_graph_shard_bounds_delegates_to_layout():
    from repro.propagation.graph import _shard_bounds

    assert _shard_bounds(10, 3) == shard_ranges(10, 3)
    assert _shard_bounds(0, 4) == []


# ----------------------------------------------------------------------
# codec round-trips (including non-finite values and empty shards)
# ----------------------------------------------------------------------
def _schema():
    schema = FeatureSchema()
    schema.add(FeatureSpec("score", FeatureKind.NUMERIC))
    schema.add(FeatureSpec("tags", FeatureKind.CATEGORICAL))
    schema.add(FeatureSpec("emb", FeatureKind.EMBEDDING))
    return schema


def _table(rows):
    """rows: list of (score, tags, emb) with MISSING allowed."""
    schema = _schema()
    return FeatureTable(
        schema,
        {
            "score": [r[0] for r in rows],
            "tags": [r[1] for r in rows],
            "emb": [r[2] for r in rows],
        },
        point_ids=list(range(len(rows))),
        modalities=[Modality.IMAGE] * len(rows),
    )


def _columns_equal(a, b, kind):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if x is MISSING:
            assert y is MISSING
        elif kind is FeatureKind.EMBEDDING:
            assert np.array_equal(np.asarray(x), np.asarray(y), equal_nan=True)
        elif kind is FeatureKind.NUMERIC and isinstance(x, float) and np.isnan(x):
            assert np.isnan(y)
        else:
            assert x == y


def test_table_shard_roundtrip_with_nonfinite():
    table = _table(
        [
            (float("nan"), frozenset({"a"}), np.array([1.0, float("nan")])),
            (float("inf"), MISSING, np.array([float("-inf"), -0.0])),
            (MISSING, frozenset({"b", "c"}), MISSING),
            (-0.0, frozenset(), np.array([2.0, 3.0])),
        ]
    )
    rows_doc, dense = encode_table_shard(table)
    assert dense is not None  # numeric + uniform embedding are dense
    decoded = decode_table_shard(table.schema, rows_doc, dense)
    for spec in table.schema:
        _columns_equal(
            table.column(spec.name), decoded.column(spec.name), spec.kind
        )
    # MISSING and NaN stay distinct through the presence mask
    assert decoded.column("score")[2] is MISSING
    assert np.isnan(decoded.column("score")[0])
    # -0.0 survives bit-exactly through the binary container
    assert np.signbit(decoded.column("score")[3])
    assert np.signbit(decoded.column("emb")[1][1])


def test_table_shard_roundtrip_zero_rows():
    table = _table([])
    rows_doc, dense = encode_table_shard(table)
    decoded = decode_table_shard(table.schema, rows_doc, dense)
    assert decoded.n_rows == 0
    assert decoded.schema.names == table.schema.names


def test_ragged_embeddings_fall_back_to_json_part():
    table = _table(
        [
            (1.0, frozenset(), np.array([1.0, 2.0])),
            (2.0, frozenset(), np.array([1.0, 2.0, 3.0])),  # ragged
        ]
    )
    rows_doc, dense = encode_table_shard(table)
    assert "emb" not in rows_doc["dense"]
    assert "emb" in rows_doc["columns"]
    decoded = decode_table_shard(table.schema, rows_doc, dense)
    _columns_equal(
        table.column("emb"), decoded.column("emb"), FeatureKind.EMBEDDING
    )


def test_encode_is_deterministic():
    rows = [
        (0.5, frozenset({"x"}), np.array([1.0, 2.0])),
        (MISSING, frozenset(), MISSING),
    ]
    a_doc, a_dense = encode_table_shard(_table(rows))
    b_doc, b_dense = encode_table_shard(_table(rows))
    assert a_doc == b_doc
    assert a_dense == b_dense


def test_dense_container_rejects_wrong_magic():
    table = _table([(1.0, frozenset(), np.array([1.0]))])
    _rows, dense = encode_table_shard(table)
    with pytest.raises(IntegrityError):
        decode_dense(b"JUNK" + dense)


def test_decoded_embeddings_are_writable_copies():
    """Decoded tables must not alias the read-only container buffer."""
    table = _table([(1.0, frozenset(), np.array([1.0, 2.0]))])
    rows_doc, dense = encode_table_shard(table)
    decoded = decode_table_shard(table.schema, rows_doc, dense)
    emb = decoded.column("emb")[0]
    emb[0] = 99.0  # would raise on a read-only frombuffer view
    assert emb[0] == 99.0


@given(
    values=st.lists(
        st.one_of(
            st.none(),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
        ),
        min_size=0,
        max_size=40,
    )
)
@settings(max_examples=100)
def test_dense_numeric_roundtrip_property(values):
    schema = FeatureSchema()
    schema.add(FeatureSpec("x", FeatureKind.NUMERIC))
    column = [MISSING if v is None else v for v in values]
    dense = encode_dense(len(column), schema, {"x": column})
    assert dense is not None
    view = decode_dense(dense)
    for i, v in enumerate(column):
        if v is MISSING:
            assert view.presence["x"][i] == 0
        else:
            assert view.presence["x"][i] == 1
            # bit-exact: NaN payload bits, -0.0 sign, subnormals
            assert np.float64(v).tobytes() == view.values["x"][i].tobytes()


# ----------------------------------------------------------------------
# sharded table container
# ----------------------------------------------------------------------
def _store(tmp_path):
    return RunStore(tmp_path / "store")


def test_write_table_roundtrips_through_shards(tmp_path):
    table = _table(
        [
            (float(i), frozenset({f"t{i % 3}"}), np.array([float(i), 0.0]))
            for i in range(11)
        ]
    )
    sharded = ShardedTableWriter.write_table(_store(tmp_path), table, shard_size=4)
    assert sharded.n_shards == 3
    back = sharded.to_table()
    for spec in table.schema:
        _columns_equal(table.column(spec.name), back.column(spec.name), spec.kind)
    assert list(back.point_ids) == list(table.point_ids)


def test_manifest_pins_shard_hashes(tmp_path):
    """Same content => same manifest hash; different content => different
    (the Merkle property downstream fingerprints rely on)."""
    store = _store(tmp_path)
    rows = [(float(i), frozenset(), np.array([1.0])) for i in range(6)]
    a = ShardedTableWriter.write_table(store, _table(rows), shard_size=2)
    b = ShardedTableWriter.write_table(store, _table(rows), shard_size=2)
    assert a.manifest_ref.hash == b.manifest_ref.hash
    rows[3] = (99.0, frozenset(), np.array([1.0]))
    c = ShardedTableWriter.write_table(store, _table(rows), shard_size=2)
    assert c.manifest_ref.hash != a.manifest_ref.hash
    # only the touched shard's hashes differ
    diff = [
        i
        for i in range(a.n_shards)
        if a.shard_refs(i)[0].hash != c.shard_refs(i)[0].hash
        or a.shard_refs(i)[1].hash != c.shard_refs(i)[1].hash
    ]
    assert diff == [1]  # row 3 lives in shard 1 of size-2 shards


def test_writer_validates_shard_shape(tmp_path):
    store = _store(tmp_path)
    table = _table([(1.0, frozenset(), MISSING)] * 5)
    writer = ShardedTableWriter(
        store, table.schema, 5, 2, labeled=False
    )
    with pytest.raises(SchemaError):
        writer.add_shard(0, table.select_rows([0, 1, 2]))  # wrong row count
    with pytest.raises(CheckpointError):
        writer.finish()  # incomplete cover


def test_manifest_version_gate(tmp_path):
    store = _store(tmp_path)
    table = _table([(1.0, frozenset(), MISSING)])
    sharded = ShardedTableWriter.write_table(store, table, shard_size=1)
    bad = dict(sharded.manifest)
    bad["format_version"] = 99
    with pytest.raises(CheckpointError):
        ShardedTable(store, bad)


# ----------------------------------------------------------------------
# sharded corpus container
# ----------------------------------------------------------------------
def test_sharded_corpus_roundtrip(tmp_path, tiny_splits):
    from repro.shards import build_sharded_corpus

    store = _store(tmp_path)
    corpus = tiny_splits.image_test
    sharded = build_sharded_corpus(
        store, iter(corpus.points), len(corpus.points), 7, corpus.name
    )
    assert len(sharded) == len(corpus.points)
    back = sharded.to_corpus()
    assert [p.point_id for p in back.points] == [p.point_id for p in corpus.points]
    # range reads load only overlapping shards
    window = sharded.rows(5, 16)
    assert [p.point_id for p in window] == [
        p.point_id for p in corpus.points[5:16]
    ]


def test_sharded_corpus_rejects_short_stream(tmp_path, tiny_splits):
    from repro.shards import build_sharded_corpus

    corpus = tiny_splits.image_test
    with pytest.raises(CheckpointError):
        build_sharded_corpus(
            _store(tmp_path),
            iter(corpus.points[:5]),
            len(corpus.points),
            7,
            corpus.name,
        )
