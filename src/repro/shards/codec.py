"""Shard payload codec: JSON rows part + binary dense container.

Each table shard persists as up to two artifacts:

* a **rows part** (JSON, kind ``table_shard``): point ids, modalities,
  labels, categorical columns, and any embedding column whose present
  rows are ragged (mixed dimensions) — encoded exactly like
  :mod:`repro.features.io` so canonical forms round-trip;
* a **dense part** (binary, kind ``table_shard.npy``): numeric and
  uniform-dimension embedding columns packed as little-endian float64
  C-order arrays with an explicit uint8 presence mask per column.

Missing cells are presence ``0`` with a zero value — *never* a NaN
sentinel, because NaN is a legal feature value and must round-trip
bit-exactly (the regression tests in ``tests/test_io.py`` lock this).

The dense container is deterministic byte-for-byte given the shard's
content: a fixed magic, a canonical-JSON header, then the arrays at
recorded offsets.  That determinism is what lets shard artifacts join
the content-hash repair oracle (``scrub --repair``) and the
differential shard-equivalence harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.core.atomicio import canonical_json
from repro.core.exceptions import IntegrityError
from repro.datagen.entities import Modality
from repro.features.io import _decode_value, _encode_value
from repro.features.schema import FeatureKind, FeatureSchema
from repro.features.table import MISSING, FeatureTable

__all__ = [
    "DenseView",
    "decode_dense",
    "decode_table_shard",
    "encode_dense",
    "encode_table_shard",
]

#: container magic + version byte; bump the byte on incompatible change
_MAGIC = b"RSHD\x01\n"
_SHARD_FORMAT_VERSION = 1
#: on-disk array dtypes, endian-pinned so shard hashes are portable
_VALUE_DTYPE = np.dtype("<f8")
_PRESENCE_DTYPE = np.dtype("<u1")


def _embedding_dim(values: list) -> int | None:
    """Uniform dimension of the present embeddings, or ``None`` if the
    column is ragged (and must fall back to the JSON rows part)."""
    dim: int | None = None
    for value in values:
        if value is MISSING:
            continue
        arr = np.asarray(value, dtype=float)
        if arr.ndim != 1:
            return None
        if dim is None:
            dim = int(arr.shape[0])
        elif dim != int(arr.shape[0]):
            return None
    return 0 if dim is None else dim


def dense_layout(schema: FeatureSchema, columns: dict[str, list]) -> list[str]:
    """Names of the columns the dense container will carry, in schema
    order — numeric columns always, embedding columns when uniform."""
    names = []
    for spec in schema:
        if spec.kind is FeatureKind.NUMERIC:
            names.append(spec.name)
        elif spec.kind is FeatureKind.EMBEDDING:
            if _embedding_dim(columns[spec.name]) is not None:
                names.append(spec.name)
    return names


@dataclass(frozen=True)
class DenseView:
    """Decoded (or memory-mapped) dense columns of one shard."""

    n_rows: int
    #: column name -> (n,) or (n, d) float64 value array
    values: dict[str, np.ndarray]
    #: column name -> (n,) uint8 presence mask (1 = value present)
    presence: dict[str, np.ndarray]


def encode_dense(
    n_rows: int, schema: FeatureSchema, columns: dict[str, list]
) -> bytes | None:
    """Pack the dense-eligible columns into the binary container.

    Returns ``None`` when no column is dense-eligible (the shard then
    has no dense artifact at all, deterministically).
    """
    names = dense_layout(schema, columns)
    if not names:
        return None
    header_cols = []
    blobs: list[bytes] = []
    offset = 0
    for name in names:
        spec = schema[name]
        col = columns[name]
        presence = np.fromiter(
            (0 if v is MISSING else 1 for v in col),
            dtype=_PRESENCE_DTYPE,
            count=n_rows,
        )
        if spec.kind is FeatureKind.NUMERIC:
            arr = np.zeros(n_rows, dtype=_VALUE_DTYPE)
            for i, v in enumerate(col):
                if v is not MISSING:
                    arr[i] = float(v)  # type: ignore[arg-type]
        else:
            dim = _embedding_dim(col)
            assert dim is not None  # dense_layout already filtered
            arr = np.zeros((n_rows, dim), dtype=_VALUE_DTYPE)
            for i, v in enumerate(col):
                if v is not MISSING:
                    arr[i] = np.asarray(v, dtype=float)
        data = np.ascontiguousarray(arr).tobytes()
        pres = presence.tobytes()
        header_cols.append(
            {
                "name": name,
                "kind": spec.kind.value,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(data),
                "presence_offset": offset + len(data),
                "presence_nbytes": len(pres),
            }
        )
        blobs.append(data)
        blobs.append(pres)
        offset += len(data) + len(pres)
    header = canonical_json(
        {
            "format_version": _SHARD_FORMAT_VERSION,
            "n_rows": n_rows,
            "columns": header_cols,
        }
    ).encode("utf-8")
    return b"".join(
        [_MAGIC, len(header).to_bytes(8, "little"), header, *blobs]
    )


def _parse_header(data: bytes) -> tuple[dict, int]:
    """(header dict, payload base offset) of a dense container."""
    if data[: len(_MAGIC)] != _MAGIC:
        raise IntegrityError(
            "dense shard container lacks the RSHD magic; "
            "the artifact kind does not match its content"
        )
    pos = len(_MAGIC)
    header_len = int.from_bytes(data[pos : pos + 8], "little")
    pos += 8
    try:
        header = json.loads(data[pos : pos + header_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IntegrityError(
            f"dense shard container has an unreadable header: {exc}"
        ) from exc
    if header.get("format_version") != _SHARD_FORMAT_VERSION:
        raise IntegrityError(
            "dense shard container has format version "
            f"{header.get('format_version')!r}; this build reads "
            f"{_SHARD_FORMAT_VERSION}"
        )
    return header, pos + header_len


def decode_dense(data: bytes) -> DenseView:
    """Decode a dense container from verified bytes (zero-copy views)."""
    header, base = _parse_header(data)
    values: dict[str, np.ndarray] = {}
    presence: dict[str, np.ndarray] = {}
    for col in header["columns"]:
        shape = tuple(col["shape"])
        arr = np.frombuffer(
            data, dtype=_VALUE_DTYPE, count=int(np.prod(shape, dtype=np.int64)),
            offset=base + col["offset"],
        ).reshape(shape)
        pres = np.frombuffer(
            data, dtype=_PRESENCE_DTYPE, count=col["presence_nbytes"],
            offset=base + col["presence_offset"],
        )
        values[col["name"]] = arr
        presence[col["name"]] = pres
    return DenseView(n_rows=header["n_rows"], values=values, presence=presence)


def encode_table_shard(table: FeatureTable) -> tuple[dict, bytes | None]:
    """Split one shard-sized :class:`FeatureTable` into its two parts.

    Returns ``(rows_doc, dense_bytes)``; ``dense_bytes`` is ``None``
    when the schema has no dense-eligible column in this shard.
    """
    columns = {spec.name: table.column(spec.name) for spec in table.schema}
    dense_names = dense_layout(table.schema, columns)
    dense = encode_dense(table.n_rows, table.schema, columns)
    rows_doc = {
        "format_version": _SHARD_FORMAT_VERSION,
        "point_ids": table.point_ids.tolist(),
        "modalities": [m.value for m in table.modalities],
        "labels": None if table.labels is None else table.labels.tolist(),
        "dense": dense_names,
        "columns": {
            spec.name: [
                _encode_value(spec.kind, v) for v in columns[spec.name]
            ]
            for spec in table.schema
            if spec.name not in dense_names
        },
    }
    return rows_doc, dense


def decode_table_shard(
    schema: FeatureSchema, rows_doc: dict, dense: bytes | None
) -> FeatureTable:
    """Inverse of :func:`encode_table_shard` (canonical value forms)."""
    version = rows_doc.get("format_version")
    if version != _SHARD_FORMAT_VERSION:
        raise IntegrityError(
            f"table shard has format version {version!r}; this build "
            f"reads {_SHARD_FORMAT_VERSION}"
        )
    dense_names = list(rows_doc["dense"])
    view = decode_dense(dense) if dense is not None else None
    if dense_names and view is None:
        raise IntegrityError(
            "table shard names dense columns but carries no dense payload"
        )
    columns: dict[str, list] = {}
    for spec in schema:
        if spec.name in dense_names:
            assert view is not None
            arr = view.values[spec.name]
            pres = view.presence[spec.name]
            if spec.kind is FeatureKind.NUMERIC:
                columns[spec.name] = [
                    float(arr[i]) if pres[i] else MISSING
                    for i in range(view.n_rows)
                ]
            else:
                # copy: the decoded table must not alias the (possibly
                # read-only, possibly memory-mapped) container buffer
                columns[spec.name] = [
                    np.array(arr[i], dtype=float) if pres[i] else MISSING
                    for i in range(view.n_rows)
                ]
        else:
            columns[spec.name] = [
                _decode_value(spec.kind, v)
                for v in rows_doc["columns"][spec.name]
            ]
    labels = rows_doc["labels"]
    return FeatureTable(
        schema=schema,
        columns=columns,
        point_ids=rows_doc["point_ids"],
        modalities=[Modality(m) for m in rows_doc["modalities"]],
        labels=None if labels is None else np.asarray(labels, dtype=np.int64),
    )
