"""Sharded feature tables: manifest + content-hashed shard artifacts.

A :class:`ShardedTable` is a handle, not a container: it holds one JSON
manifest (schema, row count, shard ranges, shard artifact refs) and
reads shards on demand from a :class:`~repro.runs.store.RunStore`.
``iter_shards`` / ``iter_rows`` therefore stream with O(shard) resident
memory, and the manifest's content hash pins every shard hash — the
Merkle property checkpoint fingerprints chain over.

The ``reader`` seam accepts anything with ``read_json(ref)`` /
``read_bytes(ref)`` — a plain store wrapper by default, or a
:class:`~repro.runs.repair.RepairEngine` for self-healing loads (the
engine's facade has exactly this shape).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.core.exceptions import CheckpointError, SchemaError
from repro.features.io import _spec_from_dict, _spec_to_dict
from repro.features.schema import FeatureSchema
from repro.features.table import FeatureTable
from repro.shards.codec import decode_table_shard, encode_table_shard
from repro.shards.layout import shard_ranges
from repro.runs.store import ArtifactRef, RunStore

__all__ = [
    "MANIFEST_KIND",
    "ROWS_KIND",
    "DENSE_KIND",
    "ShardedTable",
    "ShardedTableWriter",
]

MANIFEST_KIND = "shard_manifest"
ROWS_KIND = "table_shard"
DENSE_KIND = "table_shard.npy"
_MANIFEST_FORMAT_VERSION = 1


class _StoreReader:
    """Default verifying reader over a bare store."""

    __slots__ = ("store",)

    def __init__(self, store: RunStore) -> None:
        self.store = store

    def read_json(self, ref: ArtifactRef) -> Any:
        return self.store.get_json(ref)

    def read_bytes(self, ref: ArtifactRef) -> bytes:
        return self.store.get_bytes(ref)


def _ref_or_none(data: dict | None) -> ArtifactRef | None:
    return None if data is None else ArtifactRef.from_dict(data)


class ShardedTable:
    """Read handle over one sharded feature table.

    ``payloads`` — every shard's ``(rows doc, dense bytes or None)``,
    already read (a checkpoint replay holds them) — seeds the payloads
    :meth:`read_payloads` keeps for :meth:`to_table`.
    """

    def __init__(
        self,
        store: RunStore,
        manifest: dict,
        manifest_ref: ArtifactRef | None = None,
        reader: Any | None = None,
        payloads: list[tuple[Any, bytes | None]] | None = None,
    ) -> None:
        version = manifest.get("format_version")
        if version != _MANIFEST_FORMAT_VERSION:
            raise CheckpointError(
                f"shard manifest has format version {version!r}; this "
                f"build reads {_MANIFEST_FORMAT_VERSION}"
            )
        self.store = store
        self.manifest = manifest
        self.manifest_ref = manifest_ref
        self.reader = reader if reader is not None else _StoreReader(store)
        self.schema = FeatureSchema(
            _spec_from_dict(s) for s in manifest["schema"]
        )
        self.n_rows = int(manifest["n_rows"])
        self.shard_size = int(manifest["shard_size"])
        self.labeled = bool(manifest["labeled"])
        self._shards = list(manifest["shards"])
        self._payloads = payloads

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def ranges(self) -> list[tuple[int, int]]:
        return [(int(s["start"]), int(s["stop"])) for s in self._shards]

    def shard_refs(self, index: int) -> tuple[ArtifactRef, ArtifactRef | None]:
        entry = self._shards[index]
        rows_ref = ArtifactRef.from_dict(entry["rows"])
        return rows_ref, _ref_or_none(entry.get("dense"))

    def shard_hashes(self) -> list[str]:
        """Content hashes of every shard artifact, in shard order."""
        out: list[str] = []
        for i in range(self.n_shards):
            rows_ref, dense_ref = self.shard_refs(i)
            out.append(rows_ref.hash)
            if dense_ref is not None:
                out.append(dense_ref.hash)
        return out

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _read_shard(self, index: int) -> tuple[Any, bytes | None]:
        if self._payloads is not None:
            return self._payloads[index]
        rows_ref, dense_ref = self.shard_refs(index)
        rows_doc = self.reader.read_json(rows_ref)
        dense = (
            self.reader.read_bytes(dense_ref) if dense_ref is not None else None
        )
        return rows_doc, dense

    def read_payloads(self) -> list[tuple[Any, bytes | None]]:
        """Every shard's ``(rows doc, dense bytes or None)``, in shard
        order.  They are read once and kept until :meth:`to_table`
        consumes them, so a checkpoint that encodes them and then
        materializes the table reads each shard artifact once."""
        if self._payloads is None:
            self._payloads = [self._read_shard(i) for i in range(self.n_shards)]
        return self._payloads

    def shard(self, index: int) -> FeatureTable:
        """Materialize one shard as a row-aligned :class:`FeatureTable`."""
        return decode_table_shard(self.schema, *self._read_shard(index))

    def iter_shards(self) -> Iterator[FeatureTable]:
        for index in range(self.n_shards):
            yield self.shard(index)

    def iter_rows(self) -> Iterator[dict[str, object]]:
        """Stream every row holding one shard in memory at a time."""
        for shard in self.iter_shards():
            yield from shard.iter_rows()

    def to_table(self) -> FeatureTable:
        """Materialize the full table (O(corpus) memory — for callers
        that genuinely need everything, e.g. graph curation).  Payloads
        kept by :meth:`read_payloads` are decoded, not re-read, and
        released."""
        columns: dict[str, list] = {name: [] for name in self.schema.names}
        point_ids: list[int] = []
        modalities: list = []
        labels: list[int] = []
        for shard in self.iter_shards():
            for name in self.schema.names:
                columns[name].extend(shard.column(name))
            point_ids.extend(shard.point_ids.tolist())
            modalities.extend(shard.modalities)
            if self.labeled:
                assert shard.labels is not None
                labels.extend(shard.labels.tolist())
        self._payloads = None
        import numpy as np

        return FeatureTable(
            schema=self.schema,
            columns=columns,
            point_ids=point_ids,
            modalities=modalities,
            labels=np.asarray(labels, dtype=np.int64) if self.labeled else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedTable(n_rows={self.n_rows}, n_shards={self.n_shards}, "
            f"shard_size={self.shard_size}, labeled={self.labeled})"
        )


class ShardedTableWriter:
    """Incremental writer: add shards in order, then seal the manifest.

    ``add_shard`` persists one shard's artifacts immediately (so a
    killed run keeps its completed prefix — see
    :class:`~repro.runs.progress.ProgressManifest`), and ``adopt`` re-links
    a shard another attempt already persisted.  ``finish`` validates the
    exact cover of ``[0, n_rows)`` and writes the manifest artifact.
    """

    def __init__(
        self,
        store: RunStore,
        schema: FeatureSchema,
        n_rows: int,
        shard_size: int,
        labeled: bool,
    ) -> None:
        self.store = store
        self.schema = schema
        self.n_rows = int(n_rows)
        self.shard_size = int(shard_size)
        self.labeled = labeled
        self.ranges = shard_ranges(self.n_rows, self.shard_size)
        self._schema_doc = [_spec_to_dict(s) for s in schema]
        self._entries: dict[int, dict] = {}

    def add_shard(self, index: int, table: FeatureTable) -> dict:
        """Persist shard ``index`` and return its manifest entry
        (``{"start", "stop", "rows": refdict, "dense": refdict|None}``)."""
        start, stop = self.ranges[index]
        if table.n_rows != stop - start:
            raise SchemaError(
                f"shard {index} holds {table.n_rows} rows; range "
                f"[{start}, {stop}) requires {stop - start}"
            )
        if [_spec_to_dict(s) for s in table.schema] != self._schema_doc:
            raise SchemaError(
                f"shard {index} schema does not match the sharded table's"
            )
        if (table.labels is not None) != self.labeled:
            raise SchemaError(
                f"shard {index} labeled={table.labels is not None} but the "
                f"sharded table declares labeled={self.labeled}"
            )
        rows_doc, dense = encode_table_shard(table)
        rows_ref = self.store.put_json(ROWS_KIND, rows_doc)
        dense_ref = (
            self.store.put_bytes(DENSE_KIND, dense) if dense is not None else None
        )
        entry = {
            "start": start,
            "stop": stop,
            "rows": rows_ref.to_dict(),
            "dense": None if dense_ref is None else dense_ref.to_dict(),
        }
        self._entries[index] = entry
        return entry

    def adopt(self, index: int, entry: dict) -> None:
        """Re-link a shard persisted by a previous attempt (resume)."""
        start, stop = self.ranges[index]
        if int(entry["start"]) != start or int(entry["stop"]) != stop:
            raise CheckpointError(
                f"cannot adopt shard {index}: recorded range "
                f"[{entry['start']}, {entry['stop']}) does not match "
                f"[{start}, {stop})"
            )
        self._entries[index] = dict(entry)

    def completed(self) -> list[int]:
        return sorted(self._entries)

    def finish(self) -> ShardedTable:
        missing = [i for i in range(len(self.ranges)) if i not in self._entries]
        if missing:
            raise CheckpointError(
                f"sharded table incomplete: shards {missing} of "
                f"{len(self.ranges)} were never written"
            )
        manifest = {
            "format_version": _MANIFEST_FORMAT_VERSION,
            "kind": "feature_table",
            "n_rows": self.n_rows,
            "shard_size": self.shard_size,
            "labeled": self.labeled,
            "schema": self._schema_doc,
            "shards": [self._entries[i] for i in range(len(self.ranges))],
        }
        ref = self.store.put_json(MANIFEST_KIND, manifest)
        return ShardedTable(self.store, manifest, manifest_ref=ref)

    @classmethod
    def write_table(
        cls, store: RunStore, table: FeatureTable, shard_size: int
    ) -> ShardedTable:
        """Shard an in-memory table (tests and small conversions)."""
        writer = cls(
            store,
            table.schema,
            table.n_rows,
            shard_size,
            labeled=table.labels is not None,
        )
        for index, (start, stop) in enumerate(writer.ranges):
            writer.add_shard(index, table.select_rows(range(start, stop)))
        return writer.finish()
