"""Sharded corpora: pickled point shards behind a JSON manifest.

The corpus side of the sharded data plane: raw :class:`DataPoint`
shards (pickle) plus a manifest of row ranges and refs.
``build_sharded_corpus`` consumes a *streaming* iterator, so a
10⁶-point world can be generated and persisted without ever holding
more than one shard of points — the shardscale experiment generates
worlds exactly this way.
"""

from __future__ import annotations

import pickle
from collections.abc import Iterable

from repro.core.exceptions import CheckpointError, IntegrityError
from repro.datagen.corpus import Corpus
from repro.datagen.entities import DataPoint
from repro.runs.store import ArtifactRef, RunStore
from repro.shards.layout import shard_ranges

__all__ = [
    "CORPUS_MANIFEST_KIND",
    "CORPUS_SHARD_KIND",
    "ShardedCorpus",
    "build_sharded_corpus",
]

CORPUS_MANIFEST_KIND = "corpus_manifest"
CORPUS_SHARD_KIND = "corpus_shard.pkl"
_MANIFEST_FORMAT_VERSION = 1


class ShardedCorpus:
    """Read handle over a sharded corpus in a :class:`RunStore`."""

    def __init__(
        self,
        store: RunStore,
        manifest: dict,
        manifest_ref: ArtifactRef | None = None,
    ) -> None:
        version = manifest.get("format_version")
        if version != _MANIFEST_FORMAT_VERSION:
            raise CheckpointError(
                f"corpus manifest has format version {version!r}; this "
                f"build reads {_MANIFEST_FORMAT_VERSION}"
            )
        self.store = store
        self.manifest = manifest
        self.manifest_ref = manifest_ref
        self.name = str(manifest["name"])
        self.n_points = int(manifest["n_points"])
        self.shard_size = int(manifest["shard_size"])
        self._shards = list(manifest["shards"])

    def __len__(self) -> int:
        return self.n_points

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def ranges(self) -> list[tuple[int, int]]:
        return [(int(s["start"]), int(s["stop"])) for s in self._shards]

    def shard_points(self, index: int) -> list[DataPoint]:
        """Load one shard's points (verified via the store)."""
        entry = self._shards[index]
        ref = ArtifactRef.from_dict(entry["ref"])
        data = self.store.get_bytes(ref)
        try:
            points = pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - any unpickle failure is corruption
            raise IntegrityError(
                f"corpus shard {index} of {self.name!r} could not be "
                f"unpickled ({exc}); its content hash verified, so the "
                f"artifact was written by an incompatible build"
            ) from exc
        expected = int(entry["stop"]) - int(entry["start"])
        if len(points) != expected:
            raise IntegrityError(
                f"corpus shard {index} of {self.name!r} holds "
                f"{len(points)} points; manifest records {expected}"
            )
        return points

    def rows(self, start: int, stop: int) -> list[DataPoint]:
        """Points of the global row range ``[start, stop)``, loading
        only the shards that overlap it."""
        if not 0 <= start <= stop <= self.n_points:
            raise CheckpointError(
                f"row range [{start}, {stop}) outside [0, {self.n_points})"
            )
        out: list[DataPoint] = []
        for index, (a, b) in enumerate(self.ranges):
            if b <= start:
                continue
            if a >= stop:
                break
            points = self.shard_points(index)
            out.extend(points[max(start - a, 0) : min(stop, b) - a])
        return out

    def to_corpus(self) -> Corpus:
        """Materialize the full corpus (O(corpus) memory)."""
        points: list[DataPoint] = []
        for index in range(self.n_shards):
            points.extend(self.shard_points(index))
        return Corpus(points=points, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedCorpus(name={self.name!r}, n_points={self.n_points}, "
            f"n_shards={self.n_shards})"
        )


def build_sharded_corpus(
    store: RunStore,
    points: Iterable[DataPoint],
    n_points: int,
    shard_size: int,
    name: str,
) -> ShardedCorpus:
    """Persist a streaming point iterator as a sharded corpus.

    Only one shard of points is resident at a time.  The iterator must
    yield exactly ``n_points`` points — a mismatch is a hard error, not
    a silently short corpus.
    """
    ranges = shard_ranges(n_points, shard_size)
    entries: list[dict] = []
    buffer: list[DataPoint] = []
    iterator = iter(points)
    seen = 0
    for start, stop in ranges:
        buffer.clear()
        for _ in range(stop - start):
            try:
                buffer.append(next(iterator))
            except StopIteration:
                raise CheckpointError(
                    f"corpus stream for {name!r} ended after {seen} of "
                    f"{n_points} points"
                ) from None
            seen += 1
        ref = store.put_bytes(
            CORPUS_SHARD_KIND,
            pickle.dumps(list(buffer), protocol=pickle.HIGHEST_PROTOCOL),
        )
        entries.append({"start": start, "stop": stop, "ref": ref.to_dict()})
    if next(iterator, None) is not None:
        raise CheckpointError(
            f"corpus stream for {name!r} yielded more than the declared "
            f"{n_points} points"
        )
    manifest = {
        "format_version": _MANIFEST_FORMAT_VERSION,
        "kind": "corpus",
        "name": name,
        "n_points": n_points,
        "shard_size": int(shard_size),
        "shards": entries,
    }
    ref = store.put_json(CORPUS_MANIFEST_KIND, manifest)
    return ShardedCorpus(store, manifest, manifest_ref=ref)
