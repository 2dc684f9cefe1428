"""Content-hashed, crash-safe artifact store for pipeline runs.

Every stage output is persisted as an *artifact*: a file named by the
SHA-256 of its bytes, written atomically (temp + fsync + rename).  The
hash in the artifact's :class:`ArtifactRef` is the integrity contract —
:meth:`RunStore.get_bytes` re-hashes what it reads and, on mismatch,
moves the file into ``quarantine/`` and raises
:class:`~repro.core.exceptions.IntegrityError` instead of returning
corrupt data or silently recomputing.  A missing file raises
:class:`~repro.core.exceptions.ArtifactMissingError` — like corruption,
that is *repairable* damage: the content hash still pins the exact
bytes, so the producing stage can be replayed and verified
(see :mod:`repro.runs.repair` and ``scrub --repair``).

An artifact's kind decides how its payload is stored
(:func:`encode_payload`): ``.npy``/``.pkl`` kinds (dense shard blocks,
pickled corpus shards) are raw bytes whose integrity rests on the
content hash alone; every other kind is JSON inside a small envelope
``{format_version, kind, data}``, so version skew and kind confusion are
detected before any payload is decoded.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import repro.obs as obs
from repro.core.atomicio import atomic_write_bytes, sha256_hex
from repro.core.exceptions import ArtifactMissingError, CheckpointError, IntegrityError

__all__ = [
    "ArtifactRef",
    "RunStore",
    "ARTIFACT_FORMAT_VERSION",
    "encode_envelope",
    "encode_payload",
    "run_directory",
]

#: bump when the artifact envelope layout changes incompatibly
ARTIFACT_FORMAT_VERSION = 1
#: kind suffixes stored as raw bytes (and as the file extension);
#: every other kind travels in the JSON envelope
_RAW_SUFFIXES = (".npy", ".pkl")


@contextmanager
def run_directory(given: str | Path | None, prefix: str) -> Iterator[Path]:
    """The directory a run writes into: ``given`` when the caller passed
    one (it is the caller's, and stays), else a fresh temporary
    directory that is removed when the block exits."""
    if given is not None:
        yield Path(given)
        return
    with tempfile.TemporaryDirectory(prefix=prefix) as scratch:
        yield Path(scratch)


def encode_envelope(kind: str, payload: object) -> bytes:
    """The exact bytes :meth:`RunStore.put_json` persists for a payload.

    Factored out so lineage-driven repair can rebuild an artifact and
    compare its hash against the original reference byte-for-byte.
    """
    envelope = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "kind": kind,
        "data": payload,
    }
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8")


def encode_payload(kind: str, payload: object) -> bytes:
    """The exact bytes :meth:`RunStore.put_payload` persists: raw bytes
    for a ``.npy``/``.pkl`` kind, else the JSON envelope."""
    if kind.endswith(_RAW_SUFFIXES):
        return bytes(payload)
    return encode_envelope(kind, payload)


def _quarantine_note(quarantined: Path | None) -> str:
    if quarantined is None:
        return "the corrupt file was already quarantined by a concurrent reader"
    return f"the corrupt file was quarantined at {quarantined}"


@dataclass(frozen=True)
class ArtifactRef:
    """Pointer to one stored artifact: its content hash, declared kind,
    and size in bytes.  Serializes to/from a plain dict for manifests."""

    hash: str
    kind: str
    size: int

    def to_dict(self) -> dict:
        return {"hash": self.hash, "kind": self.kind, "size": self.size}

    @classmethod
    def from_dict(cls, data: dict) -> "ArtifactRef":
        try:
            return cls(
                hash=str(data["hash"]), kind=str(data["kind"]), size=int(data["size"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed artifact reference {data!r}: {exc}"
            ) from exc


class RunStore:
    """Artifact store rooted at ``<root>/artifacts``.

    Files are immutable once written (their name is their hash), so
    re-putting identical content is a no-op and concurrent writers of
    the same content cannot conflict.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.artifact_dir = self.root / "artifacts"
        self.quarantine_dir = self.root / "quarantine"
        self.artifact_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # raw bytes
    # ------------------------------------------------------------------
    def _path_for(self, digest: str, kind: str) -> Path:
        suffix = next((s for s in _RAW_SUFFIXES if kind.endswith(s)), ".json")
        return self.artifact_dir / f"{digest}{suffix}"

    def path_for(self, ref: ArtifactRef) -> Path:
        """On-disk path of an artifact (for memory-mapped readers).

        Mapping a file bypasses the verifying :meth:`get_bytes` path, so
        callers that need the integrity guarantee should :meth:`check`
        the reference first (the scrub pass audits these files the same
        as any other artifact).
        """
        return self._path_for(ref.hash, ref.kind)

    def put_bytes(self, kind: str, data: bytes) -> ArtifactRef:
        """Store raw bytes; returns the content-addressed reference.

        A pre-existing file under the same content-hash name is *not*
        trusted by name alone: its bytes are re-verified and atomically
        rewritten on mismatch (self-heal on write), so corruption that
        slipped onto disk is fixed the next time the content passes
        through instead of only failing at read time.  Write failures
        surface as typed :class:`CheckpointError`\\ s.
        """
        digest = sha256_hex(data)
        path = self._path_for(digest, kind)
        if path.exists():
            if self._on_disk_matches(path, digest):
                return ArtifactRef(hash=digest, kind=kind, size=len(data))
            obs.add_counter("runs.artifacts_healed_on_write")
        try:
            with obs.span("runs.artifact.save", kind=kind, bytes=len(data)):
                atomic_write_bytes(path, data)
        except OSError as exc:
            raise CheckpointError(
                f"artifact write failed for {digest[:12]}… ({kind}): {exc}"
            ) from exc
        obs.add_counter("runs.artifacts_saved")
        obs.add_counter("runs.artifact_bytes_saved", len(data))
        return ArtifactRef(hash=digest, kind=kind, size=len(data))

    @staticmethod
    def _on_disk_matches(path: Path, digest: str) -> bool:
        """Whether ``path`` currently holds bytes hashing to ``digest``."""
        try:
            return sha256_hex(path.read_bytes()) == digest
        except OSError:
            return False

    def check(self, ref: ArtifactRef) -> str:
        """Audit one artifact without side effects.

        Returns ``"healthy"``, ``"corrupt"`` (present but bytes do not
        hash to the reference, or unreadable), or ``"missing"``.
        """
        path = self._path_for(ref.hash, ref.kind)
        if not path.exists():
            return "missing"
        return "healthy" if self._on_disk_matches(path, ref.hash) else "corrupt"

    def get_bytes(self, ref: ArtifactRef) -> bytes:
        """Read and verify an artifact's bytes.

        Hash mismatches quarantine the file and raise
        :class:`IntegrityError`; a missing file raises
        :class:`ArtifactMissingError`.  Both are repairable via the
        lineage replay path (``scrub --repair``).
        """
        path = self._path_for(ref.hash, ref.kind)
        if not path.exists():
            raise ArtifactMissingError(
                f"artifact {ref.hash[:12]}… ({ref.kind}) is missing from "
                f"{self.artifact_dir}. Run `python -m repro.experiments scrub "
                f"--run-dir <run> --repair` to rebuild it from its lineage.",
                ref=ref,
            )
        with obs.span("runs.artifact.load", kind=ref.kind):
            data = path.read_bytes()
            actual = sha256_hex(data)
            if actual != ref.hash:
                quarantined = self.quarantine(path)
                raise IntegrityError(
                    f"artifact {ref.hash[:12]}… ({ref.kind}) failed its integrity "
                    f"check: stored bytes hash to {actual[:12]}…; "
                    f"{_quarantine_note(quarantined)}. Run `python -m "
                    f"repro.experiments scrub --run-dir <run> --repair` to "
                    f"rebuild it from its lineage (or start a fresh --run-dir).",
                    quarantined=quarantined,
                )
        obs.add_counter("runs.artifacts_loaded")
        obs.add_counter("runs.artifact_bytes_loaded", len(data))
        return data

    def quarantine(self, path: Path) -> Path | None:
        """Move a corrupt file out of the store (never delete evidence).

        Idempotent under races: two readers detecting the same corrupt
        artifact both call this, the loser finds the file already moved
        and gets the ``None`` sentinel back instead of an uncaught
        :class:`FileNotFoundError`.  Quarantine names are made unique
        (pid + counter suffix) so repeated corruption of the same
        artifact never overwrites earlier evidence.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        n = 0
        while target.exists():
            n += 1
            target = self.quarantine_dir / f"{path.name}.{os.getpid()}.{n}"
        try:
            os.replace(path, target)
        except FileNotFoundError:
            # a concurrent reader already quarantined (or repair already
            # rewrote) this path — nothing left to preserve
            obs.add_counter("runs.quarantine_races")
            return None
        obs.add_counter("runs.artifacts_quarantined")
        return target

    # ------------------------------------------------------------------
    # payloads: raw bytes or the JSON envelope, by kind
    # ------------------------------------------------------------------
    def put_payload(self, kind: str, payload: object) -> ArtifactRef:
        """Store one encoded stage payload (see :func:`encode_payload`)."""
        return self.put_bytes(kind, encode_payload(kind, payload))

    def get_payload(self, ref: ArtifactRef) -> object:
        """Inverse of :meth:`put_payload`."""
        if ref.kind.endswith(_RAW_SUFFIXES):
            return self.get_bytes(ref)
        return self.get_json(ref)

    def put_json(self, kind: str, payload: object) -> ArtifactRef:
        """Store a JSON-serializable payload under an integrity envelope."""
        return self.put_bytes(kind, encode_envelope(kind, payload))

    def get_json(self, ref: ArtifactRef) -> object:
        """Load a JSON artifact, validating envelope version and kind.

        Truncated or non-JSON content is quarantined (the hash matched,
        so the file's *content* was bad at write time — version skew or
        a buggy encoder) and raised as :class:`IntegrityError`.
        """
        data = self.get_bytes(ref)
        path = self._path_for(ref.hash, ref.kind)
        try:
            envelope = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            quarantined = self.quarantine(path)
            raise IntegrityError(
                f"artifact {ref.hash[:12]}… ({ref.kind}) is not valid JSON "
                f"({exc}); {_quarantine_note(quarantined)}",
                quarantined=quarantined,
            ) from exc
        if not isinstance(envelope, dict) or "data" not in envelope:
            quarantined = self.quarantine(path)
            raise IntegrityError(
                f"artifact {ref.hash[:12]}… ({ref.kind}) lacks the artifact "
                f"envelope; {_quarantine_note(quarantined)}",
                quarantined=quarantined,
            )
        version = envelope.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise IntegrityError(
                f"artifact {ref.hash[:12]}… ({ref.kind}) has format version "
                f"{version!r}; this build reads version {ARTIFACT_FORMAT_VERSION}. "
                f"Re-run without --resume to rebuild the run with this version."
            )
        if envelope.get("kind") != ref.kind:
            raise IntegrityError(
                f"artifact {ref.hash[:12]}… declares kind {envelope.get('kind')!r} "
                f"but was referenced as {ref.kind!r}"
            )
        return envelope["data"]
