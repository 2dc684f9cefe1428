"""Atomic, durable file writes and content hashing.

Crash-safe persistence (feature-table artifacts, run manifests,
partition checkpoints) requires that a reader never observes a
half-written file.  The standard recipe: write to a temporary file in
the *same directory* as the destination, ``fsync`` the file, atomically
``rename`` it over the destination, then ``fsync`` the directory so the
rename itself survives a power loss.  POSIX guarantees the rename is
all-or-nothing, so any observer sees either the old content or the new
content — never a truncated hybrid.

Content hashes (SHA-256) are the integrity primitive: artifact stores
name files by their hash and verify it on read, turning silent
corruption into a detectable, quarantinable event.

A process-wide *fault layer* (see :mod:`repro.runs.faultfs`) can be
installed with :func:`set_fault_layer` to inject storage failures into
every atomic write — I/O errors, fsync failures, silent post-write
corruption, and torn directory entries — so the self-healing machinery
above this module is testable against real fault shapes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Protocol

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_dir",
    "sha256_hex",
    "canonical_json",
    "FaultLayer",
    "set_fault_layer",
    "fault_layer",
]


class FaultLayer(Protocol):
    """Injection interface consulted by :func:`atomic_write_bytes`."""

    def on_write(self, path: Path, data: bytes) -> tuple[bytes, bool]:
        """Called before the write.  May raise :class:`OSError` (EIO /
        ENOSPC); returns the bytes to actually persist (possibly
        corrupted) and whether the final rename should happen (``False``
        simulates a torn directory entry: payload durable, name lost).
        """

    def on_fsync(self, path: Path) -> None:
        """Called before the data fsync.  May raise :class:`OSError`."""


_fault_layer: FaultLayer | None = None


def set_fault_layer(layer: FaultLayer | None) -> FaultLayer | None:
    """Install (or clear, with ``None``) the process-wide fault layer.

    Returns the previously installed layer so callers can restore it.
    """
    global _fault_layer
    previous = _fault_layer
    _fault_layer = layer
    return previous


def fault_layer() -> FaultLayer | None:
    """The currently installed fault layer, if any."""
    return _fault_layer


def sha256_hex(data: bytes) -> str:
    """SHA-256 hex digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift).

    Two structurally equal objects always encode to the same bytes, so
    the encoding is safe to fingerprint with :func:`sha256_hex`.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fsync_dir(path: Path) -> None:
    """Flush a directory's metadata (namely, a just-completed rename).

    Platforms that cannot open directories (e.g. Windows) skip silently;
    the rename is still atomic there, just not power-loss durable.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename).

    A crash at any point leaves either the previous file intact or no
    file — never a truncated one.  Returns the destination path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    layer = _fault_layer
    rename = True
    if layer is not None:
        # may raise OSError (injected EIO/ENOSPC) or hand back silently
        # corrupted bytes / a dropped rename — the store's read-side
        # hash verification and the repair layer must cope with both
        data, rename = layer.on_write(path, data)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if layer is not None:
                layer.on_fsync(path)
            os.fsync(handle.fileno())
        if rename:
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if not rename:
        # torn directory entry: the payload hit disk but its name was
        # lost — observers see no file at all, never a truncated one
        tmp.unlink(missing_ok=True)
        return path
    fsync_dir(path.parent)
    return path


def atomic_write_json(path: str | Path, obj: object, indent: int | None = None) -> Path:
    """Atomic JSON write; see :func:`atomic_write_bytes`."""
    return atomic_write_bytes(
        path, json.dumps(obj, indent=indent).encode("utf-8")
    )
