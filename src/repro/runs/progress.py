"""Completed-unit progress manifests for resumable sub-stage work.

A :class:`ProgressManifest` is one JSON file mapping a unit index — a
featurize or votes shard — to that unit's entry
(the artifact refs it persisted, plus whatever its driver needs to
adopt it on resume).  It is rewritten atomically after every completed
unit, so a killed job recomputes only the units it had not finished.

``job_key`` fingerprints the job's configuration (see :func:`job_key`):
a file written under a different key belongs to a different computation
and is ignored, so resuming with changed config recomputes from
scratch instead of mixing incompatible units.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.core.atomicio import atomic_write_json, canonical_json, sha256_hex
from repro.core.exceptions import IntegrityError

__all__ = ["ProgressManifest", "job_key"]


def job_key(payload: object) -> str:
    """Content hash of a job configuration, for :class:`ProgressManifest`."""
    return sha256_hex(canonical_json(payload).encode("utf-8"))


class ProgressManifest:
    """Job-key-gated ``index -> entry`` manifest, atomically rewritten.

    Thread-safe: units may complete on worker threads; updates serialize
    through a lock and each rewrite is atomic.
    """

    FORMAT_VERSION = 2

    def __init__(self, path: str | Path, job_key: str) -> None:
        self.path = Path(path)
        self.job_key = str(job_key)
        self._lock = threading.Lock()
        self._entries: dict[int, dict] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise IntegrityError(
                f"progress manifest {self.path} is not valid JSON ({exc}); "
                f"it is written atomically, so this indicates external "
                f"modification — delete it to recompute the job"
            ) from exc
        if (
            not isinstance(data, dict)
            or data.get("format_version") != self.FORMAT_VERSION
            or data.get("job_key") != self.job_key
        ):
            return  # different job or version: start fresh
        self._entries = {
            int(index): dict(entry)
            for index, entry in data.get("entries", {}).items()
        }

    def get(self, index: int) -> dict | None:
        return self._entries.get(index)

    def save(self, index: int, entry: dict) -> None:
        """Record unit ``index`` as complete and rewrite the file."""
        with self._lock:
            self._entries[index] = dict(entry)
            atomic_write_json(
                self.path,
                {
                    "format_version": self.FORMAT_VERSION,
                    "job_key": self.job_key,
                    "entries": {
                        str(i): e for i, e in sorted(self._entries.items())
                    },
                },
                indent=2,
            )

    def completed(self) -> list[int]:
        """Indices of completed units (sorted)."""
        with self._lock:
            return sorted(self._entries)
