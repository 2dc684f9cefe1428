"""Machine-readable benchmark artifacts (``BENCH_<name>.json``).

Every benchmark run writes one artifact per table/figure so the perf
trajectory is a file diff, not a scroll through CI logs.  The schema is
intentionally flat:

.. code-block:: json

    {
      "schema_version": 1,
      "kind": "bench",
      "name": "table1",
      "created_unix": 1754500000.0,
      "scale": 0.4,
      "seed": 1,
      "timings": {"wall_seconds": 12.3},
      "metrics": {"CT1_pct_pos": 1.9, "n_tasks": 5}
    }

``timings`` holds wall-clock measurements in seconds; ``metrics`` holds
the table/figure's key numbers (floats/ints/strings) so a regression in
*quality* is as visible as a regression in *speed*.

Where the file goes is one rule for every experiment (:func:`bench_dir`):
``$REPRO_BENCH_DIR`` if set, else the directory the experiment was
given, else no file.  The environment wins so a CI job can collect
every artifact in one place while each experiment keeps its own run
directory.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["BenchArtifact", "BENCH_DIR_ENV", "BENCH_SCHEMA_VERSION", "bench_dir"]

BENCH_SCHEMA_VERSION = 1

#: names the directory every experiment writes its artifact into
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def bench_dir(given: str | Path | None = None) -> str | None:
    """Where an experiment writes ``BENCH_<name>.json``.

    ``$REPRO_BENCH_DIR`` if set, else ``given`` (the directory the
    experiment was handed), else ``None``: write no file.
    """
    return os.environ.get(BENCH_DIR_ENV) or (str(given) if given else None)


@dataclass
class BenchArtifact:
    """One benchmark's timings and key metrics, serializable to JSON."""

    name: str
    scale: float = 1.0
    seed: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    def record(self, **metrics: Any) -> None:
        """Attach key metrics (floats/ints/strings) to the artifact."""
        for key, value in metrics.items():
            self.metrics[key] = value

    def time(self, key: str, seconds: float) -> None:
        self.timings[key] = float(seconds)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "name": self.name,
            "created_unix": time.time(),
            "scale": self.scale,
            "seed": self.seed,
            "timings": dict(self.timings),
            "metrics": dict(self.metrics),
        }

    def write(self, directory: str = ".") -> str:
        """Write ``BENCH_<name>.json`` into ``directory``; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"BENCH_{self.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, default=_jsonable)
            fh.write("\n")
        return path


def _jsonable(value: Any) -> Any:
    """Last-resort coercion for numpy scalars and other oddballs."""
    for attr in ("item",):  # numpy scalar -> python scalar
        fn = getattr(value, attr, None)
        if callable(fn):
            return fn()
    return str(value)
