"""Crash injection at checkpoint boundaries.

The resume guarantee is only credible if it is *proved* by killing real
runs.  This module is the injection point: checkpointing code calls
:func:`crash_boundary` immediately after each durable boundary (a stage
record persisted, a shard of a sharded stage recorded in its progress
manifest), and the environment decides whether the process dies there.

``REPRO_CRASH_AT`` names the boundary to kill at — ``stage:curate``,
``shard:<tag>:3``, … — and ``REPRO_CRASH_MODE`` selects how:

* ``exit`` (default): ``os._exit(CRASH_EXIT_CODE)`` — no ``atexit``
  handlers, no ``finally`` blocks, the closest a test harness gets to
  ``kill -9`` without a second process;
* ``raise``: raise :class:`SimulatedCrashError` instead, so in-process
  tests can exercise crash/resume for every kill point without the cost
  of spawning subprocesses.

Environment variables (rather than plumbed parameters) are deliberate:
the kill must reach code deep inside the pipeline without any layer
having to forward it, exactly like a real preemption would.
"""

from __future__ import annotations

import os
import sys

from repro.core.exceptions import SimulatedCrashError

__all__ = [
    "CRASH_AT_ENV",
    "CRASH_MODE_ENV",
    "CRASH_EXIT_CODE",
    "crash_boundary",
]

CRASH_AT_ENV = "REPRO_CRASH_AT"
CRASH_MODE_ENV = "REPRO_CRASH_MODE"

#: exit status of an injected kill — distinguishable from success (0)
#: and from ordinary Python failures (1) by the resume harness
CRASH_EXIT_CODE = 43


def crash_boundary(boundary: str) -> None:
    """Die here iff the environment targets this boundary.

    Called *after* the boundary's durable state (artifacts + manifest)
    has been persisted, so a resumed run must reuse exactly the work
    completed before the kill.
    """
    target = os.environ.get(CRASH_AT_ENV)
    if not target or target != boundary:
        return
    if os.environ.get(CRASH_MODE_ENV, "exit") == "raise":
        raise SimulatedCrashError(f"injected crash at boundary {boundary!r}")
    print(f"[crash injection] killing process at boundary {boundary!r}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(CRASH_EXIT_CODE)
