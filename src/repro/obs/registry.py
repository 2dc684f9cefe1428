"""The active-tracer switch.

At most one :class:`~repro.obs.trace.Tracer` is *active* at a time: the
module-level helpers in :mod:`repro.obs` route through it, and return
no-ops when none is active (the default).  Activation is process-global
by design — the instrumented layers (the per-record map, featurization)
fan work out to threads, and all of it should land in the same trace.
"""

from __future__ import annotations

from repro.obs.trace import Tracer

__all__ = ["enable", "disable", "current", "enabled"]

#: The active tracer, or ``None`` (tracing disabled).  Read on every
#: instrumented call — kept a plain module global so the disabled check
#: is one dict-free attribute load.
_active: Tracer | None = None


def enable(tracer: Tracer | None = None) -> Tracer:
    """Activate ``tracer`` (a fresh ``Tracer("default")`` when
    ``None``); returns the now-active tracer."""
    global _active
    _active = Tracer("default") if tracer is None else tracer
    return _active


def disable() -> None:
    """Deactivate tracing (instrumented call sites become no-ops)."""
    global _active
    _active = None


def current() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _active


def enabled() -> bool:
    return _active is not None
