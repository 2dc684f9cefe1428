"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class SchemaError(ReproError):
    """A feature schema was violated (unknown feature, kind mismatch, ...)."""


class ModalityError(ReproError):
    """A resource or pipeline step was applied to an unsupported modality."""


class NotFittedError(ReproError):
    """A model or transformer was used before ``fit`` was called."""


class LabelingError(ReproError):
    """A labeling function or label model produced invalid output."""


class MiningError(ReproError):
    """Frequent-itemset mining was given invalid parameters or data."""


class GraphError(ReproError):
    """A similarity graph could not be constructed or is malformed."""


class ResourceError(ReproError):
    """An organizational resource failed or was misconfigured."""


class ServiceError(ResourceError):
    """A (simulated) remote service call to a resource failed.

    Subclasses split the space the resilience layer cares about:
    :class:`TransientServiceError` calls are worth retrying,
    :class:`ServiceUnavailableError` calls are not.
    """


class TransientServiceError(ServiceError):
    """A retryable failure: the same call may succeed if repeated."""


class ServiceUnavailableError(ServiceError):
    """A non-retryable failure: the service is down for this call."""


class DeadlineExceeded(ServiceError):
    """A call's deadline budget ran out before it could complete.

    Raised by the retry layer when the next backoff sleep would overrun
    the remaining :class:`~repro.resilience.deadline.Deadline` budget
    (the sleep is capped at the budget, then this fires).  Deliberately
    *not* a :class:`TransientServiceError`: an exhausted deadline must
    never be retried — it degrades through the fallback chain instead.
    """


class ExecutorError(ReproError):
    """An execution backend could not run a task set (unpicklable task,
    broken worker pool, ...)."""


class CheckpointError(ReproError):
    """A run checkpoint could not be written, read, or reconstructed."""


class IntegrityError(CheckpointError):
    """A persisted artifact failed verification (content-hash mismatch,
    truncated or malformed document, or format-version skew).

    Raised *instead of* silently recomputing: a corrupt artifact means
    the store can no longer vouch for the run's history, so the bad
    file is quarantined and either an auto-repair layer rebuilds it
    from lineage (``repro.runs.repair``) or the operator decides what
    to do (``python -m repro.experiments scrub --repair``).
    """

    def __init__(self, message: str, quarantined: object = None):
        super().__init__(message)
        #: path the corrupt artifact was moved to, when applicable
        self.quarantined = quarantined

    def __reduce__(self):
        # default Exception pickling replays args only; keep the
        # quarantine path when the error crosses a process boundary
        return (type(self), (self.args[0] if self.args else "", self.quarantined))


class ArtifactMissingError(CheckpointError):
    """An artifact referenced by a run manifest is absent from the store.

    The same repair path as corruption applies: the reference's content
    hash still identifies the exact bytes, so the producing stage can be
    replayed from its lineage and the rebuilt bytes verified against the
    original hash (``scrub --repair`` or an auto-repairing reader).
    """

    def __init__(self, message: str, ref: object = None):
        super().__init__(message)
        #: the dangling :class:`~repro.runs.store.ArtifactRef`
        self.ref = ref

    def __reduce__(self):
        return (type(self), (self.args[0] if self.args else "", self.ref))


class RepairError(CheckpointError):
    """Lineage-driven artifact repair could not restore the original bytes.

    Raised when the damaged artifact has no producing stage in the
    manifest (orphan), a lineage input cannot itself be restored, the
    stage replay is non-deterministic, or the rebuilt bytes hash
    differently from the recorded reference.  Repair never substitutes
    different bytes: it either restores bit-identical content or fails
    with this error and a lineage report.
    """


class SimulatedCrashError(ReproError):
    """An injected crash fired at a checkpoint boundary (test mode).

    The process-kill injection mode uses ``os._exit``; this exception is
    the in-process equivalent so tests can exercise crash/resume without
    spawning subprocesses.
    """


class RecordError(ReproError):
    """A dataflow record could not be processed.

    Carries the failing record and its input index so a poisoned record
    in a large job can be located without re-running.
    """

    def __init__(self, message: str, record: object = None, index: int | None = None):
        super().__init__(message)
        self.record = record
        self.index = index

    def __reduce__(self):
        # preserve record/index when raised inside a process-pool worker
        return (type(self), (self.args[0] if self.args else "", self.record, self.index))
