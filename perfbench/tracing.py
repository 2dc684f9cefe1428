"""Layer spans taken from outside the program.

A :class:`Tracer` wraps the public functions each layer of ``repro``
exposes, records one span per call (name, start, end, parent, CPU
time, work counters) in memory, and restores every original on
:meth:`Tracer.uninstall`.  No file under ``src/`` changes; an untraced
run never constructs a tracer, so nothing is patched.

Span times are ``time.perf_counter`` seconds.  A span's self time is
its duration minus the durations of its direct children, so the self
times of a subtree add up to the duration of its root.  Work counters
are recorded on the span of the call that did the work, so a counter
can be summed over exactly the spans a metric covers.

Hot per-feature calls (``TTLFeatureCache.lookup``,
``ResiliencePolicy.call``) are deliberately not wrapped; their numbers
come from the subsystems' own counters, read after a phase.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

_ABSENT = object()


@dataclass
class Span:
    name: str
    start: float
    cpu_start: float
    parent: int | None
    end: float = 0.0
    cpu_s: float = 0.0
    children_s: float = 0.0
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: point ids of a ``serving.decide_batch`` call (queue-wait join)
    point_ids: tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (owner, attribute, original) for every patch, in order
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            cpu_start=time.thread_time(),
            parent=stack[-1] if stack else None,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu_s = time.thread_time() - span.cpu_start
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration
        return span

    def current(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _replace(self, owner: object, attr: str, make) -> None:
        """Swap ``owner.attr`` for ``make(func)``, remembering the original.

        Class- and static-method descriptors are unwrapped and re-wrapped
        so the patched attribute binds the way the original did; on an
        instance the bound method is shadowed and the shadow deleted on
        :meth:`uninstall`.
        """
        if isinstance(owner, (type, ModuleType)):
            original = vars(owner)[attr]
        else:
            original = vars(owner).get(attr, _ABSENT)
        func = getattr(owner, attr) if original is _ABSENT else original
        descriptor = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        wrapper = make(func.__func__ if descriptor else func)
        wrapper.__perfbench_wrapper__ = True
        setattr(owner, attr, descriptor(wrapper) if descriptor else wrapper)
        self._patches.append((owner, attr, original))

    def patch(self, owner: object, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``.

        ``after(span, args, kwargs, result)`` runs once the call returns
        and may record counters on the span.
        """
        tracer = self

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close(index)
                if after is not None:
                    after(tracer.spans[index], args, kwargs, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def hook(self, owner: object, attr: str, after) -> None:
        """Span-less wrapper for a call nested inside a layer span;
        ``after(span, args, kwargs, result)`` gets that enclosing span."""
        tracer = self

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                result = func(*args, **kwargs)
                span = tracer.current()
                if span is not None:
                    after(span, args, kwargs, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # derived numbers
    # ------------------------------------------------------------------
    def subtree(self, root: int) -> list[Span]:
        """``spans[root]`` and every span nested (transitively) under it."""
        inside = {root}
        out = [self.spans[root]]
        for index in range(root + 1, len(self.spans)):
            span = self.spans[index]
            if span.parent in inside:
                inside.add(index)
                out.append(span)
        return out

    def roots(self, name: str, after: int = -1) -> list[int]:
        """Indices of top-level spans named ``name`` past index ``after``."""
        return [
            i for i, s in enumerate(self.spans)
            if i > after and s.name == name and s.parent is None
        ]


def _owners() -> dict[str, object]:
    """The modules and classes whose attributes get wrapped."""
    import repro.core.pipeline as pipeline
    import repro.datagen.tasks as tasks
    import repro.resources.service_sets as service_sets
    import repro.shards as shards
    import repro.shards.stages as shard_stages
    from repro.labeling.label_model import GenerativeLabelModel
    from repro.mining.lf_generator import MinedLFGenerator
    from repro.models.mlp import MLPClassifier
    from repro.propagation.propagate import LabelPropagation
    from repro.runs.store import RunStore
    from repro.serving.artifacts import ServingArtifacts
    from repro.serving.server import ModelServer

    return {
        "pipeline": pipeline, "tasks": tasks, "service_sets": service_sets,
        "shards": shards, "shard_stages": shard_stages,
        "GenerativeLabelModel": GenerativeLabelModel,
        "MinedLFGenerator": MinedLFGenerator, "MLPClassifier": MLPClassifier,
        "LabelPropagation": LabelPropagation, "RunStore": RunStore,
        "ServingArtifacts": ServingArtifacts, "ModelServer": ModelServer,
        "CrossModalPipeline": pipeline.CrossModalPipeline,
    }


def _points(span, args, kwargs, out):
    splits = out[2]
    span.counts["datagen.points"] += sum(
        len(c) for c in (splits.text_labeled, splits.image_unlabeled,
                         splits.image_test, splits.image_labeled_pool)
    )


def _featurized(span, args, kwargs, table):
    span.counts["resources.featurize_rows"] += table.n_rows
    span.counts["resources.featurize_cells"] += table.n_rows * len(table.schema)


def _sharded(span, args, kwargs, handle):
    span.counts["shards.shards_written"] += handle.n_shards


def _mined(span, args, kwargs, lfs):
    span.counts["mining.lfs"] += len(lfs)


def _graph(span, args, kwargs, graph):
    span.counts["propagation.graph_nodes"] += graph.n_nodes
    span.counts["propagation.graph_edges"] += graph.n_edges()


def _votes(span, args, kwargs, matrix):
    span.counts["labeling.lf_votes"] += int(np.count_nonzero(matrix.votes))


def _em(span, args, kwargs, result):
    info = args[0].info_
    span.counts["labeling.em_iterations"] += info.n_iterations
    span.counts["labeling.em_converged"] += int(info.converged)


def _put(span, args, kwargs, ref):
    span.counts["runs.put_calls"] += 1
    span.counts["runs.bytes_written"] += len(args[2])


def _got(span, args, kwargs, data):
    span.counts["runs.get_calls"] += 1
    span.counts["runs.bytes_read"] += len(data)


def _batch(span, args, kwargs, decisions):
    span.point_ids = tuple(d.point_id for d in decisions)


def _mlp_fitted(span, args, kwargs, model):
    span.counts["models.train_rows"] += len(args[1])
    span.counts["models.train_epochs"] += len(model.loss_history_)


#: (owner, attribute, span name, counter hook) of every span wrapper
SPANNED = [
    ("tasks", "generate_task_corpora", "datagen.generate", _points),
    ("service_sets", "build_resource_suite", "resources.catalog", None),
    ("pipeline", "featurize_corpus", "resources.featurize", _featurized),
    ("shard_stages", "featurize_corpus", "resources.featurize", _featurized),
    ("shards", "featurize_corpus_sharded", "shards.featurize_sharded", _sharded),
    ("MinedLFGenerator", "generate", "mining.generate", _mined),
    ("pipeline", "build_knn_graph", "propagation.graph", _graph),
    ("LabelPropagation", "run", "propagation.propagate", None),
    ("pipeline", "apply_lfs", "labeling.apply_lfs", _votes),
    ("GenerativeLabelModel", "fit", "labeling.em_fit", _em),
    ("CrossModalPipeline", "train", "models.train", None),
    ("CrossModalPipeline", "evaluate", "models.evaluate", None),
    ("CrossModalPipeline", "run", "core.run", None),
    ("RunStore", "put_bytes", "runs.put", _put),
    ("RunStore", "get_bytes", "runs.get", _got),
    ("ServingArtifacts", "load", "serving.load", None),
    ("ModelServer", "decide_batch", "serving.decide_batch", _batch),
]
#: counter-only wrappers: calls nested inside a layer span
HOOKED = [("MLPClassifier", "fit", _mlp_fitted)]


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer.

    ``repro.core.pipeline`` imports ``featurize_corpus``,
    ``build_knn_graph`` and ``apply_lfs`` at module level, so the names
    bound there are the ones patched; sharded featurize calls
    ``featurize_corpus`` through ``repro.shards.stages`` and is looked up
    on the ``repro.shards`` package at call time.
    ``ModelServer.decide_batch`` must be patched before a server is
    constructed, because its ``MicroBatcher`` binds the method then.
    """
    owners = _owners()
    for owner, attr, name, after in SPANNED:
        tracer.patch(owners[owner], attr, name, after)
    for owner, attr, after in HOOKED:
        tracer.hook(owners[owner], attr, after)


def wrap_model_scoring(tracer: Tracer, model: object) -> None:
    """Span the served model's ``predict_proba`` (instance attribute)."""
    tracer.patch(model, "predict_proba", "models.score")


def wrapped_targets() -> list[str]:
    """Every wrappable target currently replaced by a wrapper.

    Empty after an untraced run — the self-tests assert it.
    """
    owners = _owners()
    out = []
    for owner, attr, *_ in SPANNED + HOOKED:
        value = vars(owners[owner])[attr]
        value = getattr(value, "__func__", value)
        if getattr(value, "__perfbench_wrapper__", False):
            out.append(f"{owner}.{attr}")
    return out
