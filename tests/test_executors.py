"""Unit tests for the execution-backend abstraction (repro.exec)."""

import pytest

from repro.core.exceptions import ConfigurationError, ExecutorError
from repro.exec import (
    BACKENDS,
    Executor,
    ExecutorConfig,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    as_executor,
    ensure_picklable,
    iter_chunks,
)


def _double(x):
    return 2 * x


def _boom(x):
    if x == 3:
        raise ValueError(f"bad record {x}")
    return x


# ----------------------------------------------------------------------
# ExecutorConfig
# ----------------------------------------------------------------------
def test_config_defaults_to_serial():
    config = ExecutorConfig()
    assert config.backend == "serial"
    assert config.workers == 1
    assert isinstance(config.create(), SerialExecutor)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"backend": "gpu"},
        {"workers": 0},
        {"workers": -2},
        {"chunk_size": 0},
    ],
)
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ConfigurationError):
        ExecutorConfig(**kwargs)


def test_config_creates_each_backend():
    assert isinstance(ExecutorConfig(backend="serial").create(), SerialExecutor)
    assert isinstance(
        ExecutorConfig(backend="thread", workers=3).create(), ThreadExecutor
    )
    assert isinstance(
        ExecutorConfig(backend="process", workers=2).create(), ProcessExecutor
    )


def test_backend_names_cover_all_executors():
    for backend in BACKENDS:
        ex = ExecutorConfig(backend=backend, workers=2).create()
        assert ex.backend == backend


# ----------------------------------------------------------------------
# as_executor coercion
# ----------------------------------------------------------------------
def test_as_executor_passthrough():
    ex = SerialExecutor()
    assert as_executor(ex) is ex


def test_as_executor_from_string_and_config():
    assert isinstance(as_executor(None), SerialExecutor)
    assert isinstance(as_executor("process"), ProcessExecutor)
    ex = as_executor(ExecutorConfig(backend="thread", workers=2))
    assert isinstance(ex, ThreadExecutor)
    assert ex.workers == 2


def test_as_executor_rejects_garbage():
    with pytest.raises(ConfigurationError):
        as_executor(42)
    with pytest.raises(ConfigurationError):
        as_executor("quantum")


# ----------------------------------------------------------------------
# iter_chunks
# ----------------------------------------------------------------------
def test_iter_chunks_contiguous_and_complete():
    items = list(range(11))
    chunks = iter_chunks(items, 3)
    assert [x for chunk in chunks for x in chunk] == items
    assert len(chunks) == 3
    # near-even split, larger chunks first
    assert [len(c) for c in chunks] == [4, 4, 3]


def test_iter_chunks_edge_cases():
    assert iter_chunks([], 4) == []
    assert iter_chunks([1], 4) == [[1]]
    assert iter_chunks([1, 2], 1) == [[1, 2]]
    # never more chunks than items
    assert [len(c) for c in iter_chunks([1, 2, 3], 99)] == [1, 1, 1]


# ----------------------------------------------------------------------
# ordering and error contracts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_map_ordered_preserves_input_order(backend, workers):
    items = list(range(23))
    ex = ExecutorConfig(backend=backend, workers=workers).create()
    with ex:
        assert ex.map_ordered(_double, items) == [2 * x for x in items]


@pytest.mark.parametrize("backend", BACKENDS)
def test_map_ordered_empty_input(backend):
    ex = ExecutorConfig(backend=backend, workers=2).create()
    with ex:
        assert ex.map_ordered(_double, []) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_task_exception_propagates(backend):
    ex = ExecutorConfig(backend=backend, workers=2).create()
    with ex, pytest.raises(ValueError, match="bad record 3"):
        ex.map_ordered(_boom, list(range(8)))


def test_imap_ordered_is_lazy_on_serial():
    seen = []

    def track(x):
        seen.append(x)
        return x

    ex = SerialExecutor()
    it = ex.imap_ordered(track, [1, 2, 3])
    assert seen == []  # nothing ran before iteration
    assert next(it) == 1
    assert seen == [1]


# ----------------------------------------------------------------------
# process-backend pickling guard
# ----------------------------------------------------------------------
def test_ensure_picklable_accepts_module_level_fn():
    ensure_picklable(_double, "task")  # must not raise


def test_process_backend_rejects_closures():
    captured = 7
    ex = ProcessExecutor(workers=2)
    with ex, pytest.raises(ExecutorError, match="not picklable"):
        ex.map_ordered(lambda x: x + captured, [1, 2, 3])


def test_executor_is_context_manager():
    with ExecutorConfig(backend="thread", workers=2).create() as ex:
        assert isinstance(ex, Executor)
        assert ex.map_ordered(_double, [5]) == [10]
