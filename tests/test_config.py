"""Tests for repro.core.config — pipeline configuration validation."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import CurationConfig, PipelineConfig, TrainingConfig
from repro.core.exceptions import ConfigurationError
from repro.exec import ExecutorConfig
from repro.propagation.graph import GraphConfig
from repro.resilience import RetryConfig
from repro.serving import ServingConfig


def test_defaults_are_valid():
    config = PipelineConfig()
    assert config.model_service_sets == ("A", "B", "C", "D")
    assert config.curation.use_propagation is True
    assert config.training.fusion == "early"


def test_invalid_fusion():
    with pytest.raises(ConfigurationError):
        TrainingConfig(fusion="late")


def test_invalid_model():
    with pytest.raises(ConfigurationError):
        TrainingConfig(model="transformer")


def test_invalid_dev_fraction():
    with pytest.raises(ConfigurationError):
        CurationConfig(dev_fraction=0.01)
    with pytest.raises(ConfigurationError):
        CurationConfig(dev_fraction=0.9)


def test_invalid_max_order():
    with pytest.raises(ConfigurationError):
        CurationConfig(max_order=0)


def test_empty_service_sets_rejected():
    with pytest.raises(ConfigurationError):
        PipelineConfig(model_service_sets=())
    with pytest.raises(ConfigurationError):
        PipelineConfig(lf_service_sets=())


def test_configs_are_frozen():
    config = PipelineConfig()
    with pytest.raises(AttributeError):
        config.seed = 99  # type: ignore[misc]


def test_nonservable_simulation_config():
    """The Figure-5-bottom configuration is expressible."""
    config = PipelineConfig(
        model_service_sets=("A", "B"), lf_service_sets=("A", "B", "C", "D")
    )
    assert config.model_service_sets == ("A", "B")
    assert config.lf_service_sets == ("A", "B", "C", "D")


# ----------------------------------------------------------------------
# no inert knobs: every config field is read somewhere in the program
# ----------------------------------------------------------------------
_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "config_class",
    [
        CurationConfig,
        TrainingConfig,
        PipelineConfig,
        ServingConfig,
        GraphConfig,
        RetryConfig,
        ExecutorConfig,
    ],
    ids=lambda cls: cls.__name__,
)
def test_every_config_field_is_read(config_class):
    """A field nothing reads as ``.<field>`` is a knob that silently does
    nothing when set."""
    source = "\n".join(
        path.read_text(encoding="utf-8") for path in sorted(_SRC.rglob("*.py"))
    )
    unread = [
        f.name
        for f in fields(config_class)
        if not re.search(rf"\.{f.name}\b", source)
    ]
    assert unread == [], f"{config_class.__name__} fields nothing reads: {unread}"
