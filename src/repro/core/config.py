"""Pipeline configuration.

The configuration mirrors the experimental axes of the paper's §6:
which service sets feed the deployed (servable) model vs the offline
labeling functions, how training data is curated (mining, propagation,
label model), and how the multi-modal model is trained (fusion strategy
and model family).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import ConfigurationError
from repro.exec import ExecutorConfig

__all__ = ["CurationConfig", "TrainingConfig", "PipelineConfig"]

_FUSIONS = ("early", "intermediate", "devise")
_MODELS = ("mlp", "logreg")


@dataclass(frozen=True)
class CurationConfig:
    """Training-data curation knobs (paper §4)."""

    #: mine LFs automatically from the old-modality dev set
    use_mined_lfs: bool = True
    #: add label-propagation LFs and the nonservable propagation feature
    use_propagation: bool = True
    #: use the streaming (Expander-style) propagation approximation
    streaming_propagation: bool = False
    #: fraction of labeled old-modality data held out as the dev set
    dev_fraction: float = 0.3
    #: cap on propagation seed / dev nodes (graph size control)
    max_seed_nodes: int = 4000
    max_dev_nodes: int = 1500
    #: mining thresholds (precision floor, lift over the base positive
    #: rate, and recall floor per LF)
    min_precision: float = 0.15
    min_lift: float = 3.0
    min_recall: float = 0.005
    max_order: int = 1
    #: propagation-LF dev-precision targets
    propagation_positive_precision: float = 0.7
    propagation_negative_precision: float = 0.995
    #: graph construction: neighbours per node and the Algorithm-1
    #: weight boost for the unstructured image embedding ("we use
    #: features specific to the new modality to construct edges,
    #: including unstructured features such as image embeddings")
    graph_k: int = 20
    graph_embedding_weight: float = 6.0
    #: graph construction backend ("exact" or "lsh"); lsh changes which
    #: candidate pairs are considered (never edge weights), so this knob
    #: — unlike the exec backend — is part of the run fingerprint
    graph_backend: str = "exact"
    #: blend the raw propagation score into the probabilistic labels
    #: with a dev-tuned weight (§4.4: the score "can also be used as a
    #: form of probabilistic label")
    blend_propagation: bool = True
    #: drop points no LF voted on before training (Snorkel practice)
    drop_uncovered: bool = True
    #: use the generative label model (False -> majority vote ablation)
    use_generative_model: bool = True

    def __post_init__(self) -> None:
        if not 0.05 <= self.dev_fraction <= 0.5:
            raise ConfigurationError(
                f"dev_fraction must be in [0.05, 0.5], got {self.dev_fraction}"
            )
        if self.max_order < 1:
            raise ConfigurationError("max_order must be >= 1")
        from repro.propagation.graph import GRAPH_BACKENDS

        if self.graph_backend not in GRAPH_BACKENDS:
            raise ConfigurationError(
                f"unknown graph backend {self.graph_backend!r}; "
                f"available: {sorted(GRAPH_BACKENDS)}"
            )


@dataclass(frozen=True)
class TrainingConfig:
    """Model-training knobs (paper §5)."""

    fusion: str = "early"
    model: str = "mlp"
    hidden_sizes: tuple[int, ...] = (64, 32)
    n_epochs: int = 40
    learning_rate: float = 1e-3
    l2: float = 1e-5
    batch_size: int = 256
    max_vocab: int = 512

    def __post_init__(self) -> None:
        if self.fusion not in _FUSIONS:
            raise ConfigurationError(
                f"fusion must be one of {_FUSIONS}, got {self.fusion!r}"
            )
        if self.model not in _MODELS:
            raise ConfigurationError(
                f"model must be one of {_MODELS}, got {self.model!r}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Full pipeline configuration.

    ``model_service_sets`` are the service sets whose *servable*
    features feed the deployed model; ``lf_service_sets`` feed labeling
    functions and label propagation (and may include nonservable
    features).  "T + AB with ABCD LFs" — the paper's Figure 5 (bottom)
    — is ``model_service_sets=("A", "B")``,
    ``lf_service_sets=("A", "B", "C", "D")``.
    """

    model_service_sets: tuple[str, ...] = ("A", "B", "C", "D")
    lf_service_sets: tuple[str, ...] = ("A", "B", "C", "D")
    #: include image-specific features (embeddings) in the image model
    include_image_features: bool = True
    curation: CurationConfig = field(default_factory=CurationConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 0
    #: execution backend for the parallel stages (featurize, LF
    #: application, graph build)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    #: rows per shard for the out-of-core featurize path
    #: (:mod:`repro.shards`); ``None`` keeps tables fully in memory.
    #: Requires a checkpointed run (shards live in its artifact store;
    #: :meth:`CrossModalPipeline.run` raises without one); values are
    #: bit-identical either way.
    shard_size: int | None = None

    def __post_init__(self) -> None:
        if not self.model_service_sets:
            raise ConfigurationError("model_service_sets must not be empty")
        if not self.lf_service_sets:
            raise ConfigurationError("lf_service_sets must not be empty")
        if self.shard_size is not None and self.shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be a positive row count or None, "
                f"got {self.shard_size}"
            )
