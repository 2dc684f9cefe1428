"""Graph-based label propagation (paper §4.4).

Builds a similarity graph over data points of *all* modalities using
Algorithm-1 weights on the common feature space (plus modality-specific
features like image embeddings), then propagates human labels from the
old modality onto the new one [Zhu & Ghahramani 2002].  The converged
scores identify borderline positives and large volumes of negatives —
the behavioural modes mined LFs miss — and are turned into
threshold-based LFs and a nonservable feature.

A streaming single-pass approximation mirrors the Expander platform the
paper uses in production.
"""

from repro.propagation.graph import (
    GRAPH_BACKENDS,
    GraphConfig,
    SimilarityGraph,
    build_knn_graph,
)
from repro.propagation.propagate import LabelPropagation, PropagationResult
from repro.propagation.recall import (
    GraphQuality,
    compare_graphs,
    edge_weight_agreement,
    neighbor_recall,
    propagation_auprc_delta,
)
from repro.propagation.streaming import StreamingLabelPropagation
from repro.propagation.lf_adapter import PROPAGATION_FEATURE, propagation_lfs, propagation_feature_spec

__all__ = [
    "GRAPH_BACKENDS",
    "GraphConfig",
    "GraphQuality",
    "LabelPropagation",
    "PROPAGATION_FEATURE",
    "PropagationResult",
    "SimilarityGraph",
    "StreamingLabelPropagation",
    "build_knn_graph",
    "compare_graphs",
    "edge_weight_agreement",
    "neighbor_recall",
    "propagation_auprc_delta",
    "propagation_feature_spec",
    "propagation_lfs",
]
