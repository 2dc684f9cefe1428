"""repro — reproduction of "Leveraging Organizational Resources to Adapt
Models to New Data Modalities" (Suri et al., VLDB 2020).

The package implements the paper's three-step *split architecture* for
cross-modal adaptation, together with every substrate it depends on:

* :mod:`repro.datagen` — a synthetic organizational world that stands in
  for Google's proprietary corpora (see DESIGN.md for the substitution
  argument).
* :mod:`repro.resources` — simulated organizational resources
  (model-based services, aggregate statistics, rule-based services).
* :mod:`repro.features` — the common structured feature space induced by
  applying resources across modalities.
* :mod:`repro.dataflow` — the ordered per-record map the feature and
  labeling-function pipelines run on.
* :mod:`repro.labeling` — weak supervision: labeling functions, label
  matrix, and a Snorkel-style generative label model.
* :mod:`repro.mining` — automatic labeling-function generation via
  frequent-itemset mining, plus a simulated domain expert.
* :mod:`repro.propagation` — graph-based label propagation for finding
  borderline examples.
* :mod:`repro.models` — NumPy discriminative models and the three
  multi-modal fusion strategies (early, intermediate, DeViSE).
* :mod:`repro.core` — the :class:`~repro.core.pipeline.CrossModalPipeline`
  that ties the steps together.
* :mod:`repro.experiments` — harnesses regenerating every table and
  figure in the paper's evaluation.
"""

from repro.core.config import PipelineConfig
from repro.core.pipeline import CrossModalPipeline, PipelineResult
from repro.datagen.tasks import TaskConfig, classification_task, list_tasks

__version__ = "1.0.0"

__all__ = [
    "CrossModalPipeline",
    "PipelineConfig",
    "PipelineResult",
    "TaskConfig",
    "classification_task",
    "list_tasks",
    "__version__",
]
