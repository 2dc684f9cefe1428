"""Loading a completed run's deployable artifacts for serving.

A checkpointed end-to-end run (``--run-dir``) leaves behind everything a
serving process needs, content-hashed and integrity-checked:

* the **featurize** stage record — its config carries the derived
  featurization seed and the sorted feature-name list (the serving
  schema contract), and its artifacts are the featurized tables;
* the **train** stage record — its config carries the servable-feature
  selection knobs (``model_service_sets``, ``include_image_features``)
  and its artifact is the fitted fusion model.

The feature tables ride along as the warm-start corpus for the stale
cache: every (service, point) value the batch run computed seeds the
fallback chain's stale tier, so a degraded serving call for a known
point serves the *exact* batch value (JSON round-trips floats
bit-for-bit), which is what makes decisions identical across cache
states and availability levels.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.exceptions import CheckpointError, ConfigurationError
from repro.core.pipeline import read_stage
from repro.features.table import FeatureTable
from repro.runs.manifest import RunManifest, StageRecord
from repro.runs.store import RunStore

__all__ = ["ServingArtifacts"]


def _complete_stage(manifest: RunManifest, name: str) -> StageRecord:
    record = manifest.stages.get(name)
    if record is None or record.status != "complete":
        raise CheckpointError(
            f"run at {manifest.path.parent} has no completed {name!r} stage; "
            f"serving requires a finished checkpointed run "
            f"(python -m repro.experiments end_to_end --run-dir DIR)"
        )
    return record


def _stage_config(record: StageRecord, key: str) -> object:
    config = record.config if isinstance(record.config, dict) else {}
    if key not in config:
        raise CheckpointError(
            f"stage {record.name!r} config lacks {key!r}; the run was written "
            f"by an incompatible build — recompute it with this version"
        )
    return config[key]


@dataclass
class ServingArtifacts:
    """Everything a :class:`~repro.serving.server.ModelServer` deploys.

    ``featurize_seed`` is the *derived* featurization seed the batch run
    used, so single-point serving draws the identical per-(point,
    resource) RNG streams.  ``feature_names`` is the full catalog schema
    the run featurized with — the serving catalog must match it exactly
    (:meth:`validate_catalog`), otherwise cached values and model
    vectorizers would silently disagree with the live services.
    """

    model: object
    featurize_seed: int
    feature_names: list[str]
    model_service_sets: tuple[str, ...]
    include_image_features: bool
    tables: dict[str, FeatureTable] = field(default_factory=dict)
    context: dict = field(default_factory=dict)

    @classmethod
    def load(cls, run_dir: str | Path) -> "ServingArtifacts":
        """Load serving artifacts from a completed checkpointed run.

        The featurize and train records decode through the pipeline's
        stage table (:func:`~repro.core.pipeline.read_stage`), so a
        sharded run serves the same materialized tables as an in-memory
        one.  Integrity failures propagate — serving never starts from
        bytes it cannot vouch for (``scrub --repair`` heals the run).
        """
        manifest = RunManifest.load(run_dir)
        store = RunStore(run_dir)
        featurize = _complete_stage(manifest, "featurize")
        train = _complete_stage(manifest, "train")
        tables = read_stage(featurize, store)
        model = read_stage(train, store)["model"]
        return cls(
            model=model,
            featurize_seed=int(_stage_config(featurize, "derived_seed")),
            feature_names=list(_stage_config(featurize, "features")),
            model_service_sets=tuple(_stage_config(train, "model_service_sets")),
            include_image_features=bool(
                _stage_config(train, "include_image_features")
            ),
            tables=tables,
            context=dict(manifest.context),
        )

    def validate_catalog(self, resources) -> None:
        """Reject a live catalog whose services drift from the run's.

        The model's vectorizer was fitted on exactly the run's feature
        columns; a missing or extra live service would not fail loudly
        on its own — it would mis-featurize every request.
        """
        live = sorted(r.name for r in resources)
        expected = sorted(self.feature_names)
        if live != expected:
            missing = sorted(set(expected) - set(live))
            extra = sorted(set(live) - set(expected))
            raise ConfigurationError(
                f"serving catalog does not match the run's feature schema "
                f"(missing: {missing or 'none'}, unexpected: {extra or 'none'}); "
                f"redeploy from a run featurized with this catalog"
            )

    def warm_entries(self) -> Iterator[tuple[str, int, object]]:
        """Yield every (service, point_id, value) the batch run stored.

        Cells where the feature simply does not exist for the point's
        modality are skipped (nothing was dialed; there is nothing to
        remember).  Cells where the service ran and returned *no
        output* are kept even though they hold :data:`MISSING`: that
        empty answer IS the service's answer for the point, and warming
        it keeps a degraded serving call from substituting a sibling
        value where the batch run had none.
        """
        for table in self.tables.values():
            point_ids = [int(pid) for pid in table.point_ids]
            for spec in table.schema:
                column = table.column(spec.name)
                for pid, modality, value in zip(
                    point_ids, table.modalities, column
                ):
                    if spec.available_for(modality):
                        yield spec.name, pid, value
