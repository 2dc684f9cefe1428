"""Multi-tenant orchestration: contention, shedding, dedup, bit-identity.

These tests run real (tiny) pipelines concurrently against the shared
session catalog, so they exercise the full stack: governor pacing,
fair-queued stage work, cross-tenant dedup through the shared store,
admission shedding, and the solo-vs-contended determinism oracle.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.core.config import CurationConfig, PipelineConfig
from repro.core.exceptions import ConfigurationError
from repro.resilience.circuit import CircuitConfig
from repro.scheduler import (
    FairQueueConfig,
    GovernorConfig,
    MultiTenantOrchestrator,
    OrchestratorConfig,
    TenantSpec,
)

VICTIM = "org_embedding"

BASE_CONFIG = PipelineConfig(
    seed=7,
    curation=CurationConfig(max_seed_nodes=600, max_dev_nodes=300),
)


@pytest.fixture(scope="module")
def orchestrator(tiny_world, tiny_task, tiny_splits, tiny_catalog, tmp_path_factory):
    config = OrchestratorConfig(
        governor=GovernorConfig(
            rate_overrides={VICTIM: 800.0},
            circuit=CircuitConfig(),
            call_deadline=0.08,
        ),
        fair_queue=FairQueueConfig(workers=2, max_queue=64),
        max_active=2,
        max_waiting=1,
    )
    return MultiTenantOrchestrator(
        tiny_world, tiny_task, tiny_splits, tiny_catalog,
        config=config,
        base_config=BASE_CONFIG,
        run_root=tmp_path_factory.mktemp("mt"),
    )


@pytest.fixture(scope="module")
def contended_report(orchestrator):
    """One orchestrated batch of four tenants:

    * t0 and t1 are identical (same seed/faults) — the dedup pair;
    * t2 is degraded (50% victim availability);
    * t3 exceeds max_active + max_waiting — admission-shed.
    """
    tenants = [
        TenantSpec(name="t0", seed=101),
        TenantSpec(name="t1", seed=101),
        TenantSpec(
            name="t2", seed=202, availability=0.5, faulty_services=(VICTIM,)
        ),
        TenantSpec(
            name="t3", seed=303, availability=0.5, faulty_services=(VICTIM,)
        ),
    ]
    return orchestrator.run(tenants)


class TestContendedBatch:
    def test_every_tenant_completes(self, contended_report):
        assert contended_report.ok
        errors = {t.name: t.error for t in contended_report.tenants}
        assert errors == {"t0": None, "t1": None, "t2": None, "t3": None}

    def test_identical_tenants_dedup_and_agree(self, contended_report):
        by_name = {t.name: t for t in contended_report.tenants}
        t0, t1 = by_name["t0"], by_name["t1"]
        # one of the pair computed, the other decoded its artifacts
        assert len(t0.deduped_stages) + len(t1.deduped_stages) > 0
        assert contended_report.dedup["hits"] > 0
        # a dedup hit is byte-reuse, so the pair must agree exactly
        assert t0.matches(t1)

    def test_degraded_tenant_differs_but_completes(self, contended_report):
        by_name = {t.name: t for t in contended_report.tenants}
        t0, t2 = by_name["t0"], by_name["t2"]
        assert t2.ok and not t2.shed
        # different fault regime -> different fingerprints, no collision
        assert t0.stage_fingerprints != t2.stage_fingerprints
        # the faults actually fired and the policy absorbed them
        assert t2.counters["retries"] + t2.counters["fallbacks"] > 0

    def test_shed_tenant_degrades_gracefully(self, contended_report):
        by_name = {t.name: t for t in contended_report.tenants}
        t3 = by_name["t3"]
        assert contended_report.shed_tenants == ["t3"]
        assert t3.shed and t3.ok
        assert t3.max_attempts == 1
        # no retry budget: flaky calls go straight to the fallback chain
        assert t3.counters["retries"] == 0
        assert "auprc" in t3.metrics

    def test_fairness_holds_under_contention(self, contended_report):
        # this batch mixes queued admissions with a full-dedup tenant,
        # so per-tenant walls legitimately spread; the tight Jain >= 0.8
        # bound is asserted by the multitenant experiment's no-cliff
        # checks at realistic configurations (see BENCH_multitenant)
        assert 0.25 < contended_report.jain_fairness <= 1.0
        assert contended_report.throughput > 0

    def test_shared_infrastructure_accounting(self, contended_report):
        gov = contended_report.governor
        assert gov["calls"] > 0
        assert VICTIM in contended_report.governor_services
        # every tenant has a lane; a tenant only skips the fair queue
        # entirely when every one of its stages was a dedup hit
        assert set(contended_report.fair_queue) == {"t0", "t1", "t2", "t3"}
        for t in contended_report.tenants:
            counters = contended_report.fair_queue[t.name]
            ran_work = counters["dispatched"] + counters["shed_items"] > 0
            assert ran_work or t.deduped_stages

    def test_contended_matches_solo(self, contended_report, orchestrator):
        """The headline determinism claim: a tenant's outputs under
        contention are bit-identical to the same spec run alone."""
        by_name = {t.name: t for t in contended_report.tenants}
        solo = orchestrator.run_solo(
            TenantSpec(
                name="t2", seed=202, availability=0.5,
                faulty_services=(VICTIM,),
            )
        )
        assert solo.matches(by_name["t2"])

    def test_shed_solo_baseline_matches(self, contended_report, orchestrator):
        """Shedding is a *config* change (max_attempts=1), so the shed
        tenant is reproducible too — against a shed solo baseline."""
        by_name = {t.name: t for t in contended_report.tenants}
        solo = orchestrator.run_solo(
            TenantSpec(
                name="t3", seed=303, availability=0.5,
                faulty_services=(VICTIM,),
            ),
            shed=True,
        )
        assert solo.matches(by_name["t3"])


class TestScratchDirectories:
    def test_runs_given_no_directory_leave_nothing_behind(
        self, tiny_world, tiny_task, tiny_splits, tiny_catalog, tmp_path,
        monkeypatch,
    ):
        """A batch or a solo run handed no directory works in a
        temporary one and removes it on return."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        orch = MultiTenantOrchestrator(
            tiny_world, tiny_task, tiny_splits, tiny_catalog,
            base_config=BASE_CONFIG,
        )
        spec = TenantSpec(name="t0", seed=101)
        report = orch.run([spec])
        assert report.ok
        assert orch.run_solo(spec).matches(report.tenants[0])
        assert list(tmp_path.iterdir()) == []


class TestOrchestratorValidation:
    def test_rejects_empty_roster(self, orchestrator):
        with pytest.raises(ConfigurationError, match="at least one tenant"):
            orchestrator.run([])

    def test_rejects_duplicate_names(self, orchestrator):
        with pytest.raises(ConfigurationError, match="duplicate tenant names"):
            orchestrator.run([TenantSpec(name="x"), TenantSpec(name="x")])

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(name="")
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", availability=0.0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", max_attempts=0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            OrchestratorConfig(max_waiting=1)  # needs max_active > 0
        with pytest.raises(ConfigurationError):
            OrchestratorConfig(max_active=-1)

    def test_tenant_failure_does_not_crash_batch(
        self, tiny_world, tiny_task, tiny_splits, tiny_catalog, tmp_path
    ):
        """A tenant that dies reports ok=False; the rest complete."""
        # sabotage one tenant's config: a service set that matches no
        # resource, so featurization has nothing to work with mid-run
        bad_config = PipelineConfig(
            seed=7,
            curation=CurationConfig(max_seed_nodes=600, max_dev_nodes=300),
            model_service_sets=("nonexistent",),
            lf_service_sets=("nonexistent",),
        )
        orch_bad = MultiTenantOrchestrator(
            tiny_world, tiny_task, tiny_splits, tiny_catalog,
            base_config=bad_config,
            run_root=tmp_path / "bad",
        )
        report = orch_bad.run([TenantSpec(name="doomed", seed=5)])
        assert not report.ok
        (doomed,) = report.tenants
        assert doomed.error is not None
