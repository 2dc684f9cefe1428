"""End-to-end chaos experiment: graceful degradation under faults."""

from __future__ import annotations

import math

import pytest

from repro.experiments.chaos import run_chaos
from repro.experiments.common import ExperimentContext
from repro.experiments.reporting import no_cliff


@pytest.fixture(scope="module")
def chaos_result():
    ctx = ExperimentContext(task_name="CT1", scale=0.06, seed=7, n_history=2500)
    return run_chaos(
        seed=7,
        availabilities=(1.0, 0.7, 0.4),
        n_model_seeds=1,
        ctx=ctx,
    )


class TestChaosExperiment:
    def test_reports_every_level(self, chaos_result):
        assert chaos_result.availabilities == [1.0, 0.7, 0.4]
        assert len(chaos_result.auprcs) == 3
        assert all(math.isfinite(a) for a in chaos_result.auprcs)
        assert all(0.0 <= a <= 1.0 for a in chaos_result.auprcs)

    def test_full_availability_is_fault_free(self, chaos_result):
        assert chaos_result.degraded_fractions[0] == 0.0
        assert chaos_result.missing_fractions[0] == 0.0
        assert chaos_result.retries[0] == 0
        assert chaos_result.fallbacks[0] == 0

    def test_faulty_levels_degrade_and_retry(self, chaos_result):
        for i in (1, 2):
            assert chaos_result.retries[i] > 0
            assert chaos_result.degraded_fractions[i] > 0.0
        # lower availability means more degradation, not less
        assert (
            chaos_result.degraded_fractions[2]
            > chaos_result.degraded_fractions[1]
        )

    def test_render_includes_verdict(self, chaos_result, monkeypatch, capsys):
        import repro.experiments.__main__ as cli

        monkeypatch.setattr(cli, "run_chaos", lambda *a, **k: chaos_result)
        code = cli.main(["chaos"])
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "avail 1.00" in out
        graceful = chaos_result.gates()["graceful"]
        assert f"gate=graceful [{'OK' if graceful else 'FAIL'}]\n" in out
        assert code == (0 if graceful else 1)

    def test_health_reports_collected(self, chaos_result):
        assert len(chaos_result.health_renders) == 3


class TestGracefulDefinition:
    def _graceful(self, auprcs):
        return no_cliff({1.0 - 0.2 * i: a for i, a in enumerate(auprcs)})

    def test_smooth_decline_is_graceful(self):
        assert self._graceful([0.40, 0.35, 0.28, 0.21])

    def test_cliff_is_not_graceful(self):
        assert not self._graceful([0.40, 0.38, 0.08])

    def test_threshold_is_per_step(self):
        # total loss >50% is fine as long as no single step is a cliff
        assert self._graceful([0.40, 0.24, 0.15])
