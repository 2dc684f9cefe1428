"""Tests for repro.resilience — faults, retry, breakers, fallback, and
resilient featurization."""

from __future__ import annotations

import hashlib
import pickle
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    ServiceError,
    ServiceUnavailableError,
    TransientServiceError,
)
from repro.core.rng import spawn
from repro.datagen.corpus import Corpus
from repro.features.table import MISSING
from repro.resilience import (
    CircuitBreaker,
    CircuitConfig,
    CircuitState,
    Deadline,
    FallbackChain,
    FaultInjector,
    FaultSpec,
    ResiliencePolicy,
    RetryConfig,
    StaleValueCache,
    backoff_delay,
    build_substitute_map,
)
from repro.exec import ExecutorConfig
from repro.features.io import table_to_dict
from repro.resources.featurize import featurize_corpus, featurize_point
from repro.runs.store import encode_envelope


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def values_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and np.array_equal(a, b)
        )
    return a == b


def value_bytes(value):
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, frozenset):
        return repr(sorted(value)).encode()
    return repr(value).encode()


def tables_equal(a, b):
    if a.feature_names != b.feature_names or a.n_rows != b.n_rows:
        return False
    for name in a.feature_names:
        for va, vb in zip(a.column(name), b.column(name)):
            if not values_equal(va, vb):
                return False
    return True


@pytest.fixture(scope="module")
def small_corpus(tiny_splits):
    return Corpus(points=tiny_splits.image_test.points[:30], name="resilience")


@pytest.fixture(scope="module")
def suite(tiny_catalog):
    return list(tiny_catalog)


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_faultless_spec_passthrough(self, suite, small_corpus):
        injector = FaultInjector(FaultSpec(), seed=1)
        wrapped = injector.wrap_all(suite)
        clean = featurize_corpus(small_corpus, suite, seed=3)
        faulty = featurize_corpus(small_corpus, wrapped, seed=3)
        assert tables_equal(clean, faulty)
        assert injector.total_faults == 0

    def test_transient_rate_observed(self, suite, small_corpus):
        resource = suite[0]
        client = FaultInjector(FaultSpec(transient_rate=0.5), seed=2).wrap(resource)
        failures = 0
        n = 0
        for point in small_corpus:
            if not resource.supports(point.modality):
                continue
            n += 1
            try:
                client.apply(point, spawn(0, f"t/{point.point_id}"))
            except TransientServiceError:
                failures += 1
        assert 0 < failures < n

    def test_fault_schedule_deterministic(self, suite, small_corpus):
        def schedule(seed):
            client = FaultInjector(
                FaultSpec(transient_rate=0.4), seed=seed
            ).wrap(suite[0])
            out = []
            for point in small_corpus:
                if not client.supports(point.modality):
                    continue
                try:
                    client.apply(point, spawn(0, f"d/{point.point_id}"))
                    out.append("ok")
                except TransientServiceError:
                    out.append("fail")
            return out

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_attempt_counter_gives_fresh_draws(self, suite, small_corpus):
        # at 50% transient rate, repeated dials of the same point must
        # not all agree (attempt index feeds the fault stream)
        client = FaultInjector(FaultSpec(transient_rate=0.5), seed=4).wrap(suite[0])
        point = small_corpus[0]
        outcomes = set()
        for _ in range(12):
            try:
                client.apply(point, spawn(0, "fresh"))
                outcomes.add("ok")
            except TransientServiceError:
                outcomes.add("fail")
        assert outcomes == {"ok", "fail"}

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(transient_rate=1.5)

    def test_fault_schedule_digest_is_pinned(self, suite, tiny_splits):
        """One SHA-256 over ``(service, point, attempt, raised, value
        bytes)`` for attempts 0-2 of every supported cell of a mixed
        text/image corpus.  Any change to how a fault is decided or a
        value dialed — the stream derivation included — must keep
        every schedule and value, so this digest must not move."""
        injector = FaultInjector(FaultSpec(transient_rate=0.3), seed=17)
        points = (
            tiny_splits.text_labeled.points[:8]
            + tiny_splits.image_test.points[:8]
        )
        digest = hashlib.sha256()
        for client in injector.wrap_all(suite):
            for point in points:
                if not client.supports(point.modality):
                    continue
                for attempt in range(3):
                    rng = spawn(5, f"feat/{point.point_id}/{client.name}")
                    try:
                        payload = value_bytes(client.apply(point, rng))
                        raised = False
                    except TransientServiceError:
                        payload, raised = b"", True
                    key = (client.name, point.point_id, attempt, raised)
                    digest.update(repr(key).encode() + payload)
        assert injector.total_faults > 0
        assert digest.hexdigest() == (
            "f523efa53e06309f86837c80bf2d65dfd0a7e66752613bcc140dbf51e699342f"
        )


# ----------------------------------------------------------------------
# retry / backoff
# ----------------------------------------------------------------------
class _Scripted:
    """A resource whose ``apply`` returns ``script(attempt)`` (or raises
    what it raises), recording every dial."""

    name = "scripted"

    def __init__(self, script):
        self.script = script
        self.calls = []

    def apply(self, point, rng):
        attempt = len(self.calls)
        self.calls.append(attempt)
        return self.script(attempt)


def _raise(exc):
    raise exc


_POINT = SimpleNamespace(point_id=0)


def _call(resource, retry, deadline_budget=None):
    """One ``ResiliencePolicy.call``; returns (value, event, health)."""
    policy = ResiliencePolicy(
        retry=retry, seed=0, deadline_budget=deadline_budget
    )
    value, event = policy.call(
        resource, _POINT, rng_factory=lambda: spawn(0, "v")
    )
    return value, event, policy.health_report().services[resource.name]


class TestRetry:
    """``ResiliencePolicy.call`` is the one retry loop: transient errors
    are re-dialed with backoff, everything else is not."""

    def test_succeeds_after_transient_failures(self):
        resource = _Scripted(
            lambda a: _raise(TransientServiceError("flaky")) if a < 2 else "ok"
        )
        value, event, health = _call(resource, RetryConfig(max_attempts=3))
        assert value == "ok"
        assert resource.calls == [0, 1, 2]
        assert (event.outcome, event.retries) == ("recovered", 2)
        assert health.retries == 2 and health.successes == 1

    def test_exhausted_degrades_with_last_error(self):
        resource = _Scripted(
            lambda a: _raise(TransientServiceError(f"attempt {a}"))
        )
        value, event, health = _call(resource, RetryConfig(max_attempts=3))
        assert value is MISSING
        assert resource.calls == [0, 1, 2]
        assert event.error == "attempt 2" and event.retries == 2
        assert health.fallbacks == 1

    def test_non_transient_not_retried(self):
        resource = _Scripted(lambda a: _raise(ServiceUnavailableError("down")))
        value, event, health = _call(resource, RetryConfig(max_attempts=5))
        assert resource.calls == [0]
        assert value is MISSING and event.retries == 0
        assert health.retries == 0

    def test_backoff_grows_and_caps(self):
        config = RetryConfig(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        rng = spawn(0, "b")
        delays = [backoff_delay(config, k, rng) for k in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_deterministic_and_bounded(self):
        config = RetryConfig(base_delay=1.0, multiplier=1.0, jitter=0.2)
        a = [backoff_delay(config, 1, spawn(9, "j")) for _ in range(1)]
        b = [backoff_delay(config, 1, spawn(9, "j")) for _ in range(1)]
        assert a == b
        for _ in range(50):
            d = backoff_delay(config, 1, spawn(_, "j"))
            assert 0.8 <= d <= 1.2

    def test_retries_charge_simulated_delay(self):
        resource = _Scripted(
            lambda a: _raise(TransientServiceError("once")) if a == 0 else a
        )
        config = RetryConfig(max_attempts=2)
        value, _, health = _call(resource, config)
        assert value == 1
        assert health.simulated_delay == backoff_delay(
            config, 1, spawn(0, f"backoff/{resource.name}/0")
        )
        assert health.simulated_delay > 0

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            RetryConfig(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryConfig(jitter=2.0)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kwargs):
        defaults = dict(
            failure_threshold=3, recovery_ticks=5, half_open_max_calls=1,
            success_threshold=1,
        )
        defaults.update(kwargs)
        return CircuitBreaker(CircuitConfig(**defaults), name="svc")

    def trip(self, breaker, n=3):
        for _ in range(n):
            assert breaker.allow()
            breaker.record_failure()

    def test_closed_to_open_on_consecutive_failures(self):
        breaker = self.make()
        assert breaker.state is CircuitState.CLOSED
        self.trip(breaker)
        assert breaker.state is CircuitState.OPEN
        assert breaker.trips == 1

    def test_success_resets_failure_streak(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED

    def test_open_short_circuits_without_calling(self):
        breaker = self.make(recovery_ticks=100)
        self.trip(breaker)
        for _ in range(5):
            assert not breaker.allow()
        assert breaker.short_circuits == 5

    def test_half_open_probe_recovers(self):
        breaker = self.make(recovery_ticks=3)
        self.trip(breaker)
        # burn ticks until the recovery window elapses
        while not breaker.allow():
            pass
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = self.make(recovery_ticks=3)
        self.trip(breaker)
        while not breaker.allow():
            pass
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert breaker.trips == 2

    def test_half_open_limits_probes(self):
        breaker = self.make(recovery_ticks=3, half_open_max_calls=1)
        self.trip(breaker)
        while not breaker.allow():
            pass
        # one probe admitted; a second concurrent probe is rejected
        assert not breaker.allow()

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            CircuitConfig(failure_threshold=0)


# ----------------------------------------------------------------------
# fallback chain
# ----------------------------------------------------------------------
class TestFallback:
    def test_substitute_map_same_set_same_kind(self, suite):
        subs = build_substitute_map(suite)
        by_name = {r.name: r for r in suite}
        for name, candidates in subs.items():
            spec = by_name[name].spec
            for sub in candidates:
                assert sub.spec.service_set == spec.service_set
                assert sub.spec.kind is spec.kind
                assert sub.name != name
        # topics (set C categorical) has categorical C siblings
        assert [s.name for s in subs["topics"]]

    def test_numeric_excluded_by_default(self, suite):
        subs = build_substitute_map(suite)
        assert subs["url_risk_score"] == []

    def test_substitute_value_matches_sibling_featurization(
        self, suite, small_corpus
    ):
        subs = build_substitute_map(suite)
        chain = FallbackChain(substitutes=subs)
        point = small_corpus[0]
        value, source = chain.resolve("topics", point, seed=3)
        assert source.startswith("substitute:")
        sibling = source.split(":", 1)[1]
        expected = featurize_point(point, suite, seed=3)[sibling]
        assert values_equal(value, expected)

    def test_stale_cache_preferred(self, small_corpus):
        cache = StaleValueCache()
        point = small_corpus[0]
        cache.put("svc", point.point_id, frozenset({"cached"}))
        chain = FallbackChain(stale_cache=cache)
        value, source = chain.resolve("svc", point, seed=0)
        assert source == "stale_cache"
        assert value == frozenset({"cached"})

    def test_missing_is_the_floor(self, small_corpus):
        chain = FallbackChain()
        value, source = chain.resolve("unknown_service", small_corpus[0], seed=0)
        assert value is MISSING
        assert source == "missing"

    def test_faulty_substitute_falls_through(self, suite, small_corpus):
        # substitutes that themselves raise ServiceError are skipped
        injector = FaultInjector(FaultSpec(transient_rate=1.0), seed=0)
        wrapped = injector.wrap_all(suite)
        chain = FallbackChain(substitutes=build_substitute_map(wrapped))
        value, source = chain.resolve("topics", small_corpus[0], seed=3)
        assert value is MISSING
        assert source == "missing"


# ----------------------------------------------------------------------
# policy + resilient featurization
# ----------------------------------------------------------------------
def make_faulty_setup(suite, transient_rate=0.2, injector_seed=3, policy_seed=11):
    injector = FaultInjector(FaultSpec(transient_rate=transient_rate), seed=injector_seed)
    wrapped = injector.wrap_all(suite)
    policy = ResiliencePolicy(
        retry=RetryConfig(max_attempts=3),
        fallback=FallbackChain(substitutes=build_substitute_map(wrapped)),
        seed=policy_seed,
    )
    return wrapped, policy


class TestResilientFeaturization:
    def test_completes_with_degradation_report(self, suite, small_corpus):
        wrapped, policy = make_faulty_setup(suite)
        table = featurize_corpus(small_corpus, wrapped, seed=5, policy=policy)
        report = table.degradation
        assert report is not None
        assert report.n_cells == len(small_corpus) * len(suite)
        assert report.total_retries > 0
        assert report.n_recovered > 0
        assert 0.0 <= report.degraded_fraction < 0.2
        assert report.render()

    def test_same_seed_identical_across_runs_and_threads(
        self, suite, small_corpus
    ):
        tables = []
        for executor in (None, ExecutorConfig("thread", 4), None):
            wrapped, policy = make_faulty_setup(suite)
            tables.append(
                featurize_corpus(
                    small_corpus, wrapped, seed=5, executor=executor,
                    policy=policy,
                )
            )
        assert tables_equal(tables[0], tables[1])
        assert tables_equal(tables[0], tables[2])

    def test_policy_on_process_backend_raises(self, suite, small_corpus):
        wrapped, policy = make_faulty_setup(suite)
        with pytest.raises(ConfigurationError, match="process backend"):
            featurize_corpus(
                small_corpus, wrapped, seed=5, policy=policy,
                executor=ExecutorConfig("process", 2),
            )
        assert policy.health_report().total_attempts == 0

    def test_thread_backend_keeps_the_callers_accounting(
        self, suite, small_corpus
    ):
        """Thread workers dial through the caller's one policy, so its
        health totals equal a serial run's, deadlines included."""
        runs = []
        for executor in (None, ExecutorConfig("thread", 3)):
            injector = FaultInjector(FaultSpec(transient_rate=0.3), seed=3)
            wrapped = injector.wrap_all(suite)
            policy = ResiliencePolicy(
                retry=RetryConfig(max_attempts=3),
                fallback=FallbackChain(substitutes=build_substitute_map(wrapped)),
                seed=11,
                deadline_budget=0.12,
            )
            table = featurize_corpus(
                small_corpus, wrapped, seed=5, executor=executor, policy=policy
            )
            health = policy.health_report()
            runs.append((
                hashlib.sha256(
                    encode_envelope("feature_table", table_to_dict(table))
                ).hexdigest(),
                health.total_attempts,
                health.total_retries,
                health.total_fallbacks,
                health.total_deadline_exceeded,
            ))
        assert runs[0] == runs[1]
        assert runs[0][1] > len(small_corpus)
        assert runs[0][4] > 0

    def test_untouched_cells_match_fault_free_run(self, suite, small_corpus):
        wrapped, policy = make_faulty_setup(suite)
        faulty = featurize_corpus(small_corpus, wrapped, seed=5, policy=policy)
        clean = featurize_corpus(small_corpus, suite, seed=5)
        touched = {
            (e.point_id, e.service)
            for e in faulty.degradation.events
            if e.degraded
        }
        for i, point_id in enumerate(faulty.point_ids):
            for name in faulty.feature_names:
                if (point_id, name) in touched:
                    continue
                assert values_equal(faulty.value(i, name), clean.value(i, name))

    def test_health_report_counts(self, suite, small_corpus):
        wrapped, policy = make_faulty_setup(suite)
        featurize_corpus(small_corpus, wrapped, seed=5, policy=policy)
        report = policy.health_report()
        assert report.total_attempts > len(small_corpus)
        assert report.total_retries > 0
        assert report.render()
        one = next(iter(report.services.values()))
        assert one.attempts >= one.successes + one.failures - one.retries

    def test_policy_without_fallback_degrades_to_missing(
        self, suite, small_corpus
    ):
        injector = FaultInjector(FaultSpec(transient_rate=1.0), seed=0)
        wrapped = injector.wrap_all(suite)
        policy = ResiliencePolicy(retry=RetryConfig(max_attempts=2))
        table = featurize_corpus(small_corpus, wrapped, seed=5, policy=policy)
        assert table.degradation.n_missing == table.degradation.n_cells
        for name in table.feature_names:
            assert all(v is MISSING for v in table.column(name))

    def test_circuit_breaker_trips_under_outage(self, suite, small_corpus):
        # the breaker that runs is the governor's shared one: an outage
        # trips it, and since it only paces dials the table equals the
        # one an ungoverned policy builds
        from repro.scheduler import GovernorConfig, ServiceGovernor

        governor = ServiceGovernor(
            GovernorConfig(
                circuit=CircuitConfig(failure_threshold=4, recovery_ticks=3),
                breaker_pause_s=0.0,
            )
        )
        tables = []
        for gov in (governor, None):
            injector = FaultInjector(FaultSpec(transient_rate=1.0), seed=0)
            policy = ResiliencePolicy(
                retry=RetryConfig(max_attempts=2), seed=1, governor=gov
            )
            tables.append(
                featurize_corpus(
                    small_corpus, injector.wrap_all(suite), seed=5,
                    policy=policy,
                )
            )
        assert governor.totals()["breaker_trips"] > 0
        assert governor.totals()["breaker_waits"] > 0
        assert tables_equal(tables[0], tables[1])
        assert tables[0].degradation.n_missing == tables[0].degradation.n_cells

    def test_stale_cache_survives_second_pass(self, suite, small_corpus):
        # pass 1: no faults, warm the cache; pass 2: total outage — every
        # cell resolves from the stale cache with pass-1 values
        cache = StaleValueCache()
        warm_policy = ResiliencePolicy(
            fallback=FallbackChain(stale_cache=cache)
        )
        clean = featurize_corpus(
            small_corpus, suite, seed=5, policy=warm_policy
        )
        injector = FaultInjector(FaultSpec(transient_rate=1.0), seed=0)
        wrapped = injector.wrap_all(suite)
        outage_policy = ResiliencePolicy(
            retry=RetryConfig(max_attempts=2),
            fallback=FallbackChain(stale_cache=cache),
        )
        stale = featurize_corpus(
            small_corpus, wrapped, seed=5, policy=outage_policy
        )
        assert stale.degradation.by_outcome().get("stale_cache", 0) > 0
        assert tables_equal(clean, stale)

    def test_unsupported_modality_still_missing_without_event(
        self, suite, small_corpus
    ):
        wrapped, policy = make_faulty_setup(suite)
        table = featurize_corpus(small_corpus, wrapped, seed=5, policy=policy)
        # image-only corpus: no text-only features here, but embedding
        # features exist; check a feature absent for images stays MISSING
        for name in table.feature_names:
            spec = table.schema[name]
            for i, modality in enumerate(table.modalities):
                if not spec.available_for(modality):
                    assert table.value(i, name) is MISSING


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadline:
    def test_budget_accounting(self):
        d = Deadline(1.0)
        assert d.remaining == 1.0 and not d.exceeded
        d.consume(0.4)
        assert d.remaining == pytest.approx(0.6)
        d.consume(0.6)
        assert d.exceeded and d.remaining == 0.0

    def test_cap_clips_to_remaining(self):
        d = Deadline(0.5)
        assert d.cap(0.2) == 0.2
        d.consume(0.4)
        assert d.cap(0.2) == pytest.approx(0.1)
        d.consume(0.1)
        assert d.cap(0.2) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Deadline(0.0)
        with pytest.raises(ConfigurationError):
            Deadline(-1.0)
        with pytest.raises(ConfigurationError):
            Deadline(1.0).consume(-0.1)


class TestDeadlineRetry:
    """``ResiliencePolicy.call`` with a deadline budget: backoff is
    charged against the budget; a backoff that no longer fits pays the
    remainder and degrades instead of re-dialing."""

    CONFIG = RetryConfig(max_attempts=5, base_delay=0.05, jitter=0.0)

    def test_generous_budget_retries_normally(self):
        resource = _Scripted(
            lambda a: _raise(TransientServiceError("flaky")) if a < 2 else "ok"
        )
        value, _, health = _call(resource, self.CONFIG, deadline_budget=10.0)
        assert value == "ok" and resource.calls == [0, 1, 2]
        assert health.deadline_exceeded == 0

    def test_backoff_that_does_not_fit_degrades_after_one_dial(self):
        resource = _Scripted(lambda a: _raise(TransientServiceError("down")))
        value, event, health = _call(
            resource, self.CONFIG, deadline_budget=0.04
        )
        # one dial only: the first 0.05s backoff did not fit 0.04s
        assert resource.calls == [0]
        assert value is MISSING
        assert "deadline budget" in event.error
        # the call still pays the remaining budget before giving up
        assert health.simulated_delay == pytest.approx(0.04)
        assert (health.deadline_exceeded, health.retries) == (1, 0)

    def test_exact_fit_spends_budget_then_degrades_at_next_backoff(self):
        resource = _Scripted(lambda a: _raise(TransientServiceError("down")))
        # the 0.05s backoff fits a 0.05s budget exactly and re-dials; the
        # next 0.1s backoff finds nothing left and degrades
        value, event, health = _call(
            resource, self.CONFIG, deadline_budget=0.05
        )
        assert resource.calls == [0, 1]
        assert value is MISSING and event.retries == 1
        assert health.simulated_delay == pytest.approx(0.05)
        assert health.deadline_exceeded == 1

    def test_deadline_exceeded_is_not_retryable(self):
        # a ServiceError (degradable via fallback) but deliberately NOT
        # transient: the retry loop must not re-dial an exceeded call
        assert issubclass(DeadlineExceeded, ServiceError)
        assert not issubclass(DeadlineExceeded, TransientServiceError)

        resource = _Scripted(lambda a: _raise(DeadlineExceeded("spent")))
        with pytest.raises(DeadlineExceeded):
            _call(resource, RetryConfig(max_attempts=3))
        assert resource.calls == [0]

    def test_policy_degrades_on_deadline_instead_of_raising(
        self, suite, small_corpus
    ):
        injector = FaultInjector(FaultSpec(transient_rate=0.6), seed=3)
        wrapped = injector.wrap_all(suite)
        policy = ResiliencePolicy(
            retry=RetryConfig(max_attempts=3, jitter=0.0),
            fallback=FallbackChain(substitutes=build_substitute_map(wrapped)),
            seed=11,
            deadline_budget=0.04,  # smaller than the first 0.05s backoff
        )
        table = featurize_corpus(small_corpus, wrapped, seed=5, policy=policy)
        health = policy.health_report()
        # deadlines fired and were absorbed as degradations, not errors
        assert health.total_deadline_exceeded > 0
        assert health.total_retries == 0
        assert table.n_rows == len(small_corpus)


# ----------------------------------------------------------------------
# lazy backoff stream
# ----------------------------------------------------------------------
class TestLazyBackoff:
    """``policy.call`` derives its ``backoff/{service}/{point}`` stream at
    the first retry, not on every call.  The stream is consumed in the
    same order, so simulated delays are unchanged; the pinned values
    below were recorded with the stream derived eagerly on every call."""

    @staticmethod
    def _count_backoff_spawns(monkeypatch):
        import repro.resilience.policy as policy_module

        tags: list[str] = []

        def counting(seed, tag):
            tags.append(tag)
            return spawn(seed, tag)

        monkeypatch.setattr(policy_module, "spawn", counting)
        return tags

    @staticmethod
    def _run(suite, small_corpus, budget):
        client = FaultInjector(FaultSpec(transient_rate=0.5), seed=4).wrap(suite[1])
        policy = ResiliencePolicy(
            retry=RetryConfig(max_attempts=4, jitter=0.3),
            seed=13,
            deadline_budget=budget,
        )
        events = []
        for point in small_corpus.points:
            _, event = policy.call(
                client,
                point,
                rng_factory=lambda: spawn(5, f"feat/{point.point_id}/{client.name}"),
                seed=5,
            )
            if event is not None:
                events.append((event.point_id, event.outcome, event.retries))
        health = policy.health_report().services[client.name]
        return health, events

    def test_fault_free_call_derives_no_backoff_stream(
        self, suite, small_corpus, monkeypatch
    ):
        tags = self._count_backoff_spawns(monkeypatch)
        policy = ResiliencePolicy(retry=RetryConfig(jitter=0.5), seed=1)
        for point in small_corpus.points[:5]:
            _, event = policy.call(
                suite[0], point, rng_factory=lambda: spawn(0, "v"), seed=0
            )
            assert event is None
        assert tags == []

    def test_retried_calls_match_pinned_delays(
        self, suite, small_corpus, monkeypatch
    ):
        tags = self._count_backoff_spawns(monkeypatch)
        health, events = self._run(suite, small_corpus, budget=None)
        assert health.simulated_delay == 2.3142951433217314
        assert (health.attempts, health.retries) == (57, 27)
        assert health.deadline_exceeded == 0
        assert events == [
            (1512, "recovered", 1), (1513, "missing", 3),
            (1514, "recovered", 1), (1515, "recovered", 1),
            (1521, "recovered", 3), (1522, "missing", 3),
            (1523, "recovered", 1), (1526, "recovered", 1),
            (1529, "recovered", 1), (1530, "recovered", 1),
            (1534, "recovered", 3), (1536, "recovered", 3),
            (1538, "recovered", 2), (1539, "recovered", 2),
            (1541, "recovered", 1),
        ]
        # one stream per call that retried, none for the clean dials
        assert sorted(tags) == sorted(
            f"backoff/{suite[1].name}/{pid}" for pid, _, _ in events
        )

    def test_deadline_capped_retries_match_pinned_delays(
        self, suite, small_corpus
    ):
        health, events = self._run(suite, small_corpus, budget=0.12)
        assert health.simulated_delay == 1.2111738154945373
        assert (health.attempts, health.retries) == (45, 15)
        assert health.deadline_exceeded == 7
        missing = [pid for pid, outcome, _ in events if outcome == "missing"]
        assert missing == [1513, 1521, 1522, 1534, 1536, 1538, 1539]
        assert all(retries == 1 for _, _, retries in events)


# ----------------------------------------------------------------------
# concurrent sharing (the multi-tenant contract)
# ----------------------------------------------------------------------
class TestConcurrentSharing:
    """One policy / breaker instance shared by many threads — the
    orchestrator does exactly this — must stay consistent and picklable
    mid-flight."""

    def test_breaker_hammer_stays_consistent(self):
        breaker = CircuitBreaker(CircuitConfig(failure_threshold=3), name="svc")
        n_threads, ops = 8, 400
        errors = []

        def hammer(tid):
            try:
                for i in range(ops):
                    if i % 7 == tid % 7:
                        breaker.record_failure()
                    elif breaker.allow():
                        breaker.record_success()
                    if i % 97 == 0:
                        pickle.loads(pickle.dumps(breaker))
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert breaker.state in tuple(CircuitState)
        assert breaker.trips >= 0 and breaker.short_circuits >= 0

    def test_shared_policy_hammer(self, suite, small_corpus):
        injector = FaultInjector(FaultSpec(transient_rate=0.3), seed=3)
        wrapped = injector.wrap_all(suite)
        policy = ResiliencePolicy(
            retry=RetryConfig(max_attempts=3),
            fallback=FallbackChain(substitutes=build_substitute_map(wrapped)),
            seed=11,
        )
        resource = wrapped[0]
        points = small_corpus.points[:25]
        n_threads = 8
        errors = []

        def worker(tid):
            try:
                for i, point in enumerate(points):
                    policy.call(
                        resource, point,
                        rng_factory=lambda: spawn(5, f"v{tid}"),
                        seed=5,
                    )
                    if i % 10 == tid:
                        pickle.loads(pickle.dumps(policy))
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        health = policy.health_report().services[resource.name]
        # every call resolved exactly once: a fresh success or a fallback
        assert health.successes + health.fallbacks == n_threads * len(points)
        # the mid-flight pickles produced working, independent copies
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.health_report().services[resource.name].attempts > 0


# ----------------------------------------------------------------------
# stale-cache bounds: LRU eviction and insert timestamps
# ----------------------------------------------------------------------
class TestStaleCacheBounds:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            StaleValueCache(capacity=0)

    def test_lru_eviction_order(self):
        cache = StaleValueCache(capacity=2)
        cache.put("svc", 1, "a")
        cache.put("svc", 2, "b")
        assert cache.get("svc", 1) == (True, "a")  # refreshes 1's recency
        cache.put("svc", 3, "c")  # evicts 2, the least recently used
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("svc", 2) == (False, MISSING)
        assert cache.get("svc", 1) == (True, "a")
        assert cache.get("svc", 3) == (True, "c")

    def test_put_refresh_does_not_evict(self):
        cache = StaleValueCache(capacity=2)
        cache.put("svc", 1, "a")
        cache.put("svc", 2, "b")
        cache.put("svc", 1, "a2")  # in-place update: no eviction
        assert cache.evictions == 0
        assert cache.get("svc", 2) == (True, "b")
        assert cache.get("svc", 1) == (True, "a2")

    def test_entry_timestamps_use_injected_clock(self):
        tick = [100.0]
        cache = StaleValueCache(clock=lambda: tick[0])
        cache.put("svc", 1, "v")
        tick[0] = 250.0
        assert cache.entry("svc", 1) == (True, "v", 100.0)
        assert cache.now() == 250.0
        cache.put("svc", 1, "v2")  # re-put refreshes the timestamp
        assert cache.entry("svc", 1)[2] == 250.0

    def test_miss_entry(self):
        assert StaleValueCache().entry("svc", 9) == (False, MISSING, 0.0)

    def test_pickle_round_trip(self):
        cache = StaleValueCache(capacity=4)
        cache.put("svc", 1, "a")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.capacity == 4
        assert clone.get("svc", 1) == (True, "a")
        clone.put("svc", 2, "b")  # the recreated lock works
        assert len(clone) == 2 and len(cache) == 1


# ----------------------------------------------------------------------
# counter exactness under concurrency (the bugfix contract): health
# totals must be exactly right, not merely monotone — serving stats and
# BENCH artifacts report them
# ----------------------------------------------------------------------
class TestCounterExactness:
    N_THREADS = 8
    CALLS = 25

    def _hammer(self, policy, resource, point):
        errors = []

        def worker(tid):
            try:
                for _ in range(self.CALLS):
                    policy.call(
                        resource, point,
                        rng_factory=lambda: spawn(5, f"c{tid}"),
                        seed=5,
                    )
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        return policy.health(resource.name)

    def test_always_failing_totals_exact(self, suite, small_corpus):
        point = small_corpus.points[0]
        resource = next(r for r in suite if r.supports(point.modality))
        client = FaultInjector(
            FaultSpec(transient_rate=1.0), seed=3
        ).wrap(resource)
        policy = ResiliencePolicy(retry=RetryConfig(max_attempts=3), seed=0)
        health = self._hammer(policy, client, point)
        total = self.N_THREADS * self.CALLS
        assert health.attempts == total * 3
        assert health.failures == total * 3
        assert health.retries == total * 2
        assert health.fallbacks == total
        assert health.successes == 0

    def test_faultless_totals_exact(self, suite, small_corpus):
        point = small_corpus.points[0]
        resource = next(r for r in suite if r.supports(point.modality))
        policy = ResiliencePolicy(retry=RetryConfig(max_attempts=3), seed=0)
        health = self._hammer(policy, resource, point)
        total = self.N_THREADS * self.CALLS
        assert health.attempts == total
        assert health.successes == total
        assert health.failures == 0
        assert health.retries == 0
        assert health.fallbacks == 0


class TestGovernorTripExactness:
    def test_shared_breaker_trips_exactly_once(self):
        from repro.scheduler import GovernorConfig, ServiceGovernor

        governor = ServiceGovernor(
            GovernorConfig(circuit=CircuitConfig(failure_threshold=3))
        )
        n_threads, ops = 8, 50
        errors = []

        def worker():
            try:
                for _ in range(ops):
                    governor.on_failure("svc")
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = governor.report()["svc"]
        assert stats.failures == n_threads * ops
        # nothing calls allow(), so the breaker never half-opens: the
        # trip happens exactly once no matter the interleaving, and
        # attributing it via record_failure()'s return value must not
        # double-count it
        assert governor.breaker("svc").trips == 1
        assert stats.breaker_trips == 1
        assert governor.totals()["breaker_trips"] == 1
