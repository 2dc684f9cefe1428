"""Scheduler building blocks: token bucket, governor, fair queue, dedup."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.core.exceptions import ConfigurationError, ExecutorError
from repro.resilience.circuit import CircuitConfig
from repro.scheduler import (
    FairQueueConfig,
    FairScheduler,
    GovernorConfig,
    ServiceGovernor,
    StageDeduper,
    TokenBucket,
    jain_index,
)


class FakeClock:
    """Manual clock whose sleep() advances it — no real waiting."""

    def __init__(self) -> None:
        self.t = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.t += seconds


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_paced(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=2.0, clock=clock, sleep=clock.sleep)
        # burst drains the full bucket instantly
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        # the third token must wait 1/rate seconds
        waited = bucket.acquire()
        assert waited == pytest.approx(0.5)
        assert clock.t == pytest.approx(0.5)
        assert bucket.waits == 1
        assert bucket.waited_s == pytest.approx(0.5)

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=3.0, clock=clock, sleep=clock.sleep)
        for _ in range(3):
            assert bucket.try_acquire()
        clock.t += 100.0  # long idle: refill must cap at capacity
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_unlimited_never_waits(self):
        bucket = TokenBucket(rate=0.0)
        assert bucket.unlimited
        assert bucket.acquire() == 0.0
        assert bucket.try_acquire()

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, capacity=0.0)

    def test_concurrent_acquires_account_exactly(self):
        bucket = TokenBucket(rate=100_000.0, capacity=8.0)
        taken = []

        def worker():
            for _ in range(50):
                bucket.acquire()
                taken.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(taken) == 200


# ----------------------------------------------------------------------
# governor
# ----------------------------------------------------------------------
class TestServiceGovernor:
    def test_throttles_per_service_rate(self):
        clock = FakeClock()
        governor = ServiceGovernor(
            GovernorConfig(rate_limit=2.0, burst=1.0),
            clock=clock, sleep=clock.sleep,
        )
        assert governor.acquire("svc") == 0.0
        waited = governor.acquire("svc")
        assert waited == pytest.approx(0.5)
        stats = governor.report()["svc"]
        assert stats.calls == 2
        assert stats.throttle_waits == 1
        assert stats.throttle_wait_s == pytest.approx(0.5)

    def test_rate_overrides_pick_service(self):
        clock = FakeClock()
        governor = ServiceGovernor(
            GovernorConfig(rate_limit=0.0, rate_overrides={"hot": 1.0}, burst=1.0),
            clock=clock, sleep=clock.sleep,
        )
        assert governor.acquire("cold") == 0.0
        assert governor.acquire("cold") == 0.0
        assert governor.acquire("hot") == 0.0
        assert governor.acquire("hot") == pytest.approx(1.0)

    def test_shared_breaker_paces_instead_of_failing(self):
        clock = FakeClock()
        config = GovernorConfig(
            circuit=CircuitConfig(failure_threshold=2, recovery_ticks=3),
            breaker_pause_s=0.001,
        )
        governor = ServiceGovernor(config, clock=clock, sleep=clock.sleep)
        governor.acquire("svc")
        governor.on_failure("svc")
        governor.on_failure("svc")  # trips: two consecutive failures
        stats = governor.report()["svc"]
        assert stats.breaker_trips == 1
        # an open breaker never fails the call — it paces until the
        # logical clock reaches the half-open probe window
        waited = governor.acquire("svc")
        assert waited > 0.0
        assert governor.report()["svc"].breaker_waits > 0
        governor.on_success("svc")
        totals = governor.totals()
        assert totals["breaker_trips"] == 1
        assert totals["calls"] == 2

    def test_forced_through_safety_valve(self):
        clock = FakeClock()
        config = GovernorConfig(
            circuit=CircuitConfig(failure_threshold=1, recovery_ticks=10_000),
            breaker_pause_s=0.0,
            max_breaker_waits=5,
        )
        governor = ServiceGovernor(config, clock=clock, sleep=clock.sleep)
        governor.acquire("svc")
        governor.on_failure("svc")
        governor.acquire("svc")  # must terminate via the safety valve
        assert governor.report()["svc"].forced_through == 1

    def test_pickle_drops_and_recreates_lock(self):
        governor = ServiceGovernor(GovernorConfig(rate_limit=5.0), services=["a"])
        governor.acquire("a")
        clone = pickle.loads(pickle.dumps(governor))
        assert clone.report()["a"].calls == 1
        clone.acquire("a")  # the recreated lock works

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            GovernorConfig(call_deadline=0.0)
        with pytest.raises(ConfigurationError):
            GovernorConfig(max_breaker_waits=0)


# ----------------------------------------------------------------------
# weighted fair queue
# ----------------------------------------------------------------------
class TestFairScheduler:
    def test_executor_preserves_input_order(self):
        with FairScheduler(FairQueueConfig(workers=3)) as scheduler:
            ex = scheduler.register("t", weight=1.0)
            results = list(ex.imap_ordered(lambda x: x * x, list(range(20))))
        assert results == [x * x for x in range(20)]

    def test_error_propagates_at_failed_position(self):
        def boom(x):
            if x == 3:
                raise ValueError("x is 3")
            return x

        with FairScheduler(FairQueueConfig(workers=2)) as scheduler:
            ex = scheduler.register("t")
            it = ex.imap_ordered(boom, [0, 1, 2, 3, 4])
            assert [next(it) for _ in range(3)] == [0, 1, 2]
            with pytest.raises(ValueError, match="x is 3"):
                next(it)

    def test_wfq_respects_weights(self):
        """A weight-3 tenant gets ~3x the dispatches of a weight-1
        tenant while both lanes stay backlogged."""
        scheduler = FairScheduler(FairQueueConfig(workers=1))
        scheduler.register("heavy", weight=3.0)
        scheduler.register("light", weight=1.0)
        order: list[str] = []
        lock = threading.Lock()

        def tag(name):
            def fn(_):
                with lock:
                    order.append(name)
            return fn

        # enqueue everything before the (single) worker starts
        items_h = [scheduler.submit("heavy", tag("h"), i) for i in range(30)]
        items_l = [scheduler.submit("light", tag("l"), i) for i in range(10)]
        scheduler.start()
        for item in items_h + items_l:
            item.done.wait()
        scheduler.close()
        # first 20 dispatches: heavy should get ~3 of every 4
        head = order[:20]
        assert head.count("h") >= 12
        counters = scheduler.counters()
        assert counters["heavy"]["dispatched"] == 30
        assert counters["light"]["dispatched"] == 10

    def test_full_lane_sheds_inline(self):
        config = FairQueueConfig(workers=1, max_queue=2)
        scheduler = FairScheduler(config)  # workers not started: lane fills
        scheduler.register("t")
        ran_on = []
        items = [
            scheduler.submit("t", lambda _: ran_on.append(threading.get_ident()), i)
            for i in range(4)
        ]
        # two queued, two shed (ran inline on this thread, already done)
        assert [i.shed for i in items] == [False, False, True, True]
        assert items[2].done.is_set() and items[3].done.is_set()
        assert set(ran_on) == {threading.get_ident()}
        assert scheduler.counters()["t"]["shed_items"] == 2
        scheduler.close()

    def test_close_fails_queued_items(self):
        scheduler = FairScheduler(FairQueueConfig(workers=1))
        scheduler.register("t")
        item = scheduler.submit("t", lambda x: x, 1)  # never started
        scheduler.close()
        assert isinstance(item.error, ExecutorError)
        with pytest.raises(ExecutorError):
            scheduler.submit("t", lambda x: x, 2)

    def test_duplicate_or_invalid_registration(self):
        scheduler = FairScheduler()
        scheduler.register("t")
        with pytest.raises(ConfigurationError):
            scheduler.register("t")
        with pytest.raises(ConfigurationError):
            scheduler.register("u", weight=0.0)
        with pytest.raises(ConfigurationError):
            scheduler.submit("ghost", lambda x: x, 1)

    def test_idle_lane_cannot_bank_priority(self):
        """A lane that drained long ago rejoins at the global virtual
        clock instead of monopolizing the workers with its saved lag."""
        scheduler = FairScheduler(FairQueueConfig(workers=1))
        scheduler.register("busy")
        scheduler.register("idler")
        done = [scheduler.submit("busy", lambda x: x, i) for i in range(20)]
        scheduler.start()
        for item in done:
            item.done.wait()
        # busy's vtime advanced by 20; idler rejoins at >= the clock
        item = scheduler.submit("idler", lambda x: x, 0)
        item.done.wait()
        counters = scheduler.counters()
        assert counters["idler"]["vtime"] >= counters["busy"]["vtime"] - 1.0
        scheduler.close()


# ----------------------------------------------------------------------
# single-flight dedup
# ----------------------------------------------------------------------
class TestStageDeduper:
    def test_single_flight_computes_once(self):
        deduper = StageDeduper()
        computed = []
        barrier = threading.Barrier(4)
        outcomes = [None] * 4

        def compute():
            computed.append(1)
            return {"v": 42}, {"art": "ref"}

        def runner(i):
            barrier.wait()
            outcomes[i] = deduper.run("key", compute)

        threads = [threading.Thread(target=runner, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(computed) == 1
        owners = [o for o in outcomes if not o.hit]
        hits = [o for o in outcomes if o.hit]
        assert len(owners) == 1 and len(hits) == 3
        assert owners[0].value == {"v": 42}
        assert all(h.value is None and h.refs == {"art": "ref"} for h in hits)
        assert deduper.stats() == {"hits": 3, "misses": 1}

    def test_different_keys_do_not_collide(self):
        deduper = StageDeduper()
        a = deduper.run("a", lambda: ("va", {"r": 1}))
        b = deduper.run("b", lambda: ("vb", {"r": 2}))
        assert not a.hit and not b.hit
        assert deduper.stats() == {"hits": 0, "misses": 2}

    def test_error_releases_key_and_propagates(self):
        deduper = StageDeduper()

        def failing():
            raise RuntimeError("compute died")

        with pytest.raises(RuntimeError, match="compute died"):
            deduper.run("key", failing)
        # the key is released: a retry recomputes instead of hitting
        outcome = deduper.run("key", lambda: ("ok", {"r": 3}))
        assert not outcome.hit and outcome.value == "ok"
        assert deduper.stats()["hits"] == 0


# ----------------------------------------------------------------------
# fairness metric
# ----------------------------------------------------------------------
def test_jain_index():
    assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0
