"""Tests for the tail-tolerance layer (``repro.serving.health``):

latency digest, health scoring, AIMD concurrency limiting, brownout
shedding, hedged requests, the cancellation-aware request lifecycle,
the liveness-checked ``predict()`` wait (the no-timeout hang
regression), and non-finite input isolation (one caller's NaN row must
not open the breaker for everyone).
"""

import time

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.faults import FaultPlan, ManualClock, inject
from repro.regression import FittedModel
from repro.runtime.metrics import counters_delta, metrics
from repro.serving import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    AIMDLimiter,
    BrownoutController,
    BrownoutShedError,
    EngineStoppedError,
    HealthTracker,
    HedgedFuture,
    HedgePolicy,
    LatencyDigest,
    ModelRegistry,
    PredictionEngine,
    ShardRouter,
)
from repro.serving.engine import _STOP


@pytest.fixture(scope="module")
def basis():
    return OrthonormalBasis.total_degree(3, 2)


@pytest.fixture(scope="module")
def model(basis):
    rng = np.random.default_rng(7)
    return FittedModel(basis, rng.normal(size=basis.size))


def make_engine(basis, model, **kwargs):
    registry = ModelRegistry()
    registry.publish("m", model)
    kwargs.setdefault("max_delay_seconds", 0.0)
    kwargs.setdefault("workers", 1)
    return PredictionEngine(registry, **kwargs)


class TestManualClock:
    def test_starts_at_start_and_advances(self):
        clock = ManualClock(start=5.0)
        assert clock() == 5.0
        clock.advance(2.5)
        assert clock() == 7.5
        clock.set(10.0)
        assert clock() == 10.0

    def test_rejects_time_travel(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        clock.advance(3.0)
        with pytest.raises(ValueError):
            clock.set(1.0)

    def test_repr_mentions_now(self):
        assert "3" in repr(ManualClock(start=3.0))


class TestLatencyDigest:
    def test_empty_digest_has_no_quantiles(self):
        digest = LatencyDigest()
        assert digest.count == 0
        assert digest.quantile(0.5) is None
        snap = digest.snapshot()
        assert snap["count"] == 0

    def test_quantile_is_conservative_upper_edge(self):
        digest = LatencyDigest()
        for value in [0.001, 0.002, 0.003, 0.010, 0.100]:
            digest.observe(value)
        assert digest.count == 5
        p50 = digest.quantile(0.5)
        p99 = digest.quantile(0.99)
        # Bucketed quantiles never under-report (the hedge delay must not
        # fire earlier than the true quantile).
        assert p50 >= 0.003
        assert p99 >= 0.100
        assert p50 <= p99

    def test_quantiles_are_monotone_in_q(self):
        digest = LatencyDigest()
        rng = np.random.default_rng(0)
        for value in rng.uniform(1e-4, 1.0, size=200):
            digest.observe(float(value))
        quantiles = [digest.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)

    def test_out_of_range_observations_clamp(self):
        digest = LatencyDigest(min_seconds=1e-3, max_seconds=1.0)
        digest.observe(0.0)  # underflow bucket
        digest.observe(100.0)  # overflow bucket
        assert digest.count == 2
        assert digest.quantile(0.99) is not None

    def test_invalid_q_raises(self):
        digest = LatencyDigest()
        digest.observe(0.01)
        with pytest.raises(ValueError):
            digest.quantile(-0.1)
        with pytest.raises(ValueError):
            digest.quantile(1.1)
        # Boundary quantiles are well-defined: min and max bucket edges.
        assert digest.quantile(0.0) <= digest.quantile(1.0)


class TestHealthTracker:
    def test_fresh_tracker_is_perfectly_healthy(self):
        tracker = HealthTracker()
        assert tracker.error_rate() == 0.0
        assert tracker.score() == 1.0

    def test_errors_drag_the_score_down(self):
        tracker = HealthTracker(window=8)
        for _ in range(8):
            tracker.observe_outcome(False)
        assert tracker.error_rate() == 1.0
        assert tracker.score() == 0.0

    def test_window_evicts_old_outcomes(self):
        tracker = HealthTracker(window=4)
        for _ in range(4):
            tracker.observe_outcome(False)
        for _ in range(4):
            tracker.observe_outcome(True)
        assert tracker.error_rate() == 0.0
        assert tracker.score() == 1.0

    def test_queue_and_breaker_pressure_penalize(self):
        tracker = HealthTracker()
        full = tracker.score(queue_fraction=1.0)
        breaker = tracker.score(breaker_open_fraction=1.0)
        assert full < 1.0
        assert breaker < 1.0
        assert tracker.score() == 1.0  # pure function of its inputs

    def test_latency_penalty_needs_a_target(self):
        lax = HealthTracker(target_latency_seconds=None)
        strict = HealthTracker(target_latency_seconds=0.001)
        for t in (lax, strict):
            for _ in range(32):
                t.observe_latency(0.1)
                t.observe_outcome(True)
        assert lax.score() == 1.0
        assert strict.score() < 1.0

    def test_score_clamped_to_unit_interval(self):
        tracker = HealthTracker(target_latency_seconds=0.001)
        for _ in range(32):
            tracker.observe_latency(10.0)
            tracker.observe_outcome(False)
        score = tracker.score(queue_fraction=1.0, breaker_open_fraction=1.0)
        assert score == 0.0

    def test_snapshot_shape(self):
        tracker = HealthTracker()
        tracker.observe_latency(0.01)
        tracker.observe_outcome(True)
        snap = tracker.snapshot()
        assert set(snap) >= {"score", "error_rate", "count"}


class TestAIMDLimiter:
    def test_validation(self):
        with pytest.raises(ValueError):
            AIMDLimiter(target_latency_seconds=0.0)
        with pytest.raises(ValueError):
            AIMDLimiter(target_latency_seconds=0.1, min_limit=0)
        with pytest.raises(ValueError):
            AIMDLimiter(target_latency_seconds=0.1, min_limit=10, max_limit=5)
        with pytest.raises(ValueError):
            AIMDLimiter(target_latency_seconds=0.1, decrease_factor=1.5)

    def test_decreases_multiplicatively_when_slow(self):
        limiter = AIMDLimiter(
            target_latency_seconds=0.01,
            min_limit=2,
            max_limit=64,
            initial_limit=64,
            window=4,
            clock=ManualClock(),
        )
        for _ in range(4):
            limiter.observe(0.1)
        assert limiter.current_limit() == 32
        stats = limiter.stats()
        assert stats["decreases"] == 1
        assert stats["increases"] == 0

    def test_increases_additively_when_fast(self):
        limiter = AIMDLimiter(
            target_latency_seconds=0.01,
            min_limit=2,
            max_limit=64,
            initial_limit=8,
            increase=2,
            window=4,
            clock=ManualClock(),
        )
        for _ in range(8):
            limiter.observe(0.001)
        assert limiter.current_limit() == 12
        assert limiter.stats()["increases"] == 2

    def test_cooldown_rate_limits_decreases(self):
        clock = ManualClock()
        limiter = AIMDLimiter(
            target_latency_seconds=0.01,
            min_limit=2,
            max_limit=64,
            initial_limit=64,
            window=2,
            cooldown_seconds=10.0,
            clock=clock,
        )
        for _ in range(2):
            limiter.observe(0.1)
        assert limiter.current_limit() == 32
        # Second slow window inside the cooldown: no further decrease.
        for _ in range(2):
            limiter.observe(0.1)
        assert limiter.current_limit() == 32
        clock.advance(11.0)
        for _ in range(2):
            limiter.observe(0.1)
        assert limiter.current_limit() == 16

    def test_engine_queue_bound_follows_limiter(self, basis, model):
        limiter = AIMDLimiter(
            target_latency_seconds=0.01,
            min_limit=2,
            max_limit=16,
            initial_limit=16,
            window=4,
            clock=ManualClock(),
        )
        engine = make_engine(basis, model, limiter=limiter)
        assert engine.queue_bound() == 16
        for _ in range(4):
            limiter.observe(0.1)
        assert engine.queue_bound() == 8
        assert engine.stats()["limit"] == 8


class TestBrownoutController:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BrownoutController(low_threshold=0.4, normal_threshold=0.7)
        with pytest.raises(ValueError):
            BrownoutController(low_threshold=1.5, normal_threshold=0.4)

    def test_min_priority_regimes(self):
        controller = BrownoutController(low_threshold=0.7, normal_threshold=0.4)
        assert controller.min_priority(0.9) == PRIORITY_LOW
        assert controller.min_priority(0.5) == PRIORITY_NORMAL
        assert controller.min_priority(0.1) == PRIORITY_HIGH

    def test_admit_sheds_below_floor_and_counts_transitions(self):
        controller = BrownoutController(low_threshold=0.7, normal_threshold=0.4)
        assert controller.admit(PRIORITY_LOW, 0.9)
        assert not controller.active
        assert not controller.admit(PRIORITY_LOW, 0.5)
        assert controller.active
        assert controller.admit(PRIORITY_NORMAL, 0.5)
        assert not controller.admit(PRIORITY_NORMAL, 0.1)
        assert controller.admit(PRIORITY_HIGH, 0.1)
        assert controller.admit(PRIORITY_LOW, 0.9)
        assert not controller.active
        stats = controller.stats()
        assert stats["entered"] == 1
        assert stats["exited"] == 1
        assert stats["shed"] == 2


class TestEngineHealthProbes:
    def test_fresh_engine_is_live_and_ready(self, basis, model):
        with make_engine(basis, model) as engine:
            assert engine.live()
            assert engine.ready()
            assert engine.health_score() == 1.0
        assert not engine.live()
        assert not engine.ready()

    def test_ready_threshold_validated(self, basis, model):
        with pytest.raises(ValueError):
            make_engine(basis, model, ready_threshold=1.5)

    def test_degraded_health_flips_ready(self, basis, model):
        health = HealthTracker(window=8)
        for _ in range(8):
            health.observe_outcome(False)
        before = metrics.counters()
        with make_engine(basis, model, health=health) as engine:
            assert engine.live()
            assert not engine.ready()
            # Recovery: refill the window with successes.
            for _ in range(8):
                health.observe_outcome(True)
            assert engine.ready()
        delta = counters_delta(before, metrics.counters())
        assert delta.get("serving.health.degraded", 0) >= 1
        assert delta.get("serving.health.recovered", 0) >= 1

    def test_stats_exposes_health_fields(self, basis, model):
        with make_engine(basis, model) as engine:
            stats = engine.stats()
        for key in ("health_score", "live", "ready", "cancelled",
                    "brownout_shed", "limit", "brownout_active"):
            assert key in stats


class TestBrownoutShedding:
    def test_low_priority_shed_when_degraded(self, basis, model):
        health = HealthTracker(window=8)
        for _ in range(8):
            health.observe_outcome(False)  # score 0: deep brownout
        engine = make_engine(
            basis,
            model,
            health=health,
            brownout=BrownoutController(),
        )
        x = np.zeros((1, basis.num_vars))
        with engine:
            with pytest.raises(BrownoutShedError):
                engine.submit("m", x, priority=PRIORITY_NORMAL)
            # High-priority work is still admitted and answered.
            result = engine.submit("m", x, priority=PRIORITY_HIGH).result(
                timeout=5.0
            )
            assert result.shape == (1,)
            assert engine.stats()["brownout_shed"] == 1
            assert engine.stats()["brownout_active"]

    def test_healthy_engine_admits_low_priority(self, basis, model):
        engine = make_engine(basis, model, brownout=BrownoutController())
        x = np.zeros((1, basis.num_vars))
        with engine:
            result = engine.submit("m", x, priority=PRIORITY_LOW).result(
                timeout=5.0
            )
            assert result.shape == (1,)
            assert engine.stats()["brownout_shed"] == 0


class TestCancellationLifecycle:
    def test_cancelled_requests_are_dropped_not_evaluated(self, basis, model):
        before = metrics.counters()
        engine = make_engine(basis, model)
        x = np.zeros((1, basis.num_vars))
        with engine:
            engine.pause_dispatch()
            doomed = engine.submit("m", x)
            survivor = engine.submit("m", x)
            assert doomed.cancel()
            engine.resume_dispatch()
            assert survivor.result(timeout=5.0).shape == (1,)
            assert doomed.cancelled()
            deadline = time.monotonic() + 5.0
            while engine.stats()["cancelled"] < 1:
                assert time.monotonic() < deadline, "cancelled drop not counted"
                time.sleep(0.01)
        delta = counters_delta(before, metrics.counters())
        assert delta.get("serving.cancelled", 0) == 1


class TestPredictHangRegression:
    def test_untimed_predict_fails_fast_when_dispatcher_dies(self, basis, model):
        engine = make_engine(basis, model)
        x = np.zeros((1, basis.num_vars))
        with engine:
            assert engine.predict("m", x).shape == (1,)
            # Kill the dispatcher out from under the engine: `running`
            # stays True but nothing will ever drain the queue -- the
            # exact state that used to hang an un-timed predict() forever.
            engine._queue.put_sentinel(_STOP)
            engine._dispatcher.join(timeout=5.0)
            assert not engine._dispatcher.is_alive()
            assert engine.running  # the engine believes it is up
            assert not engine.live()
            start = time.monotonic()
            with pytest.raises(EngineStoppedError):
                engine.predict("m", x, timeout=None)  # must not hang
            assert time.monotonic() - start < 5.0

    def test_router_untimed_predict_fails_fast_too(self, basis, model, tmp_path):
        router = ShardRouter(tmp_path, num_shards=2, replication_factor=2,
                             engine_kwargs={"workers": 1})
        x = np.zeros((1, basis.num_vars))
        with router:
            router.publish("m", model)
            assert router.predict("m", x).shape == (1,)
            shard = router.primary("m")
            engine = router._shards[shard].engine
            engine._queue.put_sentinel(_STOP)
            engine._dispatcher.join(timeout=5.0)
            start = time.monotonic()
            with pytest.raises(EngineStoppedError):
                router.predict("m", x, timeout=None)
            assert time.monotonic() - start < 5.0


def hedged_router(tmp_path, model, **policy_kwargs):
    policy_kwargs.setdefault("budget_fraction", 1.0)
    policy_kwargs.setdefault("min_samples", 10_000)  # pin delay at initial
    policy_kwargs.setdefault("initial_delay_seconds", 0.01)
    router = ShardRouter(
        tmp_path,
        num_shards=2,
        replication_factor=2,
        engine_kwargs={"workers": 1, "max_delay_seconds": 0.0},
        hedge=HedgePolicy(**policy_kwargs),
    )
    router.publish("m", model)
    return router


class TestHedgedRequests:
    def test_backup_wins_when_primary_stalls(self, basis, model, tmp_path):
        with hedged_router(tmp_path, model) as router:
            x = np.zeros((1, basis.num_vars))
            primary = router.primary("m")
            router._shards[primary].engine.pause_dispatch()
            try:
                future = router.submit("m", x)
                assert isinstance(future, HedgedFuture)
                result = future.result(timeout=5.0)
                assert result.shape == (1,)
            finally:
                router._shards[primary].engine.resume_dispatch()
            stats = router.hedge_stats()
            assert stats["attempts"] == 1
            assert stats["wins"] == 1
            assert stats["primary_wins"] == 0

    def test_fast_primary_wins_without_hedging(self, basis, model, tmp_path):
        with hedged_router(
            tmp_path, model, initial_delay_seconds=5.0
        ) as router:
            x = np.zeros((1, basis.num_vars))
            future = router.submit("m", x)
            assert future.result(timeout=5.0).shape == (1,)
            stats = router.hedge_stats()
            assert stats["attempts"] == 0
            assert stats["wins"] == 0

    def test_budget_caps_hedge_volume(self, basis, model, tmp_path):
        with hedged_router(
            tmp_path, model, budget_fraction=0.01, burst=1.0
        ) as router:
            x = np.zeros((1, basis.num_vars))
            primary = router.primary("m")
            engine = router._shards[primary].engine
            engine.pause_dispatch()
            futures = [router.submit("m", x) for _ in range(5)]
            results = []
            for future in futures:
                try:
                    results.append(future.result(timeout=0.2))
                except Exception:
                    results.append(None)
            engine.resume_dispatch()
            for future in futures:
                future.result(timeout=5.0)
            stats = router.hedge_stats()
            # One burst token only: 5 stalled requests, at most 1 hedge.
            assert stats["attempts"] <= 1
            assert stats["budget_denied"] >= 4

    def test_hedge_disabled_returns_plain_future(self, basis, model, tmp_path):
        router = ShardRouter(tmp_path, num_shards=2, replication_factor=2,
                             engine_kwargs={"workers": 1})
        with router:
            router.publish("m", model)
            future = router.submit("m", np.zeros((1, basis.num_vars)))
            assert not isinstance(future, HedgedFuture)
            assert future.result(timeout=5.0).shape == (1,)
            assert router.hedge_stats() is None

    def test_router_health_reports_every_live_shard(self, basis, model, tmp_path):
        with hedged_router(tmp_path, model) as router:
            health = router.health()
            assert set(health) == {0, 1}
            for entry in health.values():
                assert entry["live"]
                assert entry["ready"]
                assert 0.0 <= entry["score"] <= 1.0


class TestTagScopedFailpoints:
    def test_latency_plan_scopes_to_matching_tag(self, basis, model, tmp_path):
        """A tag-scoped plan stalls exactly one shard's evaluations."""
        router = ShardRouter(tmp_path, num_shards=2, replication_factor=2,
                             engine_kwargs={"workers": 1,
                                            "max_delay_seconds": 0.0})
        with router:
            router.publish("m", model)
            slow = router.primary("m")
            fast_engine = router._shards[1 - slow].engine
            x = np.zeros((1, basis.num_vars))
            plan = FaultPlan.latency(
                "engine.evaluate", 0.05, tag=f"shard-{slow}"
            )
            with inject(plan) as session:
                start = time.perf_counter()
                router.predict("m", x)
                slow_elapsed = time.perf_counter() - start
                # The other shard holds a replica; drive it directly.
                start = time.perf_counter()
                fast_engine.predict("m", x)
                fast_elapsed = time.perf_counter() - start
                (plan_stats,) = session.stats()["engine.evaluate"]
                assert plan_stats["triggers"] == 1
            assert slow_elapsed >= 0.05
            assert fast_elapsed < 0.05

    def test_untagged_plan_matches_tagged_hits(self, basis, model):
        engine = make_engine(basis, model, fault_tag="shard-0")
        x = np.zeros((1, basis.num_vars))
        with engine:
            plan = FaultPlan.latency("engine.evaluate", 0.02)
            with inject(plan) as session:
                engine.predict("m", x)
                (plan_stats,) = session.stats()["engine.evaluate"]
                assert plan_stats["triggers"] == 1


class TestNonFiniteInputIsolation:
    """A NaN row is the caller's error: rejected at ``submit``, it never
    reaches a batch, the breaker or the health score."""

    def test_engine_rejects_nan_without_poisoning(self, basis, model):
        with make_engine(basis, model, health=HealthTracker(window=8)) as engine:
            breaker_before = engine.breaker.snapshot()
            health_before = engine.health.snapshot()
            bad = np.full(basis.num_vars, np.nan)
            for _ in range(3):
                with pytest.raises(ValueError, match="non-finite"):
                    engine.submit("m", bad)
            assert engine.breaker.snapshot() == breaker_before
            assert engine.health.snapshot() == health_before
            assert engine.ready()
            assert engine.stats()["failed"] == 0
            x = np.zeros((1, basis.num_vars))
            np.testing.assert_allclose(engine.predict("m", x), model.predict(x))
            assert engine.ready()
            assert engine.breaker.state(engine.registry.current("m").key) == "closed"

    def test_router_passes_error_back_without_failover(self, basis, model, tmp_path):
        with hedged_router(tmp_path, model) as router:
            alive = router.alive_shards()
            breakers = {s: router.shard(s).engine.breaker.snapshot() for s in alive}
            health = {s: router.shard(s).engine.health.snapshot() for s in alive}
            bad = np.zeros((1, basis.num_vars))
            bad[0, 1] = np.inf
            before = metrics.counters()
            for _ in range(3):
                with pytest.raises(ValueError, match="non-finite"):
                    router.submit("m", bad)
            delta = counters_delta(before, metrics.counters())
            assert router.alive_shards() == alive
            assert router.hedge_stats()["attempts"] == 0
            assert delta.get("serving.shard.rerouted", 0) == 0
            for shard_id in alive:
                engine = router.shard(shard_id).engine
                assert engine.breaker.snapshot() == breakers[shard_id]
                assert engine.health.snapshot() == health[shard_id]
                assert engine.ready()
            x = np.zeros((1, basis.num_vars))
            np.testing.assert_allclose(router.predict("m", x), model.predict(x))
            assert all(entry["ready"] for entry in router.health().values())
