"""Tests for the resilience layer (:mod:`repro.api.resilience`).

Pins the retry policy's classification and deterministic backoff schedule,
the circuit breaker's closed/open/half-open lifecycle (driven by a fake
clock — no sleeping), and the service-level integration: flaky backends
recover under retries, fatal errors fail fast, deadlines surface as
timeouts, open breakers short-circuit, and the ``on_error`` contract turns
terminal failures into skipped or recorded cells instead of crashes.
"""

from __future__ import annotations

import math

import pytest

from repro.api import (
    NO_RETRY,
    BreakerPolicy,
    CircuitBreaker,
    FailedResult,
    PredictionService,
    RetryPolicy,
    Scenario,
    ScenarioSuite,
    ServiceStats,
)
from repro.api.backends import _REGISTRY
from repro.api.resilience import BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN
from repro.api.results import PredictionResult
from repro.exceptions import (
    BackendCapabilityError,
    CircuitOpenError,
    EvaluationTimeoutError,
    TransientError,
    ValidationError,
)
from repro.units import megabytes

SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=11,
)

SUITE = ScenarioSuite.from_sweep("resilience-grid", SMALL, num_nodes=[2, 3, 4, 5])

#: Zero-delay retry policy for tests that only care about attempt counts.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def _result_for(name: str, scenario: Scenario) -> PredictionResult:
    return PredictionResult(
        backend=name,
        scenario=scenario,
        total_seconds=float(scenario.num_nodes),
        phases={"map": 1.0},
    )


@pytest.fixture
def temporary_backend():
    """Register throwaway backend classes; unregister them afterwards."""
    registered: list[str] = []

    def register(name: str, cls: type) -> type:
        cls.name = name
        _REGISTRY[name] = cls
        registered.append(name)
        return cls

    try:
        yield register
    finally:
        for name in registered:
            _REGISTRY.pop(name, None)


def _flaky_backend_class(failures_per_point: int, exc_type: type = TransientError):
    """A backend that fails the first N calls per point, then succeeds."""

    class FlakyBackend:
        calls: dict[str, int] = {}

        def predict(self, scenario):
            key = scenario.cache_key()
            seen = type(self).calls.get(key, 0)
            type(self).calls[key] = seen + 1
            if seen < failures_per_point:
                raise exc_type(f"induced failure #{seen + 1} for {key!r}")
            return _result_for(type(self).name, scenario)

    return FlakyBackend


class TestRetryPolicy:
    def test_resolve_none_and_zero_mean_no_retries(self):
        assert RetryPolicy.resolve(None) is NO_RETRY
        assert RetryPolicy.resolve(0) is NO_RETRY
        assert NO_RETRY.max_attempts == 1

    def test_resolve_int_is_extra_attempts(self):
        assert RetryPolicy.resolve(2).max_attempts == 3

    def test_resolve_passes_policies_through(self):
        policy = RetryPolicy(max_attempts=5)
        assert RetryPolicy.resolve(policy) is policy

    def test_resolve_rejects_bools_and_negatives(self):
        with pytest.raises(ValidationError):
            RetryPolicy.resolve(True)
        with pytest.raises(ValidationError):
            RetryPolicy.resolve(-1)

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientError("x"))
        assert policy.is_retryable(EvaluationTimeoutError("x"))
        assert policy.is_retryable(TimeoutError())
        assert policy.is_retryable(ConnectionError())
        assert not policy.is_retryable(ValidationError("x"))
        assert not policy.is_retryable(ValueError("x"))

    def test_fatal_wins_over_retryable(self):
        # CircuitOpenError must stay fatal even under a policy that would
        # otherwise retry every ReproError.
        from repro.exceptions import ReproError

        policy = RetryPolicy(retryable=(ReproError,))
        assert not policy.is_retryable(CircuitOpenError("open"))

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, backoff_factor=2.0, max_delay=0.3, seed=7
        )
        first = [policy.delay(n, key="point-a") for n in (1, 2, 3, 4)]
        second = [policy.delay(n, key="point-a") for n in (1, 2, 3, 4)]
        assert first == second
        for attempt, delay in enumerate(first, start=1):
            base = min(0.3, 0.1 * 2.0 ** (attempt - 1))
            assert 0 < delay <= base

    def test_delay_jitter_desynchronises_points(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        assert policy.delay(1, key="a") != policy.delay(1, key="b")

    def test_zero_jitter_gives_exact_exponential_schedule(self):
        policy = RetryPolicy(base_delay=0.1, backoff_factor=2.0, max_delay=10.0, jitter=0.0)
        assert [policy.delay(n) for n in (1, 2, 3)] == [0.1, 0.2, 0.4]

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            RetryPolicy().delay(0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    POLICY = BreakerPolicy(
        failure_threshold=0.5, window=4, min_calls=2, cooldown_seconds=10.0
    )

    def _breaker(self):
        clock = FakeClock()
        return CircuitBreaker(self.POLICY, name="stub", clock=clock), clock

    def test_stays_closed_below_min_calls(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.allow()  # does not raise

    def test_trips_at_failure_threshold(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        snapshot = breaker.snapshot()
        assert snapshot.trips == 1
        assert snapshot.rejections == 1

    def test_successes_dilute_the_failure_rate(self):
        breaker, _ = self._breaker()
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure()  # 1 of 4 — under the 50% threshold
        assert breaker.state == BREAKER_CLOSED

    def test_cooldown_half_opens_and_probe_success_closes(self):
        breaker, clock = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.allow()  # first probe admitted
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # probe slots saturated
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        breaker.allow()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker, clock = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.snapshot().trips == 2
        clock.advance(5.0)  # half the new cooldown: still open
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_invalid_policies_are_rejected(self):
        with pytest.raises(ValidationError):
            BreakerPolicy(failure_threshold=0.0)
        with pytest.raises(ValidationError):
            BreakerPolicy(window=0)
        with pytest.raises(ValidationError):
            BreakerPolicy(cooldown_seconds=-1.0)


class TestServiceRetries:
    def test_flaky_backend_recovers_under_retries(self, temporary_backend):
        flaky = temporary_backend("flaky-stub", _flaky_backend_class(2))
        service = PredictionService(backends=[flaky.name], retry=FAST_RETRY)
        result = service.evaluate(SMALL, flaky.name)
        assert result.total_seconds == 2.0
        stats = service.stats()
        assert stats.retries == 2
        assert stats.evaluations == 1
        assert stats.failures == 0

    def test_retries_are_off_by_default(self, temporary_backend):
        flaky = temporary_backend("flaky-once-stub", _flaky_backend_class(1))
        service = PredictionService(backends=[flaky.name])
        with pytest.raises(TransientError):
            service.evaluate(SMALL, flaky.name)
        assert service.stats().retries == 0
        assert service.stats().failures == 1

    def test_fatal_errors_are_never_retried(self, temporary_backend):
        broken = temporary_backend(
            "fatal-stub", _flaky_backend_class(99, exc_type=ValidationError)
        )
        service = PredictionService(backends=[broken.name], retry=FAST_RETRY)
        with pytest.raises(ValidationError):
            service.evaluate(SMALL, broken.name)
        assert broken.calls[SMALL.cache_key()] == 1  # single attempt
        assert service.stats().retries == 0

    def test_exhausted_retries_raise_the_last_error(self, temporary_backend):
        hopeless = temporary_backend("hopeless-stub", _flaky_backend_class(99))
        service = PredictionService(backends=[hopeless.name], retry=FAST_RETRY)
        with pytest.raises(TransientError):
            service.evaluate(SMALL, hopeless.name)
        assert hopeless.calls[SMALL.cache_key()] == 3  # max_attempts
        stats = service.stats()
        assert stats.retries == 2
        assert stats.failures == 1

    def test_successful_result_is_cached_and_stored(self, temporary_backend, tmp_path):
        flaky = temporary_backend("flaky-store-stub", _flaky_backend_class(1))
        service = PredictionService(
            backends=[flaky.name], retry=FAST_RETRY, store=tmp_path / "store"
        )
        first = service.evaluate(SMALL, flaky.name)
        assert service.evaluate(SMALL, flaky.name) == first
        assert flaky.calls[SMALL.cache_key()] == 2  # 1 failure + 1 success, no more
        reopened = PredictionService(
            backends=[flaky.name], retry=FAST_RETRY, store=tmp_path / "store"
        )
        assert reopened.evaluate(SMALL, flaky.name) == first
        assert reopened.stats().store_hits == 1


class TestTimeouts:
    def test_slow_evaluation_times_out_cooperatively(self, temporary_backend):
        class SlowBackend:
            def predict(self, scenario):
                import time

                time.sleep(0.05)
                return _result_for(type(self).name, scenario)

        slow = temporary_backend("slow-stub", SlowBackend)
        service = PredictionService(backends=[slow.name], timeout=0.01)
        with pytest.raises(EvaluationTimeoutError):
            service.evaluate(SMALL, slow.name)
        stats = service.stats()
        assert stats.timeouts == 1
        assert stats.failures == 1

    def test_timeout_validation(self):
        with pytest.raises(ValidationError):
            PredictionService(timeout=0.0)


class TestOnErrorContract:
    def test_invalid_mode_is_rejected(self):
        with pytest.raises(ValidationError):
            PredictionService(on_error="ignore")
        with pytest.raises(ValidationError):
            PredictionService().evaluate_suite(SUITE, ["aria"], on_error="ignore")

    def test_skip_omits_failed_cells(self, temporary_backend):
        hopeless = temporary_backend("skip-stub", _flaky_backend_class(99))
        service = PredictionService(
            backends=[hopeless.name, "aria"], execution="serial"
        )
        result = service.evaluate_suite(
            SUITE, [hopeless.name, "aria"], on_error="skip"
        )
        assert not result.complete
        assert all(hopeless.name not in row for row in result.rows)
        assert all(math.isnan(x) for x in result.series(hopeless.name))
        assert all(x > 0 for x in result.series("aria"))

    def test_record_fills_failed_cells_with_structured_results(
        self, temporary_backend
    ):
        hopeless = temporary_backend("record-stub", _flaky_backend_class(99))
        service = PredictionService(
            backends=[hopeless.name], execution="serial", retry=FAST_RETRY
        )
        result = service.evaluate_suite(SUITE, on_error="record")
        failures = result.failures()
        assert len(failures) == len(SUITE.scenarios)
        for _, backend, failed in failures:
            assert backend == hopeless.name
            assert isinstance(failed, FailedResult)
            assert not failed.ok
            assert failed.error_type == "TransientError"
            assert failed.attempts == 3
            assert math.isnan(failed.total_seconds)
            assert failed.to_dict()["failed"] is True
            assert "FAILED after 3 attempt(s)" in failed.summary()

    def test_constructor_mode_is_the_suite_default(self, temporary_backend):
        hopeless = temporary_backend("default-mode-stub", _flaky_backend_class(99))
        service = PredictionService(
            backends=[hopeless.name], execution="serial", on_error="skip"
        )
        result = service.evaluate_suite(SUITE)
        assert result.rows == ({}, {}, {}, {})

    def test_raise_mode_still_propagates(self, temporary_backend):
        hopeless = temporary_backend("raise-stub", _flaky_backend_class(99))
        service = PredictionService(backends=[hopeless.name], execution="serial")
        with pytest.raises(TransientError):
            service.evaluate_suite(SUITE)

    def test_threaded_raise_mode_keeps_completed_points(self, temporary_backend):
        # The flush contract: a mid-sweep failure under on_error="raise"
        # must not lose the points that completed before it propagated.
        class OnePointFails:
            def predict(self, scenario):
                if scenario.num_nodes == 4:
                    raise ValueError("induced terminal failure")
                return _result_for(type(self).name, scenario)

        partial = temporary_backend("partial-stub", OnePointFails)
        service = PredictionService(backends=[partial.name], execution="thread")
        with pytest.raises(ValueError):
            service.evaluate_suite(SUITE)
        assert service.stats().evaluations == 3  # the other points landed
        before = service.stats()
        service.evaluate_suite(SUITE, on_error="skip")
        assert service.stats().delta(before).memory_hits == 3


class TestBreakerIntegration:
    POLICY = BreakerPolicy(
        failure_threshold=1.0, window=4, min_calls=2, cooldown_seconds=1000.0
    )

    def test_persistent_failure_trips_and_fails_fast(self, temporary_backend):
        hopeless = temporary_backend("breaker-stub", _flaky_backend_class(99))
        service = PredictionService(
            backends=[hopeless.name],
            execution="serial",
            breaker=self.POLICY,
            on_error="record",
        )
        suite = ScenarioSuite.from_sweep(
            "breaker-grid", SMALL, num_nodes=[2, 3, 4, 5, 6, 7]
        )
        result = service.evaluate_suite(suite)
        error_types = [failed.error_type for _, _, failed in result.failures()]
        assert len(error_types) == 6
        assert error_types[:2] == ["TransientError", "TransientError"]
        assert set(error_types[2:]) == {"CircuitOpenError"}
        # The breaker absorbed the calls: the backend saw only the first two.
        assert sum(hopeless.calls.values()) == 2
        stats = service.stats()
        assert stats.breaker_trips == 1
        snapshot = service.breakers()[hopeless.name]
        assert snapshot.state == BREAKER_OPEN
        assert snapshot.rejections == 4

    def test_healthy_backend_keeps_its_breaker_closed(self):
        # Breakers guard the per-point path, which the daemon dispatches.
        service = PredictionService(backends=["aria"], breaker=self.POLICY)
        for scenario in SUITE.scenarios:
            service.evaluate_point(scenario, "aria")
        assert service.breakers()["aria"].state == BREAKER_CLOSED
        assert service.stats().breaker_trips == 0

    def test_no_policy_means_no_breakers(self):
        service = PredictionService(backends=["aria"])
        service.evaluate(SMALL, "aria")
        assert service.breakers() == {}


class TestDeclinedPoints:
    """A declared decline is settled before dispatch, under every ``on_error``."""

    REASON = "odd cluster sizes are out of scope"

    @pytest.mark.parametrize("on_error", ["raise", "skip", "record"])
    def test_declined_points_never_reach_the_backend(self, temporary_backend, on_error):
        reason = self.REASON

        class DecliningBackend:
            #: Every scenario that reached predict or predict_batch.
            dispatched: list = []

            @classmethod
            def declines(cls, scenario):
                return reason if scenario.num_nodes % 2 else None

            def predict(self, scenario):
                type(self).dispatched.append(scenario)
                return _result_for(type(self).name, scenario)

            def predict_batch(self, scenarios):
                type(self).dispatched.extend(scenarios)
                return [_result_for(type(self).name, scenario) for scenario in scenarios]

        backend = temporary_backend(f"declining-stub-{on_error}", DecliningBackend)
        service = PredictionService(
            backends=[backend.name],
            retry=FAST_RETRY,
            breaker=TestBreakerIntegration.POLICY,
            on_error=on_error,
        )
        odd = SUITE.scenarios[1]
        assert backend.declines(odd) == reason
        if on_error == "raise":
            with pytest.raises(BackendCapabilityError, match=reason):
                service.evaluate_suite(SUITE)
            with pytest.raises(BackendCapabilityError, match=reason):
                service.evaluate_point(odd, backend.name)
            expected_declines = 2
        else:
            result = service.evaluate_suite(SUITE)
            outcome = service.evaluate_point(odd, backend.name)
            cells = [row.get(backend.name) for row in result.rows]
            assert [cell.total_seconds for cell in cells[::2]] == [2.0, 4.0]
            if on_error == "skip":
                assert cells[1::2] == [None, None]
                assert outcome is None
            else:
                for cell in (*cells[1::2], outcome):
                    assert isinstance(cell, FailedResult)
                    assert (cell.error_type, cell.error, cell.attempts) == (
                        "BackendCapabilityError",
                        reason,
                        1,
                    )
            expected_declines = 3
        # evaluate and evaluate_many always raise, and dispatch nothing either.
        with pytest.raises(BackendCapabilityError, match=reason):
            service.evaluate(odd, backend.name)
        with pytest.raises(BackendCapabilityError, match=reason):
            service.evaluate_many(odd, [backend.name])
        assert not [s for s in backend.dispatched if s.num_nodes % 2]
        stats = service.stats()
        assert stats.declined == expected_declines + 2
        assert stats.retries == 0
        assert stats.failures == 0
        # The breaker was never consulted: declines precede the ladder, and
        # the accepted pair went through one predict_batch.
        assert service.breakers() == {}


class TestBatchFallback:
    def test_failed_batch_dispatch_degrades_to_scalar(self, temporary_backend):
        class BrokenBatch:
            def predict(self, scenario):
                return _result_for(type(self).name, scenario)

            def predict_batch(self, scenarios):
                raise TransientError("batch lane is down")

        backend = temporary_backend("broken-batch-stub", BrokenBatch)
        service = PredictionService(backends=[backend.name], execution="serial")
        result = service.evaluate_suite(SUITE)
        assert result.complete
        assert result.series(backend.name) == [2.0, 3.0, 4.0, 5.0]
        stats = service.stats()
        assert stats.batch_fallbacks == 1
        assert stats.batch_calls == 0
        assert stats.evaluations == 4


class TestServiceStatsDelta:
    def test_delta_subtracts_every_counter(self):
        before = ServiceStats(evaluations=2, retries=1)
        after = ServiceStats(evaluations=5, retries=4, timeouts=2)
        delta = after.delta(before)
        assert delta.evaluations == 3
        assert delta.retries == 3
        assert delta.timeouts == 2
        assert delta.memory_hits == 0
