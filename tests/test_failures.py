"""Tests for deterministic failure injection and graceful degradation.

Covers the four contract pillars of the failure model:

* **Spec plumbing** — :class:`~repro.config.FailureSpec` validation, JSON
  round-trips, and the cache-key preservation guarantee (a failure-free
  scenario serialises byte-identically to one that predates the feature);
* **Determinism** — identical ``(scenario, FailureSpec, seed)`` triples
  reproduce bit-identical traces and re-execution schedules (pinned both
  run-to-run and against a committed golden trace), and a noop spec
  reproduces the failure-free run exactly;
* **Semantics** — task re-execution respects ``max_attempts``, node loss
  kills containers and invalidates map output (forcing map re-execution),
  speculation launches backups for stragglers and adopts the winner, and
  any non-zero spec can only slow the jitter-free recovery workload down
  (monotonicity, property-tested over a failure-rate grid);
* **Degradation** — analytic backends apply the expected-value inflation
  where they can and declare a decline where they cannot; the service
  settles a declined point before dispatch (no retry, breaker call or log
  record, counted as ``declined`` not ``failures``), a direct ``predict``
  raises :class:`~repro.exceptions.BackendCapabilityError`, and the
  ``failure`` dashboard grid completes across all six backends.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.backends import backend_declines, backend_names, create_backend
from repro.api.dashboard import DASHBOARD_BACKENDS, failure_grid, run_dashboard
from repro.api.scenario import Scenario, ScenarioSuite
from repro.api.service import PredictionService
from repro.config import FailureSpec
from repro.exceptions import BackendCapabilityError, ConfigurationError
from repro.hadoop.failures import MEAN_FAILURE_POINT, FailureModel, expected_inflation
from repro.hadoop.simulator import ClusterSimulator
from repro.units import MiB, gigabytes, megabytes
from repro.workloads import paper_cluster, paper_scheduler, wordcount_profile

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_failure_trace.json"

#: Slack of the monotonicity property; the golden trace is compared exactly
#: (JSON round-trips floats exactly).
TOLERANCE = 1e-9


def base_scenario(**updates) -> Scenario:
    scenario = Scenario(
        workload="failure-recovery",
        input_size_bytes=256 * MiB,
        num_nodes=3,
        num_reduces=2,
        duration_cv=0.0,
        repetitions=1,
        seed=1234,
    )
    return scenario.with_updates(**updates) if updates else scenario


def run_simulation(failures: FailureSpec | None = None, seed: int = 1234):
    scenario = base_scenario(seed=seed, failures=failures)
    workload = scenario.workload_spec()
    simulator = ClusterSimulator(
        scenario.cluster_config(),
        scenario.scheduler_config(),
        seed=seed,
        failures=failures,
    )
    for job_config in workload.job_configs():
        simulator.submit_job(job_config, workload.profile.simulator_profile())
    return simulator.run()


def trace_fingerprint(result) -> list[tuple]:
    """Every task's full timing record, sorted — bit-identity comparand."""
    return sorted(
        (
            task.task_id,
            task.node_id,
            task.scheduled_at,
            task.assigned_at,
            task.started_at,
            task.finished_at,
            task.attempts,
        )
        for trace in result.job_traces
        for task in trace.tasks
    )


class TestFailureSpec:
    def test_default_is_noop(self):
        assert FailureSpec().is_noop

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_failure_rate": -0.1},
            {"task_failure_rate": 1.0},
            {"max_attempts": 0},
            {"straggler_fraction": -0.5},
            {"straggler_fraction": 1.5},
            {"straggler_slowdown": 0.5},
            {"node_failure_times": (-1.0,)},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FailureSpec(**kwargs)

    def test_node_failure_times_normalised_sorted(self):
        spec = FailureSpec(node_failure_times=(30.0, 10.0, 20.0))
        assert spec.node_failure_times == (10.0, 20.0, 30.0)

    def test_round_trip(self):
        spec = FailureSpec(
            task_failure_rate=0.2,
            max_attempts=3,
            straggler_fraction=0.4,
            straggler_slowdown=3.0,
            node_failure_times=(15.0, 45.0),
            speculative=True,
        )
        assert FailureSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureSpec.from_dict({"task_failure_rate": 0.1, "bogus": 1})

    def test_scenario_cache_key_unchanged_without_failures(self):
        """Failure-free scenarios serialise exactly as before the feature."""
        scenario = base_scenario()
        assert "failures" not in scenario.to_dict()
        noop = scenario.with_updates(failures=None)
        assert noop.cache_key() == scenario.cache_key()

    def test_scenario_round_trip_with_failures(self):
        scenario = base_scenario(
            failures=FailureSpec(task_failure_rate=0.1, speculative=True)
        )
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario
        assert rebuilt.cache_key() == scenario.cache_key()
        assert rebuilt.cache_key() != base_scenario().cache_key()


class TestFailureModel:
    def test_draws_are_deterministic_and_attempt_keyed(self):
        spec = FailureSpec(task_failure_rate=0.5, straggler_fraction=0.5)
        first = FailureModel(spec, seed=7)
        second = FailureModel(spec, seed=7)
        for attempt in (1, 2, 3):
            assert first.attempt_fails("job-0-map-1", attempt) == second.attempt_fails(
                "job-0-map-1", attempt
            )
            assert first.straggler_factor("job-0-map-1", attempt) == (
                second.straggler_factor("job-0-map-1", attempt)
            )

    def test_seed_changes_the_plan(self):
        spec = FailureSpec(task_failure_rate=0.5)
        a = FailureModel(spec, seed=1)
        b = FailureModel(spec, seed=2)
        outcomes_a = [a.attempt_fails(f"t{i}", 1) for i in range(64)]
        outcomes_b = [b.attempt_fails(f"t{i}", 1) for i in range(64)]
        assert outcomes_a != outcomes_b

    def test_last_allowed_attempt_never_fails(self):
        spec = FailureSpec(task_failure_rate=0.999, max_attempts=3)
        model = FailureModel(spec, seed=11)
        assert all(not model.attempt_fails(f"t{i}", 3) for i in range(32))

    def test_expected_inflation_formula(self):
        spec = FailureSpec(
            task_failure_rate=0.2, straggler_fraction=0.25, straggler_slowdown=3.0
        )
        expected = (1 + 0.25 * 2.0) * (1 + (0.2 / 0.8) * MEAN_FAILURE_POINT)
        assert expected_inflation(spec) == pytest.approx(expected)
        assert expected_inflation(FailureSpec()) == 1.0
        # Both factors are >= 1, so inflation is monotone by construction.
        assert expected_inflation(spec) >= 1.0


class TestDeterminism:
    def test_noop_spec_reproduces_failure_free_run_bit_identically(self):
        clean = run_simulation(None)
        noop = run_simulation(FailureSpec())
        assert noop.makespan == clean.makespan
        assert trace_fingerprint(noop) == trace_fingerprint(clean)

    def test_identical_spec_and_seed_reproduce_traces_bit_identically(self):
        spec = FailureSpec(
            task_failure_rate=0.3,
            straggler_fraction=0.3,
            straggler_slowdown=2.0,
            node_failure_times=(47.0,),
            speculative=True,
        )
        first = run_simulation(spec)
        second = run_simulation(spec)
        assert first.makespan == second.makespan
        assert trace_fingerprint(first) == trace_fingerprint(second)
        assert first.metrics.task_reexecutions == second.metrics.task_reexecutions
        assert first.metrics.speculative_wins == second.metrics.speculative_wins

    def test_golden_faulted_trace(self):
        """The committed golden run pins the full failure schedule."""
        golden = json.loads(GOLDEN_PATH.read_text())
        spec = FailureSpec.from_dict(golden["failure_spec"])
        result = run_simulation(spec, seed=golden["scenario"]["seed"])
        assert result.makespan == golden["makespan"]
        assert result.response_times == golden["response_times"]
        for counter, value in golden["metrics"].items():
            assert getattr(result.metrics, counter) == value, counter
        simulated = {
            task.task_id: task
            for trace in result.job_traces
            for task in trace.tasks
        }
        assert simulated.keys() == golden["tasks"].keys()
        for task_id, recorded in golden["tasks"].items():
            task = simulated[task_id]
            assert task.node_id == recorded["node_id"], task_id
            assert task.attempts == recorded["attempts"], task_id
            for field in ("scheduled_at", "assigned_at", "started_at", "finished_at"):
                assert getattr(task, field) == recorded[field], f"{task_id}.{field}"


class TestFailureSemantics:
    def test_task_failures_are_reexecuted_and_complete(self):
        result = run_simulation(FailureSpec(task_failure_rate=0.85, max_attempts=2))
        metrics = result.metrics
        assert metrics.task_failures >= 1
        assert metrics.task_reexecutions == metrics.task_failures
        # max_attempts bounds the per-task attempt count.
        attempts = [
            task.attempts for trace in result.job_traces for task in trace.tasks
        ]
        assert max(attempts) <= 2
        assert all(trace.response_time > 0 for trace in result.job_traces)

    def test_node_failure_kills_containers_and_invalidates_map_output(self):
        # 47.7s is just after both maps finish on the clean run, so the lost
        # node's completed map output must be re-produced before the
        # reducers can finish their shuffle.
        clean = run_simulation(None)
        faulted = run_simulation(FailureSpec(node_failure_times=(47.7,)))
        metrics = faulted.metrics
        assert metrics.node_failures == 1
        assert metrics.containers_killed >= 1
        assert metrics.maps_invalidated >= 1
        assert metrics.task_reexecutions >= metrics.maps_invalidated
        assert faulted.makespan > clean.makespan

    def test_speculation_launches_backups_and_adopts_winners(self):
        spec = FailureSpec(straggler_fraction=0.5, straggler_slowdown=4.0)
        without = run_simulation(spec)
        with_spec = run_simulation(
            FailureSpec(
                straggler_fraction=0.5, straggler_slowdown=4.0, speculative=True
            )
        )
        metrics = with_spec.metrics
        assert metrics.speculative_launched >= 1
        assert metrics.speculative_wins >= 1
        # A winning backup beats the straggler it shadows: on this pinned
        # configuration speculation strictly improves the makespan.
        assert with_spec.makespan < without.makespan
        # Every task still completes exactly once in the trace.
        task_ids = [
            task.task_id
            for trace in with_spec.job_traces
            for task in trace.tasks
        ]
        assert len(task_ids) == len(set(task_ids))

    def test_adopted_backup_whose_reexecution_fails_runs_again(self):
        # A backup that won is the job's attempt of record.  In this pinned
        # run a node loss destroys such a winner's map output and its
        # re-execution fails: it must run again, not die like a losing
        # backup (which left its job waiting forever on the lost output).
        failures = FailureSpec(
            task_failure_rate=0.1,
            straggler_fraction=0.3,
            straggler_slowdown=2.5,
            speculative=True,
            node_failure_times=(60.0, 120.0),
        )
        profile = wordcount_profile(duration_cv=0.3)
        simulator = ClusterSimulator(
            paper_cluster(4), paper_scheduler(), seed=19, failures=failures
        )
        job_config = profile.job_config(gigabytes(2), megabytes(128), 4)
        for _ in range(2):
            simulator.submit_job(job_config, profile.simulator_profile())
        result = simulator.run()
        assert len(result.job_traces) == 2
        assert result.metrics.node_failures == 2
        assert result.metrics.speculative_wins >= 1

    @settings(max_examples=12, deadline=None)
    @given(
        failure_rate=st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]),
        straggler_fraction=st.sampled_from([0.0, 0.25, 0.5]),
        straggler_slowdown=st.sampled_from([1.5, 3.0]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_failures_never_speed_the_jitter_free_workload_up(
        self, failure_rate, straggler_fraction, straggler_slowdown, seed
    ):
        """Monotonicity: any non-zero spec can only add work or delay.

        The recovery workload is jitter-free (``duration_cv=0``), so the
        clean run is the floor: failures truncate-and-repeat attempts and
        stragglers only stretch them.
        """
        spec = FailureSpec(
            task_failure_rate=failure_rate,
            straggler_fraction=straggler_fraction,
            straggler_slowdown=straggler_slowdown,
        )
        clean = run_simulation(None, seed=1000 + seed)
        faulted = run_simulation(spec, seed=1000 + seed)
        assert faulted.makespan >= clean.makespan - TOLERANCE


class TestGracefulDegradation:
    FAULTED = FailureSpec(task_failure_rate=0.2, straggler_fraction=0.2)

    @pytest.mark.parametrize(
        "name", ["mva-forkjoin", "mva-tripathi", "aria", "herodotou"]
    )
    def test_analytic_backends_inflate_by_expected_value(self, name):
        backend = create_backend(name)
        clean = backend.predict(base_scenario())
        inflated = backend.predict(base_scenario(failures=self.FAULTED))
        factor = expected_inflation(self.FAULTED)
        assert inflated.metadata["failure_inflation"] == pytest.approx(factor)
        assert inflated.total_seconds == pytest.approx(clean.total_seconds * factor)
        for phase, seconds in clean.phases.items():
            assert inflated.phases[phase] == pytest.approx(seconds * factor)

    @pytest.mark.parametrize(
        "name", ["mva-forkjoin", "mva-tripathi", "aria", "herodotou"]
    )
    @pytest.mark.parametrize(
        "spec",
        [
            FailureSpec(node_failure_times=(10.0,)),
            FailureSpec(straggler_fraction=0.2, speculative=True),
        ],
        ids=["node-failure", "speculative"],
    )
    def test_analytic_backends_decline_unmodellable_specs(self, name, spec):
        backend = create_backend(name)
        with pytest.raises(BackendCapabilityError):
            backend.predict(base_scenario(failures=spec))

    def test_vianna_declines_every_faulted_scenario(self):
        backend = create_backend("vianna")
        backend.predict(base_scenario())  # clean is still served
        with pytest.raises(BackendCapabilityError):
            backend.predict(base_scenario(failures=self.FAULTED))
        # Through a suite the faulted point is declined cell by cell, and the
        # clean one beside it is still answered.
        suite = ScenarioSuite(
            "mixed", (base_scenario(), base_scenario(failures=self.FAULTED))
        )
        clean, faulted = (
            PredictionService(backends=["vianna"])
            .evaluate_suite(suite, ["vianna"], on_error="record")
            .rows
        )
        assert clean["vianna"].ok
        assert not faulted["vianna"].ok
        assert faulted["vianna"].error_type == "BackendCapabilityError"

    def test_simulator_reports_failure_counters_in_metadata(self):
        backend = create_backend("simulator")
        clean = backend.predict(base_scenario())
        assert "failures" not in clean.metadata
        faulted = backend.predict(
            base_scenario(failures=FailureSpec(task_failure_rate=0.85, max_attempts=2))
        )
        counters = faulted.metadata["failures"]
        assert counters["task_failures"] >= 1
        assert faulted.total_seconds >= clean.total_seconds

    def test_decline_is_breaker_neutral_and_counted_separately(self):
        from repro.api.resilience import BreakerPolicy

        service = PredictionService(
            backends=["vianna"],
            breaker=BreakerPolicy(
                failure_threshold=0.5, window=2, min_calls=1, cooldown_seconds=60.0
            ),
            on_error="record",
        )
        scenario = base_scenario(failures=self.FAULTED)
        outcome = service.evaluate_point(scenario, "vianna")
        assert not outcome.ok
        assert outcome.error_type == "BackendCapabilityError"
        stats = service.stats()
        assert stats.declined == 1
        assert stats.failures == 0
        assert stats.breaker_trips == 0
        # A breaker that saw only declines still admits the next call.
        assert service.evaluate_point(base_scenario(), "vianna").ok

    @pytest.mark.parametrize("name", backend_names())
    @pytest.mark.parametrize(
        "index", range(len(failure_grid().scenarios)), ids=lambda index: f"point{index}"
    )
    def test_declines_is_exactly_what_predict_refuses(self, name, index):
        scenario = failure_grid().scenarios[index]
        backend = create_backend(name)
        calls = [backend.predict]
        if callable(getattr(backend, "predict_batch", None)):
            calls.append(lambda scenario: backend.predict_batch([scenario]))
        reason = backend_declines(name, scenario)
        for call in calls:
            if reason is None:
                call(scenario)
            else:
                with pytest.raises(BackendCapabilityError) as raised:
                    call(scenario)
                assert str(raised.value) == reason

    def test_failure_dashboard_runs_all_six_backends(self, caplog):
        caplog.set_level(logging.WARNING)
        run = run_dashboard("failure", on_error="record")
        assert run.report.grid == "failure"
        assert set(run.report.backend_names()) == set(DASHBOARD_BACKENDS)
        by_name = {entry.backend: entry for entry in run.report.backends}
        # The simulator answers every point; vianna only the clean one.
        assert by_name["simulator"].count == len(failure_grid().scenarios)
        assert by_name["vianna"].count == 1
        assert by_name["vianna"].status == "incomplete"
        # Herodotou folds shuffle-sort into merge: that phase is not scored.
        assert [phase.phase for phase in by_name["herodotou"].phases] == ["map", "merge"]
        # Declines surface as structured failures, never as crashes.
        failures = run.outcome.result.failures()
        assert failures
        assert all(
            result.error_type == "BackendCapabilityError"
            for _, _, result in failures
        )
        # Declared up front: nothing falls back, fails or logs, and the
        # batch-capable backends each take their three accepted points in
        # one predict_batch call.
        stats = run.outcome.stats
        assert stats.batch_fallbacks == 0
        assert (stats.batch_calls, stats.batch_points) == (2, 6)
        assert stats.declined == 12
        assert stats.failures == 0
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        for scenario, row in zip(run.suite.scenarios, run.outcome.result.rows):
            for name, result in row.items():
                if result.ok:
                    expected = create_backend(name).predict(scenario).to_dict()
                    assert result.to_dict() == expected
                else:
                    assert result.error == backend_declines(name, scenario)
