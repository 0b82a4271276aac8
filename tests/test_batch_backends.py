"""Batch-path tests: ``predict_batch`` equivalence and dispatch.

Two layers are pinned down:

* only the closed-form backends (``aria``, ``herodotou``) are batch-capable,
  and their ``predict_batch`` is bit-equal to per-scenario ``predict``;
* the service's suite evaluation dispatches misses to ``predict_batch``,
  keeps a lone miss on the per-scenario path, and counts
  everything in :meth:`~repro.api.PredictionService.stats` without dropping
  concurrent increments.
"""

from __future__ import annotations

import json
import threading
from collections import Counter

import pytest

from repro.api import (
    PredictionService,
    Scenario,
    ScenarioSuite,
    SuiteResult,
    SweepScheduler,
    backend_names,
    backend_supports_batch,
    create_backend,
)
from repro.api import scenario as scenario_module
from repro.api.scenario import WORKLOAD_PROFILES, ScenarioResolver
from repro.api.store import base as store_base
from repro.api.store import sqlite_store
from repro.config import ClusterConfig, FailureSpec, SchedulerConfig
from repro.exceptions import BackendError
from repro.units import megabytes
from repro.workloads.profiles import ApplicationProfile

#: Batch-capable backends: the vectorised closed-form models.
BATCH_BACKENDS = ("aria", "herodotou")

BASE = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(512),
    num_nodes=2,
    num_reduces=4,
    repetitions=1,
    seed=7,
)

#: Mixed grid: two axes plus a second workload family.
GRID = ScenarioSuite(
    name="batch-grid",
    scenarios=tuple(
        [
            BASE.with_updates(num_nodes=nodes, input_size_bytes=size)
            for nodes in (2, 3)
            for size in (megabytes(256), megabytes(512), megabytes(768))
        ]
        + [BASE.with_updates(workload="terasort", num_nodes=nodes) for nodes in (2, 3)]
    ),
)


#: Product grid: 3 node counts x 3 input sizes x 2 job counts, one workload.
PRODUCT = tuple(
    BASE.with_updates(num_nodes=nodes, input_size_bytes=megabytes(size), num_jobs=jobs)
    for nodes in (2, 3, 4)
    for size in (256, 512, 768)
    for jobs in (1, 2)
)

#: Every Scenario field varied, each also alone against ``BASE`` so a view
#: keyed on too few fields would hand one scenario another's inputs.
_SLOW_START_OFF = SchedulerConfig(slowstart_enabled=False)
_INFLATING = FailureSpec(task_failure_rate=0.1, straggler_fraction=0.2, straggler_slowdown=3.0)
VARIED = (
    BASE,
    BASE.with_updates(workload="terasort"),
    BASE.with_updates(input_size_bytes=megabytes(1024)),
    BASE.with_updates(block_size_bytes=megabytes(64)),
    BASE.with_updates(num_nodes=5),
    BASE.with_updates(num_jobs=3),
    BASE.with_updates(input_size_bytes=megabytes(4096)),
    BASE.with_updates(input_size_bytes=megabytes(4096), num_jobs=3),
    BASE.with_updates(num_reduces=7),
    BASE.with_updates(duration_cv=0.0),
    BASE.with_updates(submission_gap_seconds=30.0, num_jobs=3),
    BASE.with_updates(seed=99, repetitions=2),
    BASE.with_updates(cluster=ClusterConfig(num_nodes=2)),
    BASE.with_updates(cluster=ClusterConfig(num_nodes=2), num_jobs=2),
    BASE.with_updates(scheduler=_SLOW_START_OFF),
    BASE.with_updates(failures=_INFLATING),
    BASE.with_updates(failures=_INFLATING, num_jobs=2, scheduler=_SLOW_START_OFF),
    BASE.with_updates(workload="grep", input_size_bytes=megabytes(2048), num_nodes=16),
)


def _counted(calls: Counter, label: str, function):
    def counting(*args, **kwargs):
        calls[label] += 1
        return function(*args, **kwargs)

    return counting


class TestScenarioResolver:
    @pytest.mark.parametrize("name", BATCH_BACKENDS)
    def test_views_are_built_once_per_dispatch_and_die_with_it(self, name, monkeypatch):
        builds: Counter = Counter()
        monkeypatch.setattr(
            scenario_module,
            "paper_cluster",
            _counted(builds, "cluster", scenario_module.paper_cluster),
        )
        monkeypatch.setitem(
            WORKLOAD_PROFILES,
            "wordcount",
            _counted(builds, "profile", WORKLOAD_PROFILES["wordcount"]),
        )
        monkeypatch.setattr(
            ApplicationProfile,
            "job_config",
            _counted(builds, "job", ApplicationProfile.job_config),
        )
        attributes = [dict(vars(scenario)) for scenario in PRODUCT]
        backend = create_backend(name)
        backend.predict_batch(list(PRODUCT))
        assert builds == {"cluster": 3, "profile": 1, "job": 3}
        # A second dispatch starts cold: nothing outlived the first.
        backend.predict_batch(list(PRODUCT))
        assert builds == {"cluster": 6, "profile": 2, "job": 6}
        assert [vars(scenario) for scenario in PRODUCT] == attributes

    def test_a_shared_resolver_answers_like_a_fresh_one(self):
        views = (
            "cluster",
            "profile",
            "scheduler",
            "job_config",
            "model_input",
            "fair_share_slots",
            "herodotou_environment",
            "herodotou_dataflow",
        )
        shared = ScenarioResolver()
        for scenario in VARIED:
            fresh = ScenarioResolver()
            for view in views:
                assert getattr(shared, view)(scenario) == getattr(fresh, view)(scenario)

    @pytest.mark.parametrize("name", BATCH_BACKENDS)
    def test_batch_and_scalar_json_are_byte_identical(self, name):
        backend = create_backend(name)
        scalar = [backend.predict(scenario) for scenario in VARIED]
        batch = backend.predict_batch(list(VARIED))
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in batch] == [
            json.dumps(r.to_dict(), sort_keys=True) for r in scalar
        ]

    def test_cold_suite_computes_each_point_token_once(self, tmp_path, monkeypatch):
        tokens: Counter = Counter()
        token = store_base.point_token

        def counting(*index_key):
            tokens[index_key] += 1
            return token(*index_key)

        monkeypatch.setattr(store_base, "point_token", counting)
        monkeypatch.setattr(sqlite_store, "point_token", counting)
        service = PredictionService(backends=list(BATCH_BACKENDS), store=tmp_path)
        service.evaluate_suite(ScenarioSuite("product", PRODUCT), BATCH_BACKENDS)
        assert service.stats().evaluations == len(PRODUCT) * len(BATCH_BACKENDS)
        assert len(tokens) == len(PRODUCT) * len(BATCH_BACKENDS)
        assert set(tokens.values()) == {1}

    def test_cold_sweep_run_derives_each_key_and_token_once(self, tmp_path, monkeypatch):
        calls: Counter = Counter()
        cache_key = Scenario.cache_key

        def deriving(scenario):
            # Count derivations, not calls: a key is memoised on its scenario.
            if "_cache_key" not in vars(scenario):
                calls["key"] += 1
            return cache_key(scenario)

        monkeypatch.setattr(Scenario, "cache_key", deriving)
        monkeypatch.setattr(
            sqlite_store,
            "point_token",
            _counted(calls, "token", sqlite_store.point_token),
        )
        service = PredictionService(backends=list(BATCH_BACKENDS), store=tmp_path)
        fresh = [Scenario.from_dict(scenario.to_dict()) for scenario in PRODUCT]
        outcome = SweepScheduler(service).run(ScenarioSuite("product", fresh), BATCH_BACKENDS)
        assert outcome.evaluated_points == len(PRODUCT) * len(BATCH_BACKENDS)
        assert calls == {
            "key": len(PRODUCT),
            "token": len(PRODUCT) * len(BATCH_BACKENDS),
        }


class TestBatchCapability:
    def test_simulator_has_no_batch_path(self):
        assert not backend_supports_batch("simulator")
        assert not backend_supports_batch("no-such-backend")

    def test_only_the_closed_form_backends_are_batch_capable(self):
        capable = [name for name in backend_names() if backend_supports_batch(name)]
        assert tuple(capable) == BATCH_BACKENDS


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("name", BATCH_BACKENDS)
    def test_batch_matches_scalar_predictions(self, name):
        backend = create_backend(name)
        scalar = [backend.predict(scenario) for scenario in GRID.scenarios]
        batch = backend.predict_batch(list(GRID.scenarios))
        assert len(batch) == len(scalar)
        for reference, result in zip(scalar, batch):
            assert result.backend == name
            assert result.scenario == reference.scenario
            assert result.total_seconds == reference.total_seconds
            assert result.phases == reference.phases

    @pytest.mark.parametrize("name", BATCH_BACKENDS)
    def test_vectorised_static_models_are_bit_equal(self, name):
        backend = create_backend(name)
        scalar = [backend.predict(scenario) for scenario in GRID.scenarios]
        batch = backend.predict_batch(list(GRID.scenarios))
        for reference, result in zip(scalar, batch):
            assert result.to_dict() == reference.to_dict()

    @pytest.mark.parametrize("backend", backend_names())
    def test_service_batch_and_scalar_paths_agree(self, backend):
        suite = ScenarioSuite("pair", GRID.scenarios[:4])
        batched = PredictionService(backends=[backend]).evaluate_suite(
            suite, [backend]
        )
        # The per-point path the daemon and the streaming sweep dispatch.
        service = PredictionService(backends=[backend])
        rows = tuple(
            {backend: service.evaluate_point(scenario, backend)}
            for scenario in suite.scenarios
        )
        scalar = SuiteResult(suite=suite, backends=(backend,), rows=rows)
        assert batched.series(backend) == scalar.series(backend)


class TestServiceBatchDispatch:
    def test_suite_misses_dispatch_in_one_batch_call(self):
        service = PredictionService(backends=["aria"])
        suite = ScenarioSuite("grid", GRID.scenarios[:5])
        calls = []
        backend = service._backend("aria")
        original_batch = backend.predict_batch
        backend.predict_batch = lambda scenarios: (
            calls.append(len(scenarios)),
            original_batch(scenarios),
        )[1]
        service.evaluate_suite(suite, ["aria"])
        assert calls == [5]
        stats = service.stats()
        assert stats.batch_calls == 1
        assert stats.batch_points == 5
        assert stats.evaluations == 5

    def test_batch_results_populate_cache_and_store(self, tmp_path):
        service = PredictionService(backends=["aria"], store=tmp_path / "store")
        suite = ScenarioSuite("grid", GRID.scenarios[:4])
        service.evaluate_suite(suite, ["aria"])
        service.evaluate_suite(suite, ["aria"])
        assert service.stats().memory_hits == 4
        warm = PredictionService(backends=["aria"], store=tmp_path / "store")
        warm.evaluate_suite(suite, ["aria"])
        stats = warm.stats()
        assert stats.evaluations == 0
        assert stats.store_hits == 4

    def test_single_miss_stays_on_scalar_path(self):
        service = PredictionService(backends=["aria"])
        calls = []
        backend = service._backend("aria")
        original = backend.predict
        backend.predict = lambda scenario: (calls.append(1), original(scenario))[1]
        service.evaluate_suite(ScenarioSuite("one", (BASE,)), ["aria"])
        assert calls == [1]
        assert service.stats().batch_calls == 0

    def test_wrong_batch_result_count_is_an_error(self):
        service = PredictionService(backends=["aria"])
        backend = service._backend("aria")
        backend.predict_batch = lambda scenarios: []
        with pytest.raises(BackendError, match="batch results"):
            service.evaluate_suite(
                ScenarioSuite("grid", GRID.scenarios[:3]), ["aria"]
            )

    def test_execution_modes_share_the_batch_partition(self):
        suite = ScenarioSuite("grid", GRID.scenarios[:4])
        reference = None
        for mode in ("serial", "thread", "process"):
            service = PredictionService(backends=["aria"], execution=mode)
            series = service.evaluate_suite(suite, ["aria"]).series("aria")
            assert service.stats().batch_calls == 1
            if reference is None:
                reference = series
            else:
                assert series == reference


class TestStatsCounterSafety:
    def test_concurrent_suite_evaluations_do_not_drop_counts(self):
        service = PredictionService(backends=["aria"], max_workers=4)
        suite = ScenarioSuite("grid", GRID.scenarios[:6])
        service.evaluate_suite(suite, ["aria"])  # populate the cache
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def hammer():
            try:
                barrier.wait()
                for _ in range(5):
                    service.evaluate_suite(suite, ["aria"])
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = service.stats()
        # 6 first-run evaluations; 8 threads x 5 runs x 6 points of memory hits.
        assert stats.evaluations == 6
        assert stats.memory_hits == 8 * 5 * 6
