"""Batch-path tests: ``predict_batch`` equivalence and dispatch.

Two layers are pinned down:

* only the closed-form backends (``aria``, ``herodotou``) are batch-capable,
  and their ``predict_batch`` is bit-equal to per-scenario ``predict``;
* the service's suite evaluation dispatches misses to ``predict_batch``,
  falls back per scenario when batching is disabled (or useless), and counts
  everything in :meth:`~repro.api.PredictionService.stats` without dropping
  concurrent increments.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    PredictionService,
    Scenario,
    ScenarioSuite,
    backend_names,
    backend_supports_batch,
    create_backend,
)
from repro.exceptions import BackendError
from repro.units import megabytes

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
        scalar = PredictionService(backends=[backend], batch=False).evaluate_suite(
            suite, [backend]
        )
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
        assert service.cache_size() == 4
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

    def test_batch_disabled_uses_scalar_path(self):
        service = PredictionService(backends=["aria"], batch=False)
        assert not service.batch_enabled
        suite = ScenarioSuite("grid", GRID.scenarios[:3])
        service.evaluate_suite(suite, ["aria"])
        stats = service.stats()
        assert stats.batch_calls == 0
        assert stats.evaluations == 3

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
