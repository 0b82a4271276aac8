"""Tests for :mod:`repro.api` — scenarios, backends, and the service."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    PredictionResult,
    PredictionService,
    Scenario,
    ScenarioSuite,
    backend_names,
    create_backend,
)
from repro.api.backends import register_backend
from repro.api.simulator_backend import SimulatorBackend
from repro.config import SchedulerConfig
from repro.core.estimators import EstimatorKind
from repro.core.model import Hadoop2PerformanceModel
from repro.exceptions import BackendError, ValidationError
from repro.units import MiB, gigabytes, megabytes
from repro.workloads import paper_cluster

#: Small, fast scenario shared by the service tests.
SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=11,
)

ALL_BACKENDS = ("aria", "herodotou", "mva-forkjoin", "mva-tripathi", "simulator", "vianna")


class TestScenario:
    def test_roundtrip_dict_and_json(self):
        scenario = Scenario(
            workload="terasort",
            input_size_bytes=gigabytes(2),
            block_size_bytes=64 * MiB,
            num_nodes=6,
            num_jobs=3,
            num_reduces=8,
            duration_cv=0.2,
            seed=99,
            repetitions=5,
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_roundtrip_with_explicit_cluster_and_scheduler(self):
        scenario = Scenario(
            num_nodes=3,
            cluster=paper_cluster(3),
            scheduler=SchedulerConfig(scheduler_name="fifo", slowstart_enabled=False),
        )
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert restored.cluster_config() == paper_cluster(3)
        assert restored.scheduler_config().scheduler_name == "fifo"

    def test_from_dict_parses_size_strings(self):
        scenario = Scenario.from_dict(
            {"input_size_bytes": "1.5GB", "block_size_bytes": "64MB"}
        )
        assert scenario.input_size_bytes == int(1.5 * 1024**3)
        assert scenario.block_size_bytes == 64 * MiB

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workload": "unknown-app"},
            {"num_nodes": 0},
            {"num_jobs": -1},
            {"num_reduces": 0},
            {"duration_cv": -0.1},
            {"repetitions": 0},
            {"submission_gap_seconds": -1.0},
        ],
    )
    def test_validation_errors(self, overrides):
        with pytest.raises(ValidationError):
            Scenario(**overrides)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            Scenario.from_dict({"input_size": "1GB"})

    def test_cluster_node_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Scenario(num_nodes=4, cluster=paper_cluster(2))

    def test_cache_key_stable_and_distinct(self):
        assert SMALL.cache_key() == SMALL.with_updates().cache_key()
        assert SMALL.cache_key() != SMALL.with_updates(seed=12).cache_key()

    def test_model_input_matches_legacy_construction(self):
        model_input = SMALL.model_input()
        assert model_input.num_nodes == 2
        assert model_input.num_jobs == 1
        assert model_input.num_maps == SMALL.job_configs()[0].num_maps


class TestScenarioSuite:
    def test_sweep_expansion_order(self):
        suite = ScenarioSuite.from_sweep(
            "grid", SMALL, num_nodes=[2, 4], num_jobs=[1, 2]
        )
        combos = [(s.num_nodes, s.num_jobs) for s in suite]
        assert combos == [(2, 1), (2, 2), (4, 1), (4, 2)]

    def test_roundtrip_json(self):
        suite = ScenarioSuite.from_sweep("grid", SMALL, num_nodes=[2, 4])
        assert ScenarioSuite.from_json(suite.to_json()) == suite

    def test_sweep_rescales_explicit_cluster(self):
        base = SMALL.with_updates(cluster=paper_cluster(2))
        suite = ScenarioSuite.from_sweep("grid", base, num_nodes=[2, 4, 8])
        assert [s.cluster.num_nodes for s in suite] == [2, 4, 8]
        assert ScenarioSuite.from_json(suite.to_json()) == suite

    def test_from_dict_sweep_form(self):
        data = {
            "name": "s",
            "base": {"input_size_bytes": "256MB", "repetitions": 1},
            "sweep": {"num_nodes": [2, 4], "input_size_bytes": ["256MB", "1GB"]},
        }
        suite = ScenarioSuite.from_dict(data)
        assert len(suite) == 4
        assert ScenarioSuite.from_json(suite.to_json()) == suite

    def test_invalid_suites_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioSuite(name="", scenarios=(SMALL,))
        with pytest.raises(ValidationError):
            ScenarioSuite.from_dict({"name": "x"})
        with pytest.raises(ValidationError):
            ScenarioSuite.from_dict({"name": "x", "base": {}, "sweep": {"bogus": [1]}})


class TestRegistry:
    def test_all_six_backends_registered(self):
        assert tuple(backend_names()) == ALL_BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError):
            create_backend("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError):
            register_backend("simulator")(SimulatorBackend)

    def test_duplicate_workload_registration_rejected(self):
        from repro.api import register_workload_profile
        from repro.workloads import wordcount_profile

        with pytest.raises(ValidationError):
            register_workload_profile("wordcount", wordcount_profile)

    def test_root_package_reexports_lazily(self):
        import repro

        assert repro.Scenario is Scenario
        with pytest.raises(AttributeError):
            repro.not_a_real_name


class TestBackends:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_backend_reachable_and_sane(self, name):
        result = create_backend(name).predict(SMALL)
        assert result.backend == name
        assert result.scenario == SMALL
        assert result.total_seconds > 0
        assert result.phases and all(v >= 0 for v in result.phases.values())
        assert json.dumps(result.to_dict())  # JSON-serialisable

    def test_mva_backend_matches_direct_model(self):
        direct = Hadoop2PerformanceModel(SMALL.model_input()).predict(
            EstimatorKind.FORK_JOIN
        )
        via_api = create_backend("mva-forkjoin").predict(SMALL)
        assert via_api.total_seconds == direct.job_response_time

    def test_simulator_backend_median_of_seeded_runs(self):
        scenario = SMALL.with_updates(repetitions=3)
        result = create_backend("simulator").predict(scenario)
        means = result.metadata["repetition_means"]
        assert len(means) == 3
        assert result.total_seconds == sorted(means)[1]


class TestPredictionResultMetadata:
    class Label(str):
        """A ``str`` subclass whose ``str()`` differs from its value."""

        def __str__(self) -> str:
            return f"label:{super().__str__()}"

    @pytest.mark.parametrize(
        ("metadata", "expected"),
        [
            ({"iterations": 3, "ok": True, "x": 1.5, "n": None}, None),
            (
                {"means": (1.0, 2.0), "nested": {"a": (1,)}},
                {"means": [1.0, 2.0], "nested": {"a": [1]}},
            ),
            ({Label("x"): 1.0}, {"label:x": 1.0}),
            ({7: "int key"}, {"7": "int key"}),
        ],
    )
    def test_metadata_keys_are_str_and_containers_lists(self, metadata, expected):
        result = PredictionResult(backend="b", scenario=SMALL, total_seconds=1.0, metadata=metadata)
        assert dict(result.metadata) == (metadata if expected is None else expected)
        assert all(type(key) is str for key in result.metadata)
        with pytest.raises(TypeError):
            result.metadata["new"] = 1


class TestPredictionService:
    def test_evaluate_many_covers_all_backends(self):
        service = PredictionService()
        results = service.evaluate_many(SMALL)
        assert set(results) == set(ALL_BACKENDS)

    def test_cache_hits(self):
        service = PredictionService(backends=["mva-forkjoin"])
        calls = []
        backend = service._backend("mva-forkjoin")
        original = backend.predict
        backend.predict = lambda scenario: (calls.append(1), original(scenario))[1]
        first = service.evaluate(SMALL, "mva-forkjoin")
        second = service.evaluate(SMALL, "mva-forkjoin")
        assert first is second
        assert len(calls) == 1
        assert service.stats().memory_hits == 1

    def test_suite_parallel_matches_sequential(self):
        suite = ScenarioSuite.from_sweep("grid", SMALL, num_nodes=[2, 3, 4])
        parallel = PredictionService(max_workers=4).evaluate_suite(
            suite, ["simulator", "mva-forkjoin"]
        )
        sequential = PredictionService(max_workers=1).evaluate_suite(
            suite, ["simulator", "mva-forkjoin"]
        )
        for name in ("simulator", "mva-forkjoin"):
            assert parallel.series(name) == sequential.series(name)

    def test_suite_duplicate_points_evaluated_once(self):
        suite = ScenarioSuite(name="dup", scenarios=(SMALL, SMALL, SMALL))
        service = PredictionService(backends=["aria"], max_workers=3)
        calls = []
        backend = service._backend("aria")
        original = backend.predict
        backend.predict = lambda scenario: (calls.append(1), original(scenario))[1]
        result = service.evaluate_suite(suite, ["aria"])
        assert len(calls) == 1
        assert len(set(id(row["aria"]) for row in result.rows)) == 1

    def test_suite_result_series_unknown_backend(self):
        suite = ScenarioSuite.from_sweep("grid", SMALL, num_nodes=[2])
        result = PredictionService().evaluate_suite(suite, ["aria"])
        with pytest.raises(BackendError):
            result.series("simulator")

    def test_backend_options_apply_to_unconfigured_backends_too(self):
        service = PredictionService(
            backends=["aria"],
            backend_options={"vianna": {"map_slots_per_node": 4}},
        )
        result = service.evaluate(SMALL, "vianna")
        assert result.metadata["map_slots_per_node"] == 4

    def test_cached_results_are_immutable(self):
        service = PredictionService(backends=["aria"])
        result = service.evaluate(SMALL, "aria")
        with pytest.raises(TypeError):
            result.phases["map"] = 0.0
        with pytest.raises(TypeError):
            result.metadata["lower_seconds"] = 0.0
        assert json.dumps(result.to_dict())

    def test_compare_includes_baseline_and_errors(self):
        service = PredictionService()
        comparison = service.compare(SMALL, ["mva-forkjoin", "aria"])
        assert comparison.baseline == "simulator"
        assert set(comparison.results) == {"simulator", "mva-forkjoin", "aria"}
        errors = comparison.relative_errors()
        assert set(errors) == {"mva-forkjoin", "aria"}
        baseline = comparison.baseline_result().total_seconds
        expected = (
            comparison.results["mva-forkjoin"].total_seconds - baseline
        ) / baseline
        assert errors["mva-forkjoin"] == pytest.approx(expected)
