"""Tests for the store-aware sweep scheduler (:mod:`repro.api.sweep`).

Pins the scheduler's contract: the plan partitions a target grid into memory
hits / store hits / missing points without evaluating anything, a run
executes exactly the missing remainder (so interrupted sweeps resume), and
the bulk store probe behind the planner
(:meth:`SqliteResultStore.get_many`) finds every stored record with one
indexed ``SELECT`` per 500 missing points.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.api import (
    PredictionService,
    Scenario,
    ScenarioSuite,
    SweepScheduler,
    create_backend,
    open_store,
)
from repro.api.backends import _REGISTRY
from repro.api.dashboard import run_dashboard, smoke_grid
from repro.api.results import PredictionResult
from repro.api.store import DB_FILENAME
from repro.api.sweep import SLICE_SCENARIOS, _slices
from repro.units import megabytes

#: Small, fast scenario shared by the scheduler tests.
SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=11,
)

SUITE = ScenarioSuite.from_sweep("sweep-grid", SMALL, num_nodes=[2, 3, 4, 5])


@pytest.fixture
def counting_backend():
    """Register a throwaway counting backend and unregister it afterwards."""

    class CountingBackend:
        calls: list[str] = []

        def predict(self, scenario):
            type(self).calls.append(scenario.cache_key())
            return PredictionResult(
                backend=type(self).name,
                scenario=scenario,
                total_seconds=float(scenario.num_nodes),
                phases={"map": 1.0},
            )

    CountingBackend.name = "sweep-counting-stub"
    _REGISTRY["sweep-counting-stub"] = CountingBackend
    try:
        yield CountingBackend
    finally:
        _REGISTRY.pop("sweep-counting-stub", None)


class TestSweepPlan:
    def test_empty_state_plans_everything_as_missing(self):
        service = PredictionService(backends=["aria"])
        plan = SweepScheduler(service).plan(SUITE, ["aria"])
        assert plan.total_points == 4
        assert plan.cached_points == 0
        assert len(plan.missing) == 4
        assert {index for index, _ in plan.missing} == {0, 1, 2, 3}

    def test_plan_against_preseeded_store_reports_only_remainder(self, tmp_path):
        store_path = tmp_path / "store"
        seeded = PredictionService(backends=["aria"], store=store_path)
        seeded.evaluate_suite(
            ScenarioSuite("partial", SUITE.scenarios[:2]), ["aria"]
        )
        service = PredictionService(backends=["aria"], store=store_path)
        plan = SweepScheduler(service).plan(SUITE, ["aria"])
        assert len(plan.store_hits) == 2
        assert len(plan.missing) == 2
        assert {index for index, _ in plan.store_hits} == {0, 1}
        assert {index for index, _ in plan.missing} == {2, 3}

    def test_plan_distinguishes_memory_from_store_hits(self, tmp_path):
        service = PredictionService(backends=["aria"], store=tmp_path / "store")
        service.evaluate_suite(ScenarioSuite("warm", SUITE.scenarios[:1]), ["aria"])
        plan = SweepScheduler(service).plan(SUITE, ["aria"])
        assert len(plan.memory_hits) == 1
        assert len(plan.store_hits) == 0  # memory answers before the store
        assert len(plan.missing) == 3

    def test_plan_does_not_evaluate_or_count(self):
        service = PredictionService(backends=["aria"])
        SweepScheduler(service).plan(SUITE, ["aria"])
        stats = service.stats()
        assert stats.evaluations == 0
        assert stats.memory_hits == 0
        assert stats.store_hits == 0

    def test_duplicate_scenarios_share_the_underlying_point(self):
        suite = ScenarioSuite("dup", (SMALL, SMALL, SMALL))
        service = PredictionService(backends=["aria"])
        plan = SweepScheduler(service).plan(suite, ["aria"])
        assert plan.total_points == 3
        assert len(plan.missing) == 3  # reported per grid slot
        SweepScheduler(service).run(suite, ["aria"])
        assert service.stats().evaluations == 1  # evaluated once

    def test_describe_reports_every_hit_source(self, tmp_path):
        service = PredictionService(backends=["aria"], store=tmp_path / "store")
        service.evaluate_suite(ScenarioSuite("warm", SUITE.scenarios[:1]), ["aria"])
        text = SweepScheduler(service).plan(SUITE, ["aria"]).describe()
        assert "4 points" in text
        assert "1 memory hits" in text
        assert "0 store hits" in text
        assert "3 to evaluate" in text


class TestSweepRun:
    def test_run_reports_evaluated_remainder(self, counting_backend, tmp_path):
        name = counting_backend.name
        store_path = tmp_path / "store"
        first = SweepScheduler(
            PredictionService(backends=[name], store=store_path)
        )
        outcome = first.run(SUITE, [name])
        assert outcome.evaluated_points == 4
        assert len(outcome.plan.missing) == 4
        assert outcome.result.series(name) == [2.0, 3.0, 4.0, 5.0]

        second = SweepScheduler(
            PredictionService(backends=[name], store=store_path)
        )
        outcome = second.run(SUITE, [name])
        assert outcome.evaluated_points == 0
        assert outcome.stats.store_hits == 4
        assert outcome.result.series(name) == [2.0, 3.0, 4.0, 5.0]

    def test_interrupted_sweep_resumes_with_remainder_only(
        self, counting_backend, tmp_path
    ):
        name = counting_backend.name
        store_path = tmp_path / "store"
        # "Interrupted" run: only half the grid completed before the crash.
        partial = ScenarioSuite("partial", SUITE.scenarios[:2])
        SweepScheduler(
            PredictionService(backends=[name], store=store_path)
        ).run(partial, [name])
        counting_backend.calls.clear()

        resumed = SweepScheduler(
            PredictionService(backends=[name], store=store_path)
        )
        outcome = resumed.run(SUITE, [name])
        assert len(outcome.plan.store_hits) == 2
        assert len(outcome.plan.missing) == 2
        assert outcome.evaluated_points == 2
        # Only the two unfinished scenarios hit the backend.
        expected = {scenario.cache_key() for scenario in SUITE.scenarios[2:]}
        assert set(counting_backend.calls) == expected
        assert outcome.result.series(name) == [2.0, 3.0, 4.0, 5.0]

    def test_run_defaults_to_service_backends(self):
        service = PredictionService(backends=["aria", "herodotou"])
        outcome = SweepScheduler(service).run(SUITE)
        assert outcome.plan.backends == ("aria", "herodotou")
        assert outcome.plan.total_points == 8

    def test_cold_run_probes_the_store_once(self, tmp_path):
        # The plan's probe already found every point missing: the evaluation
        # must not SELECT them again, so a cold run costs one indexed SELECT
        # per 500-token chunk in all.
        suite = ScenarioSuite.from_sweep("cold", SMALL, num_nodes=list(range(2, 302)))
        service = PredictionService(backends=["aria", "herodotou"], store=tmp_path / "store")
        statements: list[str] = []
        service.store._connect().set_trace_callback(statements.append)
        outcome = SweepScheduler(service).run(suite)
        assert outcome.evaluated_points == 600
        selects = [
            sql for sql in statements if sql.lstrip().startswith("SELECT") and "FROM records" in sql
        ]
        assert len(selects) == -(-600 // 500)

    def test_run_uses_batch_dispatch_for_capable_backends(self):
        service = PredictionService(backends=["aria"])
        outcome = SweepScheduler(service).run(SUITE, ["aria"])
        assert outcome.stats.batch_calls == 1
        assert outcome.stats.batch_points == 4


class TestOneRead:
    """A plan hands the rows its probe read to the run: none is read twice."""

    NAMES = ("aria", "herodotou")
    GRID = ScenarioSuite.from_sweep("warm", SMALL, num_nodes=[2, 3, 4, 5, 6, 7])

    def _warm(self, tmp_path, monkeypatch, seeded: int = 6):
        """A fresh service over a store holding ``seeded`` scenarios, its lookups logged."""
        seed = ScenarioSuite("seed", self.GRID.scenarios[:seeded])
        PredictionService(backends=self.NAMES, store=tmp_path / "s").evaluate_suite(seed)
        service = PredictionService(backends=self.NAMES, store=tmp_path / "s")
        calls: list = []
        get_many = service.store.get_many
        monkeypatch.setattr(
            service.store, "get_many", lambda *args: calls.append(args[0]) or get_many(*args)
        )
        return service, calls

    def test_a_warm_plan_and_run_read_each_row_once(self, tmp_path, monkeypatch):
        service, calls = self._warm(tmp_path, monkeypatch)
        decodes: list[str] = []
        load = service.store._load_row
        monkeypatch.setattr(
            service.store, "_load_row", lambda row, *a: decodes.append(row[0]) or load(row, *a)
        )
        outcome = SweepScheduler(service).run(self.GRID, self.NAMES)
        assert len(calls) == 1
        assert len(decodes) == len(set(decodes)) == 12
        assert (outcome.stats.store_hits, outcome.stats.evaluations) == (12, 0)

    def test_a_store_only_dashboard_reads_the_store_once(self, tmp_path, monkeypatch):
        service, calls = self._warm(tmp_path, monkeypatch)
        run_dashboard(
            self.GRID, backends=self.NAMES, baseline="aria", service=service, evaluate=False
        )
        assert len(calls) == 1
        assert (service.stats().store_hits, service.stats().evaluations) == (12, 0)

    def test_a_warm_stream_reads_nothing_after_its_plan(self, tmp_path, monkeypatch):
        service, calls = self._warm(tmp_path, monkeypatch)
        scheduler = SweepScheduler(service)
        plan = scheduler.plan(self.GRID, self.NAMES)
        assert len(list(scheduler.iter_results(self.GRID, self.NAMES, plan=plan))) == 12
        assert len(calls) == 1
        assert service.stats().store_hits == 12

    def test_a_cooperative_drain_reads_nothing_after_its_last_plan(self, tmp_path, monkeypatch):
        service, calls = self._warm(tmp_path, monkeypatch, seeded=3)
        scheduler = SweepScheduler(service)
        plan = scheduler.plan

        def logged(*args, **kwargs):
            calls.append("plan")
            planned = plan(*args, **kwargs)
            calls.append("planned")
            return planned

        monkeypatch.setattr(scheduler, "plan", logged)
        outcome = scheduler.run_cooperative(self.GRID, self.NAMES, worker_id="solo")
        assert outcome.evaluated == 6
        assert calls[-1] == "planned"  # no replay: the last plan's probe is the last read
        assert (outcome.stats.store_hits, outcome.stats.evaluations) == (6, 6)


class TestSlices:
    """Streaming and cooperative sweeps settle whole scenario slices in bulk.

    Counters, not timers: store writes per slice, lease statements per
    slice, and the order of yields and batch calls.
    """

    #: 40 scenarios: slices of 1, 2, 4, 8, 16 and 9 scenarios.
    GRID = ScenarioSuite.from_sweep("sliced", SMALL, num_nodes=list(range(2, 42)))
    SLICES = 6
    BATCHED = ("aria", "herodotou")

    def test_slices_double_up_to_the_bound(self):
        points = [(index, name) for index in range(17) for name in ("a", "b")]
        scenarios = [len({index for index, _ in chunk}) for chunk in _slices(points, 256)]
        assert scenarios == [1, 2, 4, 8, 2]
        assert [len(chunk) for chunk in _slices(points, 3)] == [2, 4, 6, 6, 6, 6, 4]
        assert SLICE_SCENARIOS >= 8

    @pytest.mark.parametrize("path", ["stream", "cooperative"])
    def test_a_cold_slice_writes_once_per_batch_backend(self, tmp_path, monkeypatch, path):
        service = PredictionService(backends=self.BATCHED, store=tmp_path / "store")
        writes: list[int] = []
        put_many = service.store.put_many

        def counted(*args, **kwargs):
            writes.append(len(args[0]))
            return put_many(*args, **kwargs)

        monkeypatch.setattr(service.store, "put_many", counted)
        scheduler = SweepScheduler(service)
        if path == "stream":
            assert len(list(scheduler.iter_results(self.GRID, self.BATCHED))) == 80
        else:
            outcome = scheduler.run_cooperative(
                self.GRID, self.BATCHED, worker_id="solo", lease_ttl=60.0
            )
            assert outcome.evaluated == 80
        assert len(writes) == self.SLICES * len(self.BATCHED)
        assert sum(writes) == 80

    def test_a_cooperative_slice_issues_at_most_three_lease_statements(self, tmp_path):
        service = PredictionService(backends=self.BATCHED, store=tmp_path / "store")
        statements: list[str] = []
        service.store._connect().set_trace_callback(statements.append)
        outcome = SweepScheduler(service).run_cooperative(
            self.GRID, self.BATCHED, worker_id="solo", lease_ttl=60.0
        )
        assert outcome.evaluated == outcome.claimed == 80
        lease_writes = [
            sql.lstrip().split()[0]
            for sql in statements
            if "leases" in sql and not sql.lstrip().startswith("SELECT")
        ]
        claims = [at for at, verb in enumerate(lease_writes) if verb == "INSERT"]
        assert len(claims) == self.SLICES
        for start, end in zip(claims, [*claims[1:], len(lease_writes)]):
            assert end - start <= 3

    def test_a_stream_yields_before_the_last_slice_is_batched(self, monkeypatch):
        events: list[str] = []
        backend = type(create_backend("aria"))
        predict_batch = backend.predict_batch

        def logged(self, scenarios):
            events.append("batch")
            return predict_batch(self, scenarios)

        monkeypatch.setattr(backend, "predict_batch", logged)
        scheduler = SweepScheduler(PredictionService(backends=["aria"]))
        for _ in scheduler.iter_results(self.GRID, ["aria"]):
            events.append("yield")
        # The lone first scenario takes the per-point path; every later
        # slice is one batch.
        assert events.count("batch") == self.SLICES - 1
        last_batch = len(events) - 1 - events[::-1].index("batch")
        assert events.index("yield") < last_batch

    def test_sliced_cells_equal_the_suites(self, tmp_path):
        grid = smoke_grid()
        names = tuple(PredictionService().backends())

        def cells(rows) -> dict:
            return {(index, name): row[name] for index, row in enumerate(rows) for name in row}

        expected = cells(PredictionService(backends=names).evaluate_suite(grid, names).rows)
        stream = SweepScheduler(PredictionService(backends=names)).iter_results(grid, names)
        assert {(index, name): result for index, name, result in stream} == expected
        cooperative = SweepScheduler(
            PredictionService(backends=names, store=tmp_path / "store")
        ).run_cooperative(grid, names, worker_id="solo", lease_ttl=60.0)
        assert cells(cooperative.result.rows) == expected
        assert len(expected) == len(grid) * len(names)


class TestFlushOnFailure:
    """A sweep that dies mid-run must not lose its completed points."""

    @pytest.fixture
    def partial_backend(self):
        class PartialBackend:
            calls: list[str] = []
            cursed_nodes = 5

            def predict(self, scenario):
                type(self).calls.append(scenario.cache_key())
                if scenario.num_nodes == type(self).cursed_nodes:
                    raise ValueError("induced mid-sweep failure")
                return PredictionResult(
                    backend=type(self).name,
                    scenario=scenario,
                    total_seconds=float(scenario.num_nodes),
                    phases={"map": 1.0},
                )

        PartialBackend.name = "sweep-partial-stub"
        _REGISTRY["sweep-partial-stub"] = PartialBackend
        try:
            yield PartialBackend
        finally:
            _REGISTRY.pop("sweep-partial-stub", None)

    def test_completed_points_are_flushed_before_the_error_propagates(
        self, partial_backend, tmp_path
    ):
        name = partial_backend.name
        store_path = tmp_path / "store"
        service = PredictionService(backends=[name], store=store_path)
        with pytest.raises(ValueError):
            SweepScheduler(service).run(SUITE, [name])
        # The three healthy points landed on disk before the raise.
        assert open_store(store_path).refresh().loaded == 3
        assert service.stats().evaluations == 3
        assert service.stats().failures == 1

    def test_a_failing_stream_slice_yields_nothing_but_persists(self, partial_backend, tmp_path):
        name = partial_backend.name
        partial_backend.cursed_nodes = 3
        store_path = tmp_path / "store"
        scheduler = SweepScheduler(PredictionService(backends=[name], store=store_path))
        yielded = []
        with pytest.raises(ValueError):
            for index, _, _ in scheduler.iter_results(SUITE, [name], on_error="raise"):
                yielded.append(index)
        # Slices hold scenarios [0], [1, 2] and [3]; the second fails on 3 nodes.
        assert yielded == [0]
        assert open_store(store_path).refresh().loaded == 2

    def test_resumed_sweep_reevaluates_only_the_failed_point(
        self, partial_backend, tmp_path
    ):
        name = partial_backend.name
        store_path = tmp_path / "store"
        with pytest.raises(ValueError):
            SweepScheduler(
                PredictionService(backends=[name], store=store_path)
            ).run(SUITE, [name])
        partial_backend.cursed_nodes = -1  # the transient cause is gone
        partial_backend.calls.clear()
        resumed = SweepScheduler(
            PredictionService(backends=[name], store=store_path)
        )
        outcome = resumed.run(SUITE, [name])
        assert len(outcome.plan.store_hits) == 3
        assert len(outcome.plan.missing) == 1
        assert outcome.evaluated_points == 1
        # Only the previously failed scenario hit the backend again.
        cursed = [s for s in SUITE.scenarios if s.num_nodes == 5]
        assert partial_backend.calls == [cursed[0].cache_key()]
        assert outcome.result.series(name) == [2.0, 3.0, 4.0, 5.0]


class TestGetMany:
    def _seed(self, tmp_path, scenarios, backend="aria"):
        store = open_store(tmp_path / "store")
        engine = create_backend(backend)
        for scenario in scenarios:
            store.put(scenario.cache_key(), backend, engine.predict(scenario))
        return store

    def test_bulk_lookup_finds_stored_records_after_restart(self, tmp_path):
        self._seed(tmp_path, SUITE.scenarios)
        reopened = open_store(tmp_path / "store")
        points = [
            (scenario.cache_key(), "aria", None) for scenario in SUITE.scenarios
        ]
        found = reopened.get_many(points)
        assert len(found) == 4
        for scenario in SUITE.scenarios:
            assert found[(scenario.cache_key(), "aria")].total_seconds > 0

    def test_bulk_lookup_skips_missing_points(self, tmp_path):
        self._seed(tmp_path, SUITE.scenarios[:2])
        reopened = open_store(tmp_path / "store")
        points = [
            (scenario.cache_key(), "aria", None) for scenario in SUITE.scenarios
        ] + [(SMALL.cache_key(), "herodotou", None)]
        found = reopened.get_many(points)
        assert set(found) == {
            (scenario.cache_key(), "aria") for scenario in SUITE.scenarios[:2]
        }

    def test_bulk_lookup_selects_once_per_chunk(self, tmp_path):
        self._seed(tmp_path, SUITE.scenarios)
        reopened = open_store(tmp_path / "store")
        statements: list[str] = []
        reopened._connect().set_trace_callback(statements.append)
        # Many more points than stored records: the misses cost one indexed
        # SELECT per 500-token chunk, not one query per probed point.
        points = [
            (scenario.cache_key(), backend, {"probe": index})
            for index in range(200)
            for scenario in SUITE.scenarios
            for backend in ("aria", "herodotou")
        ] + [(scenario.cache_key(), "aria", None) for scenario in SUITE.scenarios]
        found = reopened.get_many(points)
        assert len(found) == 4
        selects = [sql for sql in statements if sql.lstrip().startswith("SELECT")]
        assert len(selects) == -(-len(points) // 500)

    def test_bulk_lookup_tolerates_corrupt_records(self, tmp_path):
        store = self._seed(tmp_path, SUITE.scenarios[:1])
        store.close()
        conn = sqlite3.connect(store.path / DB_FILENAME)
        with conn:
            conn.execute("UPDATE records SET result = '{ not json'")
        conn.close()
        reopened = open_store(tmp_path / "store")
        found = reopened.get_many([(SUITE.scenarios[0].cache_key(), "aria", None)])
        assert found == {}

    def test_bulk_lookup_respects_backend_options(self, tmp_path):
        store = open_store(tmp_path / "store")
        result = create_backend("vianna").predict(SMALL)
        store.put(SMALL.cache_key(), "vianna", result, options={"map_slots_per_node": 4})
        reopened = open_store(tmp_path / "store")
        assert reopened.get_many([(SMALL.cache_key(), "vianna", None)]) == {}
        found = reopened.get_many(
            [(SMALL.cache_key(), "vianna", {"map_slots_per_node": 4})]
        )
        assert found[(SMALL.cache_key(), "vianna")] == result
