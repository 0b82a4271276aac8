"""Each point is settled once: one ``declines`` check and one probe.

:meth:`PredictionService._evaluate_points` is the one place a point is
settled, for every entry point (``evaluate``, ``evaluate_point``,
``evaluate_many``, ``evaluate_suite``).  These tests count calls, not time:
the ``declines`` checks, the store's bulk probes and its single-point
``get``, and the ``SELECT`` statements behind them.
"""

from __future__ import annotations

import pytest

import repro.api.service as service_module
from repro.api import PredictionService
from repro.api.dashboard import smoke_grid
from repro.api.store import SqliteResultStore

#: The five analytic backends; the simulator is left out to keep this fast.
BACKENDS = ("mva-forkjoin", "mva-tripathi", "vianna", "aria", "herodotou")


@pytest.fixture
def calls(monkeypatch):
    """Count ``backend_declines`` checks and store probes by name."""
    counts = {"declines": 0, "get_many": 0, "get": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        service_module, "backend_declines", counting("declines", service_module.backend_declines)
    )
    monkeypatch.setattr(
        SqliteResultStore, "get_many", counting("get_many", SqliteResultStore.get_many)
    )
    monkeypatch.setattr(SqliteResultStore, "get", counting("get", SqliteResultStore.get))
    return counts


class TestSuiteSettlesEachPointOnce:
    def test_cold_store_backed_suite(self, tmp_path, calls):
        suite = smoke_grid()
        service = PredictionService(backends=list(BACKENDS), store=tmp_path / "store")
        statements: list[str] = []
        service.store._connect().set_trace_callback(statements.append)
        result = service.evaluate_suite(suite)
        points = len(suite.scenarios) * len(BACKENDS)
        assert points == 15
        assert result.complete
        assert calls == {"declines": points, "get_many": 1, "get": 0}
        selects = [sql for sql in statements if sql.lstrip().startswith("SELECT")]
        assert len(selects) == 1
        stats = service.stats()
        assert stats.evaluations == points
        assert stats.memory_hits == stats.store_hits == 0


class TestSinglePointsUseThePartition:
    def test_evaluate_probes_once_then_hits_memory(self, tmp_path, calls):
        scenario = smoke_grid().scenarios[0]
        service = PredictionService(backends=["mva-forkjoin"], store=tmp_path / "store")
        service.evaluate(scenario, "mva-forkjoin")
        assert calls == {"declines": 1, "get_many": 1, "get": 0}
        service.evaluate(scenario, "mva-forkjoin")
        # A memory hit never reaches the store.
        assert calls == {"declines": 2, "get_many": 1, "get": 0}
        stats = service.stats()
        assert (stats.evaluations, stats.memory_hits, stats.store_hits) == (1, 1, 0)

    def test_evaluate_point_hits_the_store_once(self, tmp_path, calls):
        scenario = smoke_grid().scenarios[0]
        cold = PredictionService(backends=["vianna"], store=tmp_path / "store")
        cold.evaluate(scenario, "vianna")
        calls.update(declines=0, get_many=0, get=0)
        warm = PredictionService(backends=["vianna"], store=tmp_path / "store")
        assert warm.evaluate_point(scenario, "vianna").ok
        assert calls == {"declines": 1, "get_many": 1, "get": 0}
        assert warm.stats().store_hits == 1

    def test_evaluate_many_checks_each_backend_once(self, tmp_path, calls):
        scenario = smoke_grid().scenarios[0]
        service = PredictionService(backends=list(BACKENDS), store=tmp_path / "store")
        results = service.evaluate_many(scenario, BACKENDS)
        assert set(results) == set(BACKENDS)
        assert calls == {"declines": len(BACKENDS), "get_many": 1, "get": 0}
        assert service.stats().evaluations == len(BACKENDS)


class TestInflightRegistration:
    def test_point_finished_after_the_probe_is_a_memory_hit(self, tmp_path, monkeypatch):
        # Another caller finishes the point while this caller's probe is
        # at the store: the in-flight registration finds it in memory and
        # does not evaluate it a second time.
        scenario = smoke_grid().scenarios[0]
        service = PredictionService(backends=["vianna"], store=tmp_path / "store")
        original = SqliteResultStore.get_many
        raced = []

        def get_many(store, points, tokens=None):
            if raced:
                return original(store, points, tokens)
            raced.append(None)
            raced.append(service.evaluate(scenario, "vianna"))
            return {}  # this probe read the store before the other's write

        monkeypatch.setattr(SqliteResultStore, "get_many", get_many)
        result = service.evaluate(scenario, "vianna")
        assert result is raced[1]
        stats = service.stats()
        assert stats.evaluations == 1
        assert stats.memory_hits == 1
