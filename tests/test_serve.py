"""Tests for the serving layer (:mod:`repro.serve`) and its service hooks.

Covers the PR's acceptance semantics end to end:

* in-flight coalescing — N concurrent identical evaluations share one
  backend call, counted by the first-class ``coalesced`` stat (and its
  ``delta()``), for direct service callers and through the daemon alike;
* ``ServiceStats`` / ``BreakerSnapshot`` JSON round-trips (the ``/stats``
  contract);
* admission control — queue-full answers 429 with ``Retry-After``, and
  observability endpoints bypass the gate so they keep answering while the
  daemon is saturated;
* memory hits — a ``/predict`` point already in memory is answered on the
  event loop (no slot, no pool thread, body bytes equal to ``json_body``),
  and ``Scenario.cache_key`` memoises without touching eq, hash or pickle;
* streaming sweeps — NDJSON point-by-point delivery, and a mid-stream client
  disconnect that neither poisons the scheduler nor duplicates evaluations
  nor leaves the store inconsistent;
* lifecycle — drain rejects new work, completes in-flight requests, decodes
  no stored row, and a real SIGTERM to a ``repro serve`` subprocess exits 0
  with the answered point on disk.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    BreakerPolicy,
    PredictionService,
    Scenario,
    ScenarioSuite,
    ServiceStats,
    SweepScheduler,
    open_store,
)
from repro.api.backends import _REGISTRY, backend_names
from repro.api.dashboard import dashboard_grid
from repro.api.resilience import BREAKER_OPEN, BreakerSnapshot
from repro.api.store import SqliteResultStore
from repro.api.results import PredictionResult
from repro.exceptions import TransientError, ValidationError
from repro.serve import ServeConfig, daemon_in_thread, resolve_policy
from repro.serve.daemon import (
    PredictionDaemon,
    _predict_body,
    _result_dict,
    _result_json,
    retry_after_value,
)
from repro.serve.http import HttpError, Request, json_body
from repro.serve.loadgen import DaemonClient, percentile, run_predict_load
from repro.units import megabytes

REPO_ROOT = Path(__file__).resolve().parents[1]

SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=11,
)


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


def _gated_backend_class(error: Exception | None = None):
    """A backend that blocks every call until ``release`` is set."""

    class GatedBackend:
        release = threading.Event()
        calls = 0
        lock = threading.Lock()

        def predict(self, scenario):
            with type(self).lock:
                type(self).calls += 1
            if not type(self).release.wait(timeout=30.0):
                raise TransientError("gate never released")
            if error is not None:
                raise error
            return _result_for(type(self).name, scenario)

    return GatedBackend


def _counting_backend_class(delay: float = 0.0):
    """A backend that counts calls per cache key (for dedup assertions)."""

    class CountingBackend:
        calls: dict[str, int] = {}
        lock = threading.Lock()

        def predict(self, scenario):
            key = scenario.cache_key()
            with type(self).lock:
                type(self).calls[key] = type(self).calls.get(key, 0) + 1
            if delay:
                time.sleep(delay)
            return _result_for(type(self).name, scenario)

    return CountingBackend


def _wait_until(predicate, timeout: float = 15.0, interval: float = 0.005) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestCoalescing:
    def test_concurrent_identical_evaluations_share_one_backend_call(
        self, temporary_backend
    ):
        gated = temporary_backend("gated-coalesce", _gated_backend_class())
        service = PredictionService(backends=["gated-coalesce"])
        results: list = []
        errors: list = []

        def call():
            try:
                results.append(service.evaluate(SMALL, "gated-coalesce"))
            except BaseException as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(5)]
        for thread in threads:
            thread.start()
        try:
            # All five are in the registry once coalesced hits 4: one owner
            # plus four joiners.
            assert _wait_until(lambda: service.stats().coalesced == 4)
        finally:
            gated.release.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        stats = service.stats()
        assert gated.calls == 1
        assert stats.evaluations == 1
        assert stats.coalesced == 4
        assert len({id(result) for result in results}) == 1

    def test_joiners_share_the_owners_terminal_failure(self, temporary_backend):
        boom = ValidationError("shared failure")
        gated = temporary_backend("gated-fail", _gated_backend_class(error=boom))
        service = PredictionService(backends=["gated-fail"])
        errors: list = []

        def call():
            try:
                service.evaluate(SMALL, "gated-fail")
            except ValidationError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            assert _wait_until(lambda: service.stats().coalesced == 2)
        finally:
            gated.release.set()
        for thread in threads:
            thread.join(timeout=30.0)
        # Everyone saw the owner's error; the backend was attempted once.
        assert len(errors) == 3
        assert all(error is boom for error in errors)
        assert gated.calls == 1
        assert service.stats().failures == 1

    def test_suite_duplicate_grid_cells_count_as_coalesced(self, temporary_backend):
        counting = temporary_backend("count-dupes", _counting_backend_class())
        service = PredictionService(backends=["count-dupes"])
        suite = ScenarioSuite(
            name="dupes", scenarios=(SMALL, SMALL, SMALL.with_updates(num_nodes=4))
        )
        result = service.evaluate_suite(suite, ["count-dupes"])
        assert len(result.rows) == 3
        stats = service.stats()
        assert stats.evaluations == 2
        assert stats.coalesced == 1
        assert max(counting.calls.values()) == 1

    def test_stats_delta_includes_coalesced(self):
        before = ServiceStats(coalesced=2, evaluations=5)
        after = ServiceStats(coalesced=7, evaluations=9)
        delta = after.delta(before)
        assert delta.coalesced == 5
        assert delta.evaluations == 4


class TestStatsSerialization:
    def test_service_stats_round_trips_through_json(self):
        stats = ServiceStats(
            memory_hits=1, store_hits=2, evaluations=3, coalesced=4, retries=5
        )
        encoded = json.dumps(stats.to_dict(), sort_keys=True)
        assert ServiceStats.from_dict(json.loads(encoded)) == stats

    def test_service_stats_rejects_unknown_and_non_mapping(self):
        with pytest.raises(ValidationError):
            ServiceStats.from_dict({"evaluations": 1, "bogus": 2})
        with pytest.raises(ValidationError):
            ServiceStats.from_dict([1, 2, 3])

    def test_breaker_snapshot_round_trips_through_json(self):
        snapshot = BreakerSnapshot(
            name="simulator",
            state=BREAKER_OPEN,
            trips=2,
            window_calls=4,
            window_failures=4,
            rejections=7,
        )
        encoded = json.dumps(snapshot.to_dict(), sort_keys=True)
        assert BreakerSnapshot.from_dict(json.loads(encoded)) == snapshot

    def test_breaker_snapshot_rejects_unknown_fields_and_states(self):
        snapshot = BreakerSnapshot(
            name="x", state=BREAKER_OPEN, trips=0,
            window_calls=0, window_failures=0, rejections=0,
        )
        data = snapshot.to_dict()
        with pytest.raises(ValidationError):
            BreakerSnapshot.from_dict({**data, "extra": 1})
        with pytest.raises(ValidationError):
            BreakerSnapshot.from_dict({**data, "state": "exploded"})


class TestResolvePolicy:
    CONFIG = ServeConfig(max_retries=3, max_timeout=10.0)

    def test_defaults(self):
        assert resolve_policy(None, self.CONFIG) == (None, None, "record")
        assert resolve_policy({}, self.CONFIG) == (None, None, "record")

    def test_values_pass_through_below_the_ceilings(self):
        retries, timeout, on_error = resolve_policy(
            {"retries": 2, "timeout": 5, "on_error": "raise"}, self.CONFIG
        )
        assert (retries, timeout, on_error) == (2, 5.0, "raise")

    def test_values_above_the_ceilings_are_clamped(self):
        retries, timeout, _ = resolve_policy(
            {"retries": 99, "timeout": 1e6}, self.CONFIG
        )
        assert retries == 3
        assert timeout == 10.0

    @pytest.mark.parametrize(
        "policy",
        [
            {"retries": -1},
            {"retries": True},
            {"retries": "two"},
            {"timeout": 0},
            {"timeout": "fast"},
            {"on_error": "explode"},
            {"unknown_knob": 1},
            "not-an-object",
        ],
    )
    def test_invalid_policies_are_rejected(self, policy):
        with pytest.raises(HttpError) as info:
            resolve_policy(policy, self.CONFIG)
        assert info.value.status == 400


class TestDaemonEndpoints:
    def test_healthz_stats_and_request_validation(self, temporary_backend):
        temporary_backend("serve-count", _counting_backend_class())
        service = PredictionService(backends=["serve-count"])
        with daemon_in_thread(service, ServeConfig(port=0)) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            status, body = client.get_json("/healthz")
            assert status == 200
            assert body["status"] == "ok"
            status, body = client.post_json(
                "/predict", {"scenario": SMALL.to_dict(), "backend": "serve-count"}
            )
            assert status == 200
            assert body["result"]["total_seconds"] == float(SMALL.num_nodes)
            status, body = client.get_json("/stats")
            assert status == 200
            assert ServiceStats.from_dict(body["service"]).evaluations == 1
            assert body["server"]["max_inflight"] == 4
            # Degradation counters surface as their own /stats section so
            # operators can spot graceful-degradation churn without diffing
            # the full service stats blob.
            assert body["degradation"] == {
                "pool_rebuilds": 0,
                "pool_fallbacks": 0,
                "batch_fallbacks": 0,
                "breaker_trips": 0,
                "declined": 0,
            }
            # Validation and routing errors.
            assert client.get_json("/nope")[0] == 404
            assert client.get_json("/predict")[0] == 405
            assert client.post_json("/predict", {"backend": "serve-count"})[0] == 400
            assert (
                client.post_json(
                    "/predict", {"scenario": SMALL.to_dict(), "backend": "bogus"}
                )[0]
                == 400
            )
            assert (
                client.post_json(
                    "/predict",
                    {
                        "scenario": SMALL.to_dict(),
                        "backend": "serve-count",
                        "policy": {"retries": "many"},
                    },
                )[0]
                == 400
            )

    def test_healthz_degrades_to_503_only_when_all_breakers_open(
        self, temporary_backend
    ):
        class FailingBackend:
            def predict(self, scenario):
                raise TransientError("always down")

        temporary_backend("serve-down", FailingBackend)
        service = PredictionService(
            backends=["serve-down"],
            breaker=BreakerPolicy(
                failure_threshold=0.5, window=2, min_calls=2, cooldown_seconds=3600.0
            ),
        )
        with daemon_in_thread(service, ServeConfig(port=0)) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            assert client.get_json("/healthz")[0] == 200
            for _ in range(2):
                status, body = client.post_json(
                    "/predict",
                    {"scenario": SMALL.to_dict(), "backend": "serve-down"},
                )
                assert status == 200
                assert body["result"]["failed"] is True
            status, body = client.get_json("/healthz")
            assert status == 503
            assert body["status"] == "unhealthy"
            assert body["open_breakers"] == ["serve-down"]

    def test_concurrent_identical_requests_evaluate_exactly_once(
        self, temporary_backend
    ):
        gated = temporary_backend("serve-gated", _gated_backend_class())
        service = PredictionService(backends=["serve-gated"])
        clients = 4
        with daemon_in_thread(
            service, ServeConfig(port=0, max_inflight=clients)
        ) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            statuses: list[int] = []
            totals: list[float] = []
            lock = threading.Lock()

            def call():
                status, body = client.post_json(
                    "/predict",
                    {"scenario": SMALL.to_dict(), "backend": "serve-gated"},
                )
                with lock:
                    statuses.append(status)
                    if status == 200:
                        totals.append(body["result"]["total_seconds"])

            threads = [threading.Thread(target=call) for _ in range(clients)]
            for thread in threads:
                thread.start()
            try:
                # /stats bypasses admission, so it observes the pile-up live.
                assert _wait_until(
                    lambda: service.stats().coalesced == clients - 1
                )
            finally:
                gated.release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert statuses == [200] * clients
            assert len(set(totals)) == 1
        stats = service.stats()
        assert gated.calls == 1
        assert stats.evaluations == 1
        assert stats.coalesced == clients - 1

    def test_queue_full_answers_429_with_retry_after(self, temporary_backend):
        gated = temporary_backend("serve-full", _gated_backend_class())
        service = PredictionService(backends=["serve-full"])
        config = ServeConfig(port=0, max_inflight=1, queue_depth=1, retry_after=2.5)
        with daemon_in_thread(service, config) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            statuses: list[int] = []

            def call(nodes: int):
                scenario = SMALL.with_updates(num_nodes=nodes)
                status, _ = client.post_json(
                    "/predict",
                    {"scenario": scenario.to_dict(), "backend": "serve-full"},
                )
                statuses.append(status)

            first = threading.Thread(target=call, args=(2,))
            first.start()
            assert _wait_until(lambda: daemon.inflight == 1)
            second = threading.Thread(target=call, args=(3,))
            second.start()
            assert _wait_until(lambda: daemon.queued == 1)
            # Slot and queue are both taken: the third request bounces.
            connection = http.client.HTTPConnection(
                daemon.host, daemon.port, timeout=30.0
            )
            try:
                body = json.dumps(
                    {
                        "scenario": SMALL.with_updates(num_nodes=4).to_dict(),
                        "backend": "serve-full",
                    }
                )
                connection.request(
                    "POST", "/predict", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 429
                # RFC 9110 delay-seconds: a non-negative integer, fractional
                # configs rounded up so clients never retry early.
                retry_after = response.getheader("Retry-After")
                assert re.fullmatch(r"\d+", retry_after)
                assert retry_after == "3"
                assert "queue is full" in payload["error"]
            finally:
                connection.close()
            gated.release.set()
            first.join(timeout=30.0)
            second.join(timeout=30.0)
            assert statuses == [200, 200]

    def test_retry_after_is_rfc9110_integer_seconds(self):
        # RFC 9110 §10.2.3: Retry-After delay-seconds is a non-negative
        # decimal integer. Fractions round *up* (never invite an early
        # retry); negatives clamp to zero.
        assert retry_after_value(0.0) == "0"
        assert retry_after_value(0.5) == "1"
        assert retry_after_value(1.0) == "1"
        assert retry_after_value(2.5) == "3"
        assert retry_after_value(30.0) == "30"
        assert retry_after_value(-4.0) == "0"
        for seconds in (0.0, 0.1, 1.0, 2.5, 7.0):
            assert re.fullmatch(r"\d+", retry_after_value(seconds))

    def test_sweep_streams_points_and_replays_from_store(
        self, temporary_backend, tmp_path
    ):
        temporary_backend("serve-sweep", _counting_backend_class())
        service = PredictionService(
            backends=["serve-sweep"], store=tmp_path / "store"
        )
        suite = ScenarioSuite.from_sweep("serve-grid", SMALL, num_nodes=[2, 3, 4])
        with daemon_in_thread(service, ServeConfig(port=0)) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            payload = {"suite": suite.to_dict(), "backends": ["serve-sweep"]}
            lines = list(client.stream_ndjson("/sweep", payload))
            events = [line["event"] for line in lines]
            assert events[0] == "plan"
            assert events[-1] == "done"
            assert events.count("point") == 3
            assert lines[0]["plan"]["missing"] == 3
            done = lines[-1]["stats"]
            assert ServiceStats.from_dict(done).evaluations == 3
            points = [line for line in lines if line["event"] == "point"]
            assert {point["backend"] for point in points} == {"serve-sweep"}
            assert all(point["result"]["total_seconds"] > 0 for point in points)
            # Same sweep again: everything replays, nothing re-evaluates.
            lines = list(client.stream_ndjson("/sweep", payload))
            assert lines[0]["plan"]["missing"] == 0
            assert ServiceStats.from_dict(lines[-1]["stats"]).evaluations == 0
            store = {"format": "sqlite", "path": str(tmp_path / "store")}
            assert client.get_json("/stats")[1]["store"] == store  # no record count

    def test_plan_endpoint_matches_direct_planner(self):
        from repro.plan import CapacityPlanner, Constraint, PlanSpec, SearchSpace

        spec = PlanSpec(
            scenario=Scenario(
                workload="wordcount",
                input_size_bytes=megabytes(512),
                num_jobs=2,
            ),
            constraint=Constraint(deadline_seconds=400.0),
            space=SearchSpace(num_nodes=(2, 4, 6, 8)),
        )
        direct = CapacityPlanner(PredictionService()).plan(spec)
        service = PredictionService()
        with daemon_in_thread(service, ServeConfig(port=0)) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            status, body = client.post_json("/plan", {"plan": spec.to_dict()})
            assert status == 200
            # The served report is the CLI/library report: same envelope,
            # bit-identical result section for the same spec.
            assert set(body) == {"result", "metadata", "failed"}
            assert body["result"] == direct.to_dict()["result"]
            # Validation and routing errors.
            assert client.post_json("/plan", {})[0] == 400
            assert client.post_json("/plan", {"plan": {"bogus": 1}})[0] == 400
            payload = spec.to_dict()
            payload["backend"] = "no-such-backend"
            assert client.post_json("/plan", {"plan": payload})[0] == 400
            assert client.get_json("/plan")[0] == 405

    def test_mid_sweep_disconnect_leaves_scheduler_and_store_consistent(
        self, temporary_backend, tmp_path
    ):
        counting = temporary_backend(
            "serve-abort", _counting_backend_class(delay=0.02)
        )
        service = PredictionService(
            backends=["serve-abort"], store=tmp_path / "store"
        )
        suite = ScenarioSuite.from_sweep(
            "abort-grid", SMALL, num_nodes=[2, 3, 4, 5, 6, 7, 8, 9]
        )
        with daemon_in_thread(service, ServeConfig(port=0)) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            payload = {"suite": suite.to_dict(), "backends": ["serve-abort"]}
            # Walk away after the plan line and one point.
            partial = list(client.stream_ndjson("/sweep", payload, max_lines=2))
            assert partial[0]["event"] == "plan"
            # The abandoned request eventually gives its slot back.
            assert _wait_until(lambda: daemon.inflight == 0 and daemon.queued == 0)
            # The daemon still serves; re-running the sweep completes it and
            # never re-evaluates a point the aborted run already finished.
            lines = list(client.stream_ndjson("/sweep", payload))
            assert lines[-1]["event"] == "done"
            assert [line["event"] for line in lines].count("point") == 8
        assert set(counting.calls.values()) == {1}
        assert len(counting.calls) == 8
        store_stats = service.store.refresh()
        assert store_stats.loaded == 8

    def test_drain_rejects_new_work_and_completes_inflight(self, temporary_backend):
        gated = temporary_backend("serve-drain", _gated_backend_class())
        service = PredictionService(backends=["serve-drain"])
        with daemon_in_thread(service, ServeConfig(port=0, max_inflight=2)) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            statuses: list[int] = []

            def call():
                status, _ = client.post_json(
                    "/predict",
                    {"scenario": SMALL.to_dict(), "backend": "serve-drain"},
                )
                statuses.append(status)

            inflight = threading.Thread(target=call)
            inflight.start()
            assert _wait_until(lambda: daemon.inflight == 1)
            daemon.shutdown_threadsafe()
            assert _wait_until(lambda: daemon.draining)
            # New work is rejected: either an explicit 503 (connection was
            # accepted before the listener closed) or a refused connection.
            try:
                connection = http.client.HTTPConnection(
                    daemon.host, daemon.port, timeout=30.0
                )
                try:
                    connection.request(
                        "POST",
                        "/predict",
                        body=json.dumps(
                            {"scenario": SMALL.to_dict(), "backend": "serve-drain"}
                        ),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 503
                    # The drain 503 tells clients when to retry, in RFC 9110
                    # integer seconds like the 429 path.
                    assert re.fullmatch(
                        r"\d+", response.getheader("Retry-After")
                    )
                finally:
                    connection.close()
            except OSError:
                pass
            gated.release.set()
            inflight.join(timeout=30.0)
            # The admitted request survived the drain.
            assert statuses == [200]
        assert service.stats().evaluations == 1

    def test_sigterm_drains_flushes_store_and_exits_zero(self, tmp_path):
        store = tmp_path / "store"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--backend", "mva-forkjoin",
                "--store", str(store),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            announce = process.stderr.readline()
            match = re.search(r"http://([\d.]+):(\d+)", announce)
            assert match, f"no serving announcement in {announce!r}"
            client = DaemonClient(match.group(1), int(match.group(2)))
            assert client.get_json("/healthz")[0] == 200
            status, body = client.post_json(
                "/predict",
                {"scenario": SMALL.to_dict(), "backend": "mva-forkjoin"},
            )
            assert status == 200
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "drained:" in stderr
        # The predict's record is on disk.
        assert open_store(store).refresh().loaded == 1

    def test_the_drain_decodes_no_stored_row(self, tmp_path, monkeypatch):
        """Each put is committed as it is written; the drain never rescans."""
        service = PredictionService(backends=["aria"], store=tmp_path / "store")
        suite = ScenarioSuite.from_sweep("seeded", SMALL, num_nodes=[2, 3, 4, 5, 6])
        SweepScheduler(service).run(suite, ["aria"])
        decoded: list[str] = []
        load_row = SqliteResultStore._load_row

        def counting_load_row(self, row, *args, **kwargs):
            decoded.append(row[0])
            return load_row(self, row, *args, **kwargs)

        with daemon_in_thread(service, ServeConfig(port=0)):
            monkeypatch.setattr(SqliteResultStore, "_load_row", counting_load_row)
        assert decoded == []
        monkeypatch.undo()
        assert open_store(tmp_path / "store").refresh().loaded == 5


class TestCompare:
    """``POST /compare`` is one :meth:`PredictionService.compare` call."""

    def test_body_default_baseline_and_unknown_backends(self):
        service = PredictionService(backends=["aria", "herodotou"])
        payload = {"scenario": SMALL.to_dict(), "backends": ["herodotou", "aria"]}
        with daemon_in_thread(service, ServeConfig(port=0)) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            status, body = client.post_json("/compare", payload)
            assert client.post_json("/compare", {**payload, "backends": ["bogus"]})[0] == 400
            assert client.post_json("/compare", {**payload, "baseline": "bogus"})[0] == 400
        comparison = service.compare(SMALL, ["herodotou", "aria"], "herodotou")
        expected = {
            "baseline": "herodotou",  # the first named backend
            "results": {name: result.to_dict() for name, result in comparison.results.items()},
            "relative_errors": comparison.relative_errors(),
        }
        assert status == 200
        assert body == json.loads(json.dumps(expected))

    def test_one_trajectory_per_request(self, monkeypatch):
        from repro.core import mva_solver

        created: list[int] = []
        init = mva_solver.Trajectory.__init__
        monkeypatch.setattr(
            mva_solver.Trajectory, "__init__", lambda *a, **k: created.append(1) or init(*a, **k)
        )
        service = PredictionService(backends=["mva-forkjoin", "mva-tripathi"])
        with daemon_in_thread(service, ServeConfig(port=0)) as daemon:
            client = DaemonClient(daemon.host, daemon.port)
            status, body = client.post_json("/compare", {"scenario": SMALL.to_dict()})
        assert (status, body["baseline"]) == (200, "mva-forkjoin")
        assert len(created) == 1


class TestMemoryHits:
    """A ``/predict`` point already in memory is answered on the event loop.

    No sleeps: the held slot is observed through the gated backend's
    ``entered`` event, and the drain is checked on the handler itself.
    """

    @staticmethod
    def _gate_on(nodes: int):
        """A backend that blocks only the scenario with ``nodes`` nodes."""

        class GateOnNodes:
            entered = threading.Event()
            release = threading.Event()

            def predict(self, scenario):
                if scenario.num_nodes == nodes:
                    type(self).entered.set()
                    if not type(self).release.wait(timeout=30.0):
                        raise TransientError("gate never released")
                return _result_for(type(self).name, scenario)

        return GateOnNodes

    @staticmethod
    def _post(daemon, scenario: Scenario, backend: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=30.0)
        try:
            body = json.dumps({"scenario": scenario.to_dict(), "backend": backend})
            connection.request(
                "POST", "/predict", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def test_a_repeat_is_answered_while_the_only_slot_is_held(self, temporary_backend):
        gated = temporary_backend("serve-hit", self._gate_on(nodes=3))
        service = PredictionService(backends=["serve-hit"])
        config = ServeConfig(port=0, max_inflight=1, queue_depth=0)
        with daemon_in_thread(service, config) as daemon:
            status, first = self._post(daemon, SMALL, "serve-hit")
            assert status == 200
            held: list[tuple[int, bytes]] = []
            holder = threading.Thread(
                target=lambda: held.append(
                    self._post(daemon, SMALL.with_updates(num_nodes=3), "serve-hit")
                )
            )
            holder.start()
            try:
                assert gated.entered.wait(timeout=30.0)
                assert daemon.inflight == 1 and daemon.queued == 0
                before = service.stats().memory_hits
                # The answered point: 200 with the first answer's bytes.
                assert self._post(daemon, SMALL, "serve-hit") == (200, first)
                assert service.stats().memory_hits == before + 1
                # A first-time point is work, and there is no room for it.
                status, body = self._post(daemon, SMALL.with_updates(num_nodes=4), "serve-hit")
                assert status == 429
                assert "queue is full" in json.loads(body)["error"]
            finally:
                gated.release.set()
                holder.join(timeout=30.0)
            assert [status for status, _ in held] == [200]
        assert service.stats().evaluations == 2

    def test_a_draining_daemon_answers_503_to_a_hit(self, temporary_backend):
        temporary_backend("serve-drain-hit", _counting_backend_class())
        service = PredictionService(backends=["serve-drain-hit"])
        service.evaluate_point(SMALL, "serve-drain-hit")
        daemon = PredictionDaemon(service, ServeConfig(port=0, retry_after=2.0))
        try:
            daemon.request_shutdown()
            body = json.dumps({"scenario": SMALL.to_dict(), "backend": "serve-drain-hit"})
            request = Request("POST", "/predict", "", body=body.encode())
            with pytest.raises(HttpError) as refused:
                asyncio.run(daemon._dispatch(request, writer=None))
        finally:
            daemon._pool.shutdown()
        assert refused.value.status == 503
        assert refused.value.headers == {"retry-after": "2"}
        assert service.stats().memory_hits == 0

    def test_a_hit_never_reaches_the_pool(self, temporary_backend):
        temporary_backend("serve-pool", _counting_backend_class())
        service = PredictionService(backends=["serve-pool"])
        with daemon_in_thread(service, ServeConfig(port=0)) as daemon:
            submitted: list[object] = []
            submit = daemon._pool.submit

            def counted(fn, *args, **kwargs):
                submitted.append(fn)
                return submit(fn, *args, **kwargs)

            daemon._pool.submit = counted
            answers = {self._post(daemon, SMALL, "serve-pool") for _ in range(5)}
        assert len(answers) == 1 and next(iter(answers))[0] == 200
        assert len(submitted) == 1
        stats = service.stats()
        assert (stats.evaluations, stats.memory_hits) == (1, 4)

    @pytest.mark.parametrize("grid", ["smoke", "failure"])
    def test_the_concatenated_body_is_json_body(self, grid, tmp_path):
        suite = dashboard_grid(grid)
        names = backend_names()
        computed = PredictionService(backends=names, store=tmp_path / "store")
        loaded = PredictionService(backends=names, store=tmp_path / "store")
        answers = []
        for scenario in suite.scenarios:
            for name in names:
                answers.append((name, computed.evaluate_point(scenario, name, on_error="record")))
                answers.append((name, computed.evaluate_point(scenario, name, on_error="skip")))
                answers.append((name, loaded.evaluate_point(scenario, name, on_error="record")))
        assert loaded.stats().store_hits > 0
        kinds = {type(result).__name__ for _, result in answers}
        declines = {"FailedResult", "NoneType"} if grid == "failure" else set()
        assert kinds == {"PredictionResult", *declines}
        for name, result in answers:
            expected = json_body({"backend": name, "result": _result_dict(result)})
            assert _predict_body(name, _result_json(result)) == expected
            # The memo answers the same bytes again.
            assert _predict_body(name, _result_json(result)) == expected


class TestScenarioKeyMemo:
    def test_with_updates_gets_a_fresh_key(self):
        key = SMALL.cache_key()
        other = SMALL.with_updates(num_nodes=5)
        assert other.cache_key() != key
        assert other.cache_key() == Scenario.from_dict(other.to_dict()).cache_key()
        assert SMALL.cache_key() == key

    def test_the_memo_leaves_eq_and_hash_alone(self):
        fresh = Scenario.from_dict(SMALL.to_dict())
        before = hash(fresh)
        assert fresh == SMALL
        fresh.cache_key()
        assert hash(fresh) == before
        assert fresh == Scenario.from_dict(SMALL.to_dict())
        assert fresh != SMALL.with_updates(seed=12)

    def test_pickle_round_trips(self):
        SMALL.cache_key()
        restored = pickle.loads(pickle.dumps(SMALL))
        assert restored == SMALL and hash(restored) == hash(SMALL)
        assert restored.cache_key() == SMALL.cache_key()
        cold = pickle.loads(pickle.dumps(Scenario.from_dict(SMALL.to_dict())))
        assert cold.cache_key() == SMALL.cache_key()


class TestLoadgen:
    def test_percentile_interpolates_linearly(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == 25.0
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValidationError):
            percentile([], 50)
        with pytest.raises(ValidationError):
            percentile(values, 101)

    def test_run_predict_load_reports_rates_and_latencies(self, temporary_backend):
        temporary_backend("serve-load", _counting_backend_class())
        service = PredictionService(backends=["serve-load"])
        with daemon_in_thread(service, ServeConfig(port=0)) as daemon:
            report = run_predict_load(
                daemon.host,
                daemon.port,
                scenarios=[SMALL.to_dict()],
                backend="serve-load",
                clients=2,
                requests_per_client=3,
            )
        assert report.requests == 6
        assert report.ok == 6
        assert report.rejected == 0
        assert report.failed == 0
        assert report.req_per_s > 0
        summary = report.to_dict()
        assert summary["p50_ms"] <= summary["p99_ms"]
        # One unique point: everything beyond the first call was answered by
        # the coalescing registry or the cache.
        stats = service.stats()
        assert stats.evaluations == 1
        assert stats.memory_hits + stats.coalesced == 5
