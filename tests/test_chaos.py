"""Chaos tests: the resilience layer under deterministic fault injection.

These are the acceptance tests of the fault-tolerant execution layer: a
seeded sweep runs under injected transient faults, latency spikes, a killed
process-pool worker, and torn store writes, and must come out bit-identical
to the fault-free run — with zero duplicate evaluations, every fault
accounted for in ``stats()``, and the dashboard degrading a permanently
failing backend to ``incomplete`` instead of crashing.

The fault schedule (:mod:`repro.testing.faults`) is a pure function of the
seed, so every assertion here is deterministic; no test relies on "faults
probably happened".
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.api import (
    PredictionService,
    RetryPolicy,
    Scenario,
    ScenarioSuite,
    open_store,
)
from repro.api.backends import _REGISTRY
from repro.api.dashboard import ARTIFACT_PREFIX, run_dashboard
from repro.api.results import PredictionResult
from repro.cli import main
from repro.exceptions import TransientError
from repro.testing import (
    FaultInjector,
    FaultSpec,
    FaultyStore,
    KillSwitch,
    inject_backend_faults,
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

#: aria and herodotou keep their batch paths bit-identical to the scalar
#: path, so the faulted run (which may fall back batch → scalar per point)
#: must reproduce the clean run exactly.
CHAOS_BACKENDS = ("aria", "herodotou")

CHAOS_SUITE = ScenarioSuite.from_sweep(
    "chaos-grid", SMALL, num_nodes=list(range(2, 14))
)

#: Fast retry schedule for chaos runs: enough attempts that a point failing
#: six seeded 10% rolls in a row (odds ~1e-6) never happens.
CHAOS_RETRY = RetryPolicy(max_attempts=6, base_delay=0.001, max_delay=0.01, seed=2017)


def _series(result, backends=CHAOS_BACKENDS):
    return {name: result.series(name) for name in backends}


@pytest.fixture
def temporary_backend():
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


class TestFaultScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        spec = FaultSpec(transient_rate=0.3, seed=42)
        first = FaultInjector(spec)
        second = FaultInjector(spec)
        for injector in (first, second):
            for key in ("a", "b", "a", "a", "b"):
                try:
                    injector.fault_point(key)
                except TransientError:
                    pass
        assert first.injected == second.injected
        assert first.injected.get("transient", 0) > 0

    def test_different_seeds_diverge(self):
        rolls_by_seed = []
        for seed in (1, 2):
            injector = FaultInjector(FaultSpec(seed=seed))
            rolls_by_seed.append(
                [injector._roll("transient", "key") for _ in range(8)]
            )
        assert rolls_by_seed[0] != rolls_by_seed[1]

    def test_schedule_is_per_point_not_global(self):
        # Point "a"'s schedule must not depend on how often "b" was rolled —
        # that is what makes the schedule independent of thread interleaving.
        spec = FaultSpec(transient_rate=0.5, seed=3)
        solo = FaultInjector(spec)
        interleaved = FaultInjector(spec)
        a_solo = [solo._roll("transient", "a") for _ in range(4)]
        a_mixed = []
        for _ in range(4):
            interleaved._roll("transient", "b")
            a_mixed.append(interleaved._roll("transient", "a"))
        assert a_solo == a_mixed

    def test_rate_bounds_are_validated(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            FaultSpec(transient_rate=1.5)
        with pytest.raises(ValidationError):
            FaultSpec(latency_seconds=-1.0)


class TestTransientChaosSweep:
    """The headline acceptance: 10% transient faults, bit-identical results."""

    def test_faulted_sweep_matches_clean_run_exactly(self, tmp_path):
        clean = PredictionService(backends=list(CHAOS_BACKENDS)).evaluate_suite(
            CHAOS_SUITE, CHAOS_BACKENDS
        )
        spec = FaultSpec(
            transient_rate=0.10, latency_rate=0.05, latency_seconds=0.001, seed=2017
        )
        injector = FaultInjector(spec)
        with inject_backend_faults("aria", injector), inject_backend_faults(
            "herodotou", injector
        ):
            service = PredictionService(
                backends=list(CHAOS_BACKENDS),
                retry=CHAOS_RETRY,
                store=tmp_path / "store",
                execution="thread",
                batch=False,  # per-point injection; aria/herodotou batch == scalar
            )
            faulted = service.evaluate_suite(CHAOS_SUITE, CHAOS_BACKENDS)

        assert faulted.complete
        assert _series(faulted) == _series(clean)  # bit-identical, not approx

        stats = service.stats()
        injected = injector.injected.get("transient", 0)
        assert injected > 0  # the seeded schedule does fire at this rate
        assert stats.retries == injected  # every fault cost exactly one retry
        assert stats.failures == 0
        assert stats.timeouts == 0
        # Zero duplicate evaluations: each point's backend succeeded once.
        assert injector.duplicate_evaluations() == 0
        assert stats.evaluations == len(CHAOS_SUITE.scenarios) * len(CHAOS_BACKENDS)
        # One persisted record per point — no duplicate or phantom writes.
        assert open_store(tmp_path / "store").refresh().loaded == stats.evaluations

    def test_faulted_batch_path_degrades_and_still_matches(self):
        clean = PredictionService(backends=list(CHAOS_BACKENDS)).evaluate_suite(
            CHAOS_SUITE, CHAOS_BACKENDS
        )
        # High transient rate + batch dispatch: the batch-level roll fails the
        # whole dispatch, the service falls back to the per-point path, and
        # the per-point retries absorb the rest.
        spec = FaultSpec(transient_rate=0.6, seed=9)
        injector = FaultInjector(spec)
        with inject_backend_faults("aria", injector), inject_backend_faults(
            "herodotou", injector
        ):
            service = PredictionService(
                backends=list(CHAOS_BACKENDS),
                retry=RetryPolicy(max_attempts=25, base_delay=0.0, jitter=0.0),
            )
            faulted = service.evaluate_suite(CHAOS_SUITE, CHAOS_BACKENDS)
        assert faulted.complete
        assert _series(faulted) == _series(clean)
        stats = service.stats()
        assert stats.batch_fallbacks == injector.injected.get("batch-transient", 0)
        assert stats.batch_fallbacks > 0
        assert injector.duplicate_evaluations() == 0


class TestCorruptWriteChaos:
    def test_torn_store_writes_are_absorbed_and_healed(self, tmp_path):
        spec = FaultSpec(corrupt_rate=0.3, seed=5)
        injector = FaultInjector(spec)
        store = FaultyStore(tmp_path / "store", injector)
        service = PredictionService(
            backends=["aria"], store=store, execution="serial", batch=False
        )
        first = service.evaluate_suite(CHAOS_SUITE, ["aria"])
        torn = injector.injected.get("corrupt", 0)
        assert torn > 0  # the seeded schedule tears some writes
        # The sweep itself is unaffected: results come from the evaluation,
        # not the (sometimes torn) persistence.
        assert first.complete

        # A fresh store skips + quarantines the torn rows and keeps the rest.
        healthy = open_store(tmp_path / "store")
        scan = healthy.refresh()
        points = len(CHAOS_SUITE.scenarios)
        assert scan.corrupt == torn
        assert scan.quarantined == torn
        assert scan.loaded == points - torn

        # A resumed sweep re-evaluates exactly the torn points and heals them.
        resumed = PredictionService(
            backends=["aria"], store=healthy, execution="serial", batch=False
        )
        second = resumed.evaluate_suite(CHAOS_SUITE, ["aria"])
        assert _series(second, ["aria"]) == _series(first, ["aria"])
        stats = resumed.stats()
        assert stats.store_hits == points - torn
        assert stats.evaluations == torn
        assert open_store(tmp_path / "store").refresh().loaded == points


    def test_torn_batch_writes_are_absorbed(self, tmp_path):
        """The batch path's one ``put_many`` tears rows the same way."""
        injector = FaultInjector(FaultSpec(corrupt_rate=0.3, seed=5))
        store = FaultyStore(tmp_path / "store", injector)
        service = PredictionService(backends=["aria"], store=store)
        first = service.evaluate_suite(CHAOS_SUITE, ["aria"])
        assert service.stats().batch_calls == 1
        torn = injector.injected.get("corrupt", 0)
        assert torn > 0
        scan = open_store(tmp_path / "store").refresh()
        points = len(CHAOS_SUITE.scenarios)
        assert (scan.loaded, scan.corrupt, scan.quarantined) == (
            points - torn,
            torn,
            torn,
        )
        resumed = PredictionService(backends=["aria"], store=tmp_path / "store")
        second = resumed.evaluate_suite(CHAOS_SUITE, ["aria"])
        assert _series(second, ["aria"]) == _series(first, ["aria"])
        assert resumed.stats().evaluations == torn


def _fork_available() -> bool:
    configured = os.environ.get("REPRO_MP_START_METHOD")
    if configured:
        return configured == "fork"
    return "fork" in multiprocessing.get_all_start_methods()


@pytest.mark.skipif(
    not _fork_available(),
    reason="worker-kill chaos needs the fork start method (runtime-registered "
    "fault wrappers must be visible inside pool workers)",
)
class TestWorkerKillRecovery:
    """Satellite: a pool child dying mid-suite is recovered, once, observably."""

    def test_killed_worker_rebuilds_the_pool_and_completes(
        self, temporary_backend, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "fork")

        class ChaosCpuBackend:
            cpu_bound = True

            def predict(self, scenario):
                return PredictionResult(
                    backend=type(self).name,
                    scenario=scenario,
                    total_seconds=float(scenario.num_nodes),
                    phases={"map": 1.0},
                )

        backend = temporary_backend("chaos-cpu-stub", ChaosCpuBackend)
        suite = ScenarioSuite.from_sweep(
            "kill-grid", SMALL, num_nodes=[2, 3, 4, 5]
        )
        kill = KillSwitch(
            marker_path=tmp_path / "kill.marker",
            cache_key=suite.scenarios[1].cache_key(),
        )
        with inject_backend_faults(backend.name, FaultSpec(seed=1), kill_switch=kill):
            service = PredictionService(
                backends=[backend.name],
                execution="process",
                store=tmp_path / "store",
            )
            result = service.evaluate_suite(suite, [backend.name])

        assert kill.fired()  # the child really died (os._exit, no cleanup)
        assert result.complete
        assert result.series(backend.name) == [2.0, 3.0, 4.0, 5.0]
        stats = service.stats()
        assert stats.pool_rebuilds == 1  # the recovery is visible in stats()
        assert stats.pool_fallbacks == 0  # ...and stopped at the rebuild rung
        assert stats.failures == 0
        assert stats.evaluations == 4
        assert open_store(tmp_path / "store").refresh().loaded == 4


class TestDashboardDegradation:
    """Acceptance: a permanently failing backend degrades, never crashes."""

    SUITE = ScenarioSuite.from_sweep("dead-grid", SMALL, num_nodes=[2, 3, 4])

    def test_dead_backend_reports_incomplete(self, temporary_backend):
        class DeadBackend:
            def predict(self, scenario):
                raise TransientError("backend is down for maintenance, forever")

        dead = temporary_backend("chaos-dead-stub", DeadBackend)
        run = run_dashboard(
            self.SUITE,
            backends=("aria", "herodotou", dead.name),
            baseline="aria",
            on_error="record",
        )
        report = run.report
        assert report.backend(dead.name).status == "incomplete"
        assert report.backend(dead.name).count == 0
        assert report.backend("herodotou").status == "ok"
        assert not report.complete

    def test_cli_dashboard_survives_a_dead_backend(
        self, temporary_backend, capsys
    ):
        class DeadBackend:
            def predict(self, scenario):
                raise TransientError("still down")

        dead = temporary_backend("chaos-dead-cli-stub", DeadBackend)
        exit_code = main(
            [
                "dashboard",
                "--grid",
                "smoke",
                "--backend",
                "simulator",
                "--backend",
                dead.name,
                "--on-error",
                "record",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        records = [
            json.loads(line[len(ARTIFACT_PREFIX) :])
            for line in captured.out.splitlines()
            if line.startswith(ARTIFACT_PREFIX)
        ]
        by_backend = {
            record["backend"]: record
            for record in records
            if record["record"] == "backend"
        }
        assert by_backend[dead.name]["status"] == "incomplete"
        assert by_backend["simulator"]["status"] == "baseline"
        assert "failed points" in captured.err  # the resilience summary fired
