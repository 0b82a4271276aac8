"""Perf bench for the cooperative sweep fabric and the store migration.

Two machine-readable ``BENCH_FABRIC {json}`` lines per run:

* ``cooperative_drain`` — four cooperative workers (threads, each with its
  own :class:`~repro.api.PredictionService` over one shared store) drain a
  grid of GIL-releasing sleepy evaluations vs. one worker draining the same
  grid alone.  Asserted: zero duplicate evaluations, every point evaluated
  exactly once, and that the workers' evaluations overlapped (a peak of at
  least two in flight at once) — a count, not a wall-clock ratio, so it
  holds under any load.  The wall-clock speedup is reported, not compared.
* ``store_migrate`` — ``repro store migrate`` over a legacy sharded-JSON
  store of 10k records (1k in smoke mode) laid out in ``tmp_path``, half of
  them aged past a TTL; then a cold bulk probe of the migrated SQLite store
  and one gc pass.  Asserted: every record loads, the probe finds every
  sampled point, and gc expires exactly the aged half (the files' mtimes
  became ``created``).  The wall-clocks are reported, not compared.

Set ``BENCH_SMOKE=1`` to shrink the grids (used by CI on every push).
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.api import PredictionService, Scenario, ScenarioSuite, SweepScheduler, create_backend
from repro.api.backends import _REGISTRY, backend_version
from repro.api.results import PredictionResult
from repro.api.scenario import SCENARIO_SPEC_VERSION
from repro.api.store import (
    STORE_FORMAT_VERSION,
    _canonical_options,
    migrate_store,
    open_store,
    point_token,
)
from repro.units import megabytes

#: Scenario template the fabric grids sweep over.
SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=2017,
)


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def _emit(record: dict) -> None:
    print(f"BENCH_FABRIC {json.dumps(record, sort_keys=True)}")


def _sleepy_backend_class(seconds: float):
    """A stub backend whose evaluations sleep (releasing the GIL) and count.

    ``time.sleep`` stands in for a real model solve: it costs wall-clock
    without CPU, so k threaded workers genuinely overlap.  The per-point
    call counter is the duplicate-evaluation ledger, and ``peak_in_flight``
    is the largest number of evaluations that were sleeping at once.
    """

    class SleepyBackend:
        version = 1
        cpu_bound = False
        calls: dict[str, int] = {}
        in_flight = 0
        peak_in_flight = 0
        _lock = threading.Lock()

        def predict(self, scenario):
            cls = type(self)
            with cls._lock:
                cls.in_flight += 1
                cls.peak_in_flight = max(cls.peak_in_flight, cls.in_flight)
            time.sleep(seconds)
            key = scenario.cache_key()
            with cls._lock:
                cls.in_flight -= 1
                cls.calls[key] = cls.calls.get(key, 0) + 1
            return PredictionResult(
                backend=type(self).name,
                scenario=scenario,
                total_seconds=float(scenario.num_nodes),
                phases={"map": 1.0},
                metadata={},
            )

    return SleepyBackend


def test_bench_cooperative_drain(tmp_path):
    """Four cooperative workers vs. one worker over the same sleepy grid."""
    points = 6 if _smoke_mode() else 24
    sleep_seconds = 0.02 if _smoke_mode() else 0.1
    workers = 4
    suite = ScenarioSuite.from_sweep(
        "fabric-drain", SMALL, num_nodes=list(range(2, 2 + points))
    )
    backend_cls = _sleepy_backend_class(sleep_seconds)
    backend_cls.name = "fabric-sleepy"
    _REGISTRY["fabric-sleepy"] = backend_cls
    try:
        solo_service = PredictionService(
            backends=["fabric-sleepy"], store=tmp_path / "solo-store"
        )
        started = time.perf_counter()
        solo = SweepScheduler(solo_service).run_cooperative(
            suite, ["fabric-sleepy"], worker_id="solo", lease_ttl=10.0
        )
        solo_seconds = time.perf_counter() - started
        assert solo.evaluated == points
        solo_calls = dict(backend_cls.calls)
        backend_cls.calls = {}
        backend_cls.peak_in_flight = 0

        fabric_store = tmp_path / "fabric-store"
        services = [
            PredictionService(backends=["fabric-sleepy"], store=fabric_store)
            for _ in range(workers)
        ]
        outcomes: dict[str, object] = {}
        errors: list[BaseException] = []

        def drain(worker_id: str, service: PredictionService) -> None:
            try:
                outcomes[worker_id] = SweepScheduler(service).run_cooperative(
                    suite,
                    ["fabric-sleepy"],
                    worker_id=worker_id,
                    lease_ttl=10.0,
                    poll_interval=0.02,
                    claim_limit=1,  # one scenario per slice so the load balances
                )
            except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(f"w{i}", service))
            for i, service in enumerate(services)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fabric_seconds = time.perf_counter() - started
        fabric_calls = dict(backend_cls.calls)
        fabric_peak = backend_cls.peak_in_flight
    finally:
        _REGISTRY.pop("fabric-sleepy", None)

    assert not errors
    speedup = solo_seconds / fabric_seconds if fabric_seconds > 0 else 0.0
    evaluated_per_worker = {
        worker_id: outcome.evaluated for worker_id, outcome in outcomes.items()
    }
    duplicates = sum(count - 1 for count in fabric_calls.values() if count > 1)
    record = {
        "bench": "cooperative_drain",
        "workers": workers,
        "points": points,
        "sleep_seconds": sleep_seconds,
        "solo_seconds": solo_seconds,
        "fabric_seconds": fabric_seconds,
        "speedup": speedup,
        "peak_in_flight": fabric_peak,
        "evaluated_per_worker": evaluated_per_worker,
        "duplicate_evaluations": duplicates,
    }
    print()
    _emit(record)
    # The fabric promise, counter-anchored: the grid was drained exactly once.
    assert sum(solo_calls.values()) == points
    assert sum(fabric_calls.values()) == points
    assert duplicates == 0
    assert sum(evaluated_per_worker.values()) == points
    for outcome in outcomes.values():
        assert all(value > 0 for value in outcome.result.series("fabric-sleepy"))
    # The fabric's parallelism, counted rather than timed: the four workers
    # did evaluate concurrently.
    assert fabric_peak >= 2, f"evaluations never overlapped ({speedup:.1f}x speedup)"


def _write_legacy_store(root, count: int, aged: int) -> PredictionResult:
    """Lay out ``count`` records the way the retired JSON engine wrote them.

    The first ``aged`` files (by path) get an mtime 1000 seconds back.
    """
    result = create_backend("herodotou").predict(SMALL)
    payload = result.to_dict()
    options_key = _canonical_options(None)
    past = time.time() - 1000.0
    paths = []
    for i in range(count):
        key = f"bench-point-{i:06d}"
        token = point_token(key, "herodotou", options_key)
        record = {
            "format": STORE_FORMAT_VERSION,
            "spec_version": SCENARIO_SPEC_VERSION,
            "backend": "herodotou",
            "backend_version": backend_version("herodotou"),
            "options": options_key,
            "key": key,
            "result": payload,
            "created": time.time(),
        }
        path = root / "records" / token[:2] / f"{token}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, sort_keys=True))
        paths.append(path)
    for path in sorted(paths)[:aged]:
        os.utime(path, (past, past))
    return result


def test_bench_store_migrate(tmp_path):
    """Migrate a legacy JSON store, probe it cold, and gc its aged half."""
    records = 1_000 if _smoke_mode() else 10_000
    probes = 200 if _smoke_mode() else 500
    aged = records // 2
    store_path = tmp_path / "legacy"
    started = time.perf_counter()
    expected = _write_legacy_store(store_path, records, aged)
    layout_seconds = time.perf_counter() - started

    started = time.perf_counter()
    stats = migrate_store(store_path)
    migrate_seconds = time.perf_counter() - started
    assert (stats.loaded, stats.stale, stats.corrupt) == (records, 0, 0)

    step = records // probes
    points = [
        (f"bench-point-{i * step:06d}", "herodotou", None) for i in range(probes)
    ]
    cold = open_store(store_path)  # a brand-new object: nothing indexed yet
    started = time.perf_counter()
    found = cold.get_many(points)
    probe_seconds = time.perf_counter() - started
    assert len(found) == probes
    assert all(result == expected for result in found.values())

    started = time.perf_counter()
    gc_stats = cold.gc(ttl=500.0)
    gc_seconds = time.perf_counter() - started
    assert gc_stats.expired == aged
    assert gc_stats.remaining == records - aged
    record = {
        "bench": "store_migrate",
        "records": records,
        "loaded": stats.loaded,
        "stale": stats.stale,
        "corrupt": stats.corrupt,
        "layout_seconds": layout_seconds,
        "migrate_seconds": migrate_seconds,
        "probes": probes,
        "probe_seconds": probe_seconds,
        "expired": gc_stats.expired,
        "gc_seconds": gc_seconds,
    }
    print()
    _emit(record)
