"""Load-generator bench for the prediction daemon (``BENCH_SERVE`` lines).

Boots an in-process daemon over real MVA backends and drives it with the
multi-client load generator the way a serving fleet would:

* a **sustained** phase — N concurrent clients hammering ``POST /predict``
  over a small scenario pool (so identical requests pile up in flight) with
  one client streaming a ``POST /sweep`` alongside — reporting sustained
  req/s and p50/p99 latency, and asserting the coalescing invariant: the
  number of *backend evaluations* equals the number of *unique points*, no
  matter how many requests asked for them;
* a **burst** phase against a deliberately tiny admission gate
  (``max_inflight=1``, ``queue_depth=0``) asserting the daemon answers 429
  backpressure instead of buffering unbounded work.  Repeats of a point
  already answered are served from memory on the event loop and never
  bounce; only first-time points (evaluations) compete for the one slot.

Each phase prints one machine-readable ``BENCH_SERVE {json}`` line; CI greps
them into the bench artifact in smoke mode (``BENCH_SMOKE=1`` shrinks the
request counts, not the semantics).
"""

from __future__ import annotations

import json
import os
import threading

from repro.api import PredictionService, Scenario, ScenarioSuite
from repro.serve import ServeConfig, daemon_in_thread
from repro.serve.loadgen import DaemonClient, run_predict_load
from repro.units import megabytes

BENCH_SEED = 2017

BASE = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=BENCH_SEED,
)

#: Backends served by the bench daemon (analytic — milliseconds per point).
BACKENDS = ["mva-forkjoin", "mva-tripathi"]


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def _emit(record: dict) -> None:
    print(f"BENCH_SERVE {json.dumps(record, sort_keys=True)}")


def _scenario_pool(size: int) -> list[Scenario]:
    return [BASE.with_updates(num_nodes=2 + index) for index in range(size)]


def test_bench_serve_sustained_load():
    """Mixed predict/sweep load: throughput, latency, zero duplicate work."""
    clients = 4
    requests_per_client = 10 if _smoke_mode() else 50
    pool = _scenario_pool(3)
    sweep_suite = ScenarioSuite.from_sweep(
        "bench-serve-sweep", BASE, num_nodes=[2, 3, 4, 5]
    )
    service = PredictionService(backends=BACKENDS)
    config = ServeConfig(port=0, max_inflight=clients + 1, queue_depth=64)
    with daemon_in_thread(service, config) as daemon:
        sweep_lines: list[dict] = []

        def sweep_client() -> None:
            client = DaemonClient(daemon.host, daemon.port)
            payload = {
                "suite": sweep_suite.to_dict(),
                "backends": ["mva-tripathi"],
            }
            sweep_lines.extend(client.stream_ndjson("/sweep", payload))

        streamer = threading.Thread(target=sweep_client, name="bench-sweep")
        streamer.start()
        report = run_predict_load(
            daemon.host,
            daemon.port,
            scenarios=[scenario.to_dict() for scenario in pool],
            backend="mva-forkjoin",
            clients=clients,
            requests_per_client=requests_per_client,
        )
        streamer.join(timeout=60.0)
        assert not streamer.is_alive()
        client = DaemonClient(daemon.host, daemon.port)
        health_status, health = client.get_json("/healthz")
    stats = service.stats()
    # Unique points: the predict pool (one backend) + the sweep grid (one
    # backend, sharing the num_nodes ∈ {2,3,4} scenarios' keys only across
    # identical backends — mva-tripathi ≠ mva-forkjoin, so they're disjoint).
    unique_points = len(pool) + len(sweep_suite.scenarios)
    record = {
        "bench": "serve_sustained_smoke" if _smoke_mode() else "serve_sustained",
        "clients": clients,
        **report.to_dict(),
        "sweep_points": sum(
            1 for line in sweep_lines if line["event"] == "point"
        ),
        "unique_points": unique_points,
        "evaluations": stats.evaluations,
        "coalesced": stats.coalesced,
        "memory_hits": stats.memory_hits,
    }
    _emit(record)
    # The daemon survived the run and answered everything.
    assert health_status == 200
    assert health["status"] == "ok"
    assert report.failed == 0
    assert report.rejected == 0
    assert report.ok == clients * requests_per_client
    assert report.req_per_s > 0
    assert report.latency_ms(50.0) <= report.latency_ms(99.0)
    # Streaming sweep delivered the whole grid.
    assert [line["event"] for line in sweep_lines].count("point") == len(
        sweep_suite.scenarios
    )
    # The acceptance invariant: every unique (scenario, backend) point was
    # evaluated exactly once; every further request for it was answered by
    # the in-flight registry or the cache.
    assert stats.evaluations == unique_points
    total_answers = report.ok + record["sweep_points"]
    assert stats.coalesced + stats.memory_hits == total_answers - unique_points


def test_bench_serve_backpressure_burst():
    """A burst beyond the admission bound is rejected with 429, not buffered."""
    clients = 6
    requests_per_client = 3 if _smoke_mode() else 10
    service = PredictionService(backends=["simulator"])
    # One slot, no queue: with 6 clients bursting first-time simulator
    # evaluations (tens of ms each), most of them must bounce; a repeat of
    # an answered point is a memory hit and is answered without a slot.
    config = ServeConfig(port=0, max_inflight=1, queue_depth=0, retry_after=0.05)
    with daemon_in_thread(service, config) as daemon:
        report = run_predict_load(
            daemon.host,
            daemon.port,
            scenarios=[
                scenario.to_dict() for scenario in _scenario_pool(clients)
            ],
            backend="simulator",
            clients=clients,
            requests_per_client=requests_per_client,
        )
    record = {
        "bench": "serve_burst_smoke" if _smoke_mode() else "serve_burst",
        "max_inflight": 1,
        "queue_depth": 0,
        **report.to_dict(),
    }
    _emit(record)
    assert report.failed == 0
    assert report.rejected > 0
    assert report.ok > 0
    assert report.ok + report.rejected == clients * requests_per_client
