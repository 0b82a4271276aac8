"""Perf-regression bench for the simulator hot path and the overlap MVA.

Unlike the figure benches (which check *what* the simulator computes), this
bench tracks *how fast* it computes it: it times single-job simulator runs at
8/16/32 nodes plus one overlap-MVA model solve and prints one machine-readable
``BENCH_SCALING {json}`` line per scenario, so the perf trajectory can be
compared across PRs by grepping CI logs.

It also tracks the prediction-service scaling path: a 32-node multi-scenario
suite under thread vs. process execution (the speedup line the ROADMAP's
process-pool item asks for), a store-backed cold/warm restart (the warm run
must perform zero backend evaluations), an iterative-ML comparison across
all six backends, and the batched-sweep engine: per-scenario vs. one-call
``predict_batch`` throughput over a dense static-backend grid, and
scheduler-driven cold vs. warm sweep throughput.

Set ``BENCH_SMOKE=1`` to run only the smallest scenario (used by CI on every
push, where timing noise makes the larger scenarios uninformative).

The simulator scenarios assert nothing about wall-clock time, which flakes
under load: each runs twice with the same seed and must give an identical
makespan and task count.  ``elapsed_seconds`` stays in the ``BENCH_SCALING``
line as the trend to watch.  Reference points (2-vCPU x86 host): the
pre-incremental engine needed ~0.06 s / ~0.70 s / ~6.6 s for the
8/16/32-node scenarios; the rate-class engine runs the 32-node one in
~0.3 s.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from repro.api import PredictionService, Scenario, ScenarioSuite, SweepScheduler
from repro.core import EstimatorKind, Hadoop2PerformanceModel
from repro.units import gigabytes, megabytes
from repro.workloads import (
    model_input_from_profile,
    paper_cluster,
    paper_scheduler,
    wordcount_profile,
)

BENCH_SEED = 2017

#: (label, num_nodes, input GiB, reduces).
SCENARIOS = [
    ("sim_8n_4g", 8, 4, 8),
    ("sim_16n_16g", 16, 16, 16),
    ("sim_32n_64g", 32, 64, 32),
]


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def _emit(record: dict) -> None:
    print(f"BENCH_SCALING {json.dumps(record, sort_keys=True)}")


def time_simulator_run(num_nodes: int, input_gb: int, num_reduces: int) -> dict:
    """Run one single-job simulation and return its timing record."""
    from repro.hadoop import ClusterSimulator

    profile = wordcount_profile(duration_cv=0.3)
    simulator = ClusterSimulator(
        paper_cluster(num_nodes), paper_scheduler(), seed=BENCH_SEED
    )
    job_config = profile.job_config(
        input_size_bytes=gigabytes(input_gb),
        block_size_bytes=megabytes(128),
        num_reduces=num_reduces,
    )
    simulator.submit_job(job_config, profile.simulator_profile())
    started = time.perf_counter()
    result = simulator.run()
    elapsed = time.perf_counter() - started
    return {
        "num_nodes": num_nodes,
        "input_gb": input_gb,
        "elapsed_seconds": elapsed,
        "makespan": result.makespan,
        "tasks": sum(len(trace.tasks) for trace in result.job_traces),
    }


def time_overlap_mva_solve() -> dict:
    """Solve the analytic model once (overlap MVA inside) and time it."""
    profile = wordcount_profile()
    cluster = paper_cluster(8)
    job_config = profile.job_config(gigabytes(8), megabytes(128), 8)
    model_input = model_input_from_profile(profile, cluster, job_config, num_jobs=2)
    started = time.perf_counter()
    prediction = Hadoop2PerformanceModel(model_input).predict(EstimatorKind.FORK_JOIN)
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "iterations": prediction.iterations,
        "estimate": prediction.job_response_time,
    }


def test_bench_simulator_scaling():
    scenarios = SCENARIOS[:1] if _smoke_mode() else SCENARIOS
    print()
    for label, num_nodes, input_gb, num_reduces in scenarios:
        record = time_simulator_run(num_nodes, input_gb, num_reduces)
        record["bench"] = label
        _emit(record)
        assert record["makespan"] > 0
        rerun = time_simulator_run(num_nodes, input_gb, num_reduces)
        assert (rerun["makespan"], rerun["tasks"]) == (record["makespan"], record["tasks"]), (
            f"{label}: a rerun with the same seed gave a different schedule"
        )


def _service_suite() -> ScenarioSuite:
    """The multi-scenario suite behind the service-layer benches.

    Smoke mode shrinks it to 4 nodes so CI stays fast; the full bench is the
    32-node sweep the ROADMAP's scaling item targets.
    """
    if _smoke_mode():
        base = Scenario(
            workload="wordcount",
            num_nodes=4,
            input_size_bytes=megabytes(256),
            num_reduces=4,
            repetitions=1,
            seed=BENCH_SEED,
        )
        return ScenarioSuite.from_sweep(
            "bench-suite", base, input_size_bytes=[megabytes(256), megabytes(512)]
        )
    base = Scenario(
        workload="wordcount",
        num_nodes=32,
        input_size_bytes=gigabytes(8),
        num_reduces=32,
        repetitions=1,
        seed=BENCH_SEED,
    )
    return ScenarioSuite.from_sweep(
        "bench-suite",
        base,
        input_size_bytes=[gigabytes(8), gigabytes(16), gigabytes(24), gigabytes(32)],
    )


def _time_suite(
    suite: ScenarioSuite, **service_kwargs
) -> tuple[float, list[float], PredictionService]:
    service = PredictionService(backends=["simulator"], **service_kwargs)
    started = time.perf_counter()
    result = service.evaluate_suite(suite, ["simulator"])
    elapsed = time.perf_counter() - started
    return elapsed, result.series("simulator"), service


def test_bench_suite_execution_modes():
    """Thread vs. process fan-out over the multi-scenario suite."""
    suite = _service_suite()
    thread_seconds, thread_series, _ = _time_suite(suite, execution="thread")
    process_seconds, process_series, _ = _time_suite(suite, execution="process")
    record = {
        "bench": "suite_exec_32n" if not _smoke_mode() else "suite_exec_smoke",
        "scenarios": len(suite),
        "num_nodes": suite.scenarios[0].num_nodes,
        "thread_seconds": thread_seconds,
        "process_seconds": process_seconds,
        "speedup": thread_seconds / process_seconds if process_seconds > 0 else 0.0,
        "cpus": os.cpu_count(),
    }
    print()
    _emit(record)
    # Determinism across executors is the hard invariant; the speedup is
    # hardware-dependent, so it is asserted only where it can exist.
    assert process_series == thread_series
    if not _smoke_mode() and (os.cpu_count() or 1) >= 4:
        assert process_seconds < thread_seconds, (
            f"process fan-out ({process_seconds:.2f}s) should beat the GIL-bound "
            f"thread pool ({thread_seconds:.2f}s) on {os.cpu_count()} cores"
        )


def test_bench_store_warm_restart():
    """Store-backed restart: the warm run performs zero backend evaluations."""
    suite = _service_suite()
    with tempfile.TemporaryDirectory() as store_path:
        cold_seconds, cold_series, cold_service = _time_suite(suite, store=store_path)
        warm_seconds, warm_series, warm_service = _time_suite(suite, store=store_path)
        record = {
            "bench": "store_warm_restart",
            "scenarios": len(suite),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "cold_evaluations": cold_service.stats().evaluations,
            "warm_evaluations": warm_service.stats().evaluations,
            "store_records": len(cold_service.store),
        }
    print()
    _emit(record)
    assert warm_series == cold_series
    assert record["cold_evaluations"] == len(suite)
    assert record["warm_evaluations"] == 0, "warm store run re-evaluated a backend"


def test_bench_iterative_compare():
    """The iterative/ML workload through all six backends (compare-style)."""
    scenario = Scenario(
        workload="iterative-ml",
        num_nodes=4 if _smoke_mode() else 8,
        input_size_bytes=megabytes(512) if _smoke_mode() else gigabytes(4),
        num_reduces=4,
        repetitions=1,
        seed=BENCH_SEED,
    )
    service = PredictionService()
    started = time.perf_counter()
    comparison = service.compare(scenario)
    elapsed = time.perf_counter() - started
    record = {
        "bench": "iterative_ml_compare",
        "num_nodes": scenario.num_nodes,
        "elapsed_seconds": elapsed,
        "totals": {
            name: result.total_seconds
            for name, result in sorted(comparison.results.items())
        },
    }
    print()
    _emit(record)
    assert all(total > 0 for total in record["totals"].values())
    assert len(record["totals"]) == 6


#: The batch-capable closed-form backends of the batched-sweep benches.
STATIC_BACKENDS = ["aria", "herodotou"]


def _static_sweep_suite() -> ScenarioSuite:
    """Dense static-backend grid: ≥200 scenarios in full mode, 6 in smoke."""
    base = Scenario(workload="wordcount", num_reduces=16, repetitions=1, seed=BENCH_SEED)
    if _smoke_mode():
        return ScenarioSuite.from_sweep(
            "batched-sweep",
            base,
            num_nodes=[4, 8],
            input_size_bytes=[gigabytes(2), gigabytes(4), gigabytes(6)],
        )
    return ScenarioSuite.from_sweep(
        "batched-sweep",
        base,
        num_nodes=[4, 6, 8, 12, 16, 24, 32, 48],
        input_size_bytes=[gigabytes(g) for g in range(2, 28)],
    )


def test_bench_batched_sweep():
    """Per-scenario vs. batched evaluation of the static-backend grid.

    The invariants asserted here are *deterministic work counters*, not
    wall-clock: every point evaluates exactly once on each path, the batched
    path dispatches exactly one ``predict_batch`` per backend and routes
    every point through it, and the two paths agree numerically.  The
    wall-clock speedup is reported in the ``BENCH_SCALING`` line for trend
    tracking but deliberately not asserted — under the full suite run the
    scalar and batched timings share the machine with whatever pytest
    scheduled alongside, and a load-dependent ratio assertion flakes (the
    old ``speedup >= 5.0`` floor failed exactly that way: full-run only,
    never in isolation).
    """
    suite = _static_sweep_suite()
    scalar_service = PredictionService(backends=STATIC_BACKENDS, batch=False)
    started = time.perf_counter()
    scalar = scalar_service.evaluate_suite(suite, STATIC_BACKENDS)
    scalar_seconds = time.perf_counter() - started
    started = time.perf_counter()
    batched_service = PredictionService(backends=STATIC_BACKENDS)
    batched = batched_service.evaluate_suite(suite, STATIC_BACKENDS)
    batched_seconds = time.perf_counter() - started
    speedup = scalar_seconds / batched_seconds if batched_seconds > 0 else 0.0
    points = len(suite) * len(STATIC_BACKENDS)
    batched_stats = batched_service.stats()
    record = {
        "bench": "batched_sweep",
        "scenarios": len(suite),
        "points": points,
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": speedup,  # reported, not asserted: load-dependent
        "scalar_evaluations": scalar_service.stats().evaluations,
        "batched_evaluations": batched_stats.evaluations,
        "batch_calls": batched_stats.batch_calls,
        "batch_points": batched_stats.batch_points,
    }
    print()
    _emit(record)
    for name in STATIC_BACKENDS:
        assert batched.series(name) == scalar.series(name)
    # The work-shape invariants the wall-clock ratio was a proxy for:
    # both paths evaluate each point exactly once, and the batched path
    # really is batched — one dispatch per backend covering every point.
    assert record["scalar_evaluations"] == points
    assert record["batched_evaluations"] == points
    assert record["batch_calls"] == len(STATIC_BACKENDS)
    assert record["batch_points"] == points
    assert batched_stats.batch_fallbacks == 0


def test_bench_sweep_scheduler():
    """Scheduler-driven sweep: cold store vs. warm (resumed) re-run."""
    suite = _static_sweep_suite()
    if not _smoke_mode():
        # The cold-vs-warm contrast doesn't need the full 200-point grid.
        suite = ScenarioSuite("sweep-sched", suite.scenarios[::4])
    with tempfile.TemporaryDirectory() as store_path:
        cold_scheduler = SweepScheduler(
            PredictionService(backends=STATIC_BACKENDS, store=store_path)
        )
        started = time.perf_counter()
        cold = cold_scheduler.run(suite, STATIC_BACKENDS)
        cold_seconds = time.perf_counter() - started
        warm_scheduler = SweepScheduler(
            PredictionService(backends=STATIC_BACKENDS, store=store_path)
        )
        started = time.perf_counter()
        warm = warm_scheduler.run(suite, STATIC_BACKENDS)
        warm_seconds = time.perf_counter() - started
    points = len(suite) * len(STATIC_BACKENDS)
    record = {
        "bench": "sweep_scheduler",
        "points": points,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_missing": len(cold.plan.missing),
        "warm_missing": len(warm.plan.missing),
        "cold_evaluations": cold.evaluated_points,
        "warm_evaluations": warm.evaluated_points,
        "cold_points_per_second": points / cold_seconds if cold_seconds > 0 else 0.0,
        "warm_points_per_second": points / warm_seconds if warm_seconds > 0 else 0.0,
    }
    print()
    _emit(record)
    assert record["cold_missing"] == points
    assert record["warm_missing"] == 0, "warm plan still reports missing points"
    assert record["warm_evaluations"] == 0, "warm scheduler re-evaluated a point"
    assert warm.result.series("herodotou") == cold.result.series("herodotou")


def test_bench_faulted_sweep():
    """Sweep under 10% injected transient faults vs. the fault-free run.

    The resilience-layer headline: with seeded fault injection at a 10%
    transient rate, the retried sweep must finish complete, bit-identical to
    the clean run, with zero duplicate evaluations (each point's backend
    succeeds exactly once) and zero duplicate store records — and the retry
    work must stay bounded: every point rolls for a transient once, plus
    once more per injected fault (a retry storm would roll far more).  The
    wall-clock overhead is reported, not asserted.
    """
    from repro.api import RetryPolicy, open_store
    from repro.testing import FaultInjector, FaultSpec, inject_backend_faults

    backends = ["aria", "herodotou"]
    node_counts = list(range(2, 10)) if _smoke_mode() else list(range(2, 34))
    suite = ScenarioSuite.from_sweep(
        "faulted-sweep",
        Scenario(
            workload="wordcount",
            input_size_bytes=megabytes(512),
            num_reduces=8,
            repetitions=1,
            seed=BENCH_SEED,
        ),
        num_nodes=node_counts,
    )
    points = len(suite) * len(backends)

    fault_rate = 0.10
    spec = FaultSpec(
        transient_rate=fault_rate,
        latency_rate=0.05,
        latency_seconds=0.001,
        seed=BENCH_SEED,
    )
    injector = FaultInjector(spec)
    with tempfile.TemporaryDirectory() as clean_store, tempfile.TemporaryDirectory() as store_path:
        # The clean run persists too, so the overhead ratio isolates the cost
        # of injected faults + retries rather than store writes.
        started = time.perf_counter()
        clean = PredictionService(
            backends=backends, store=clean_store, batch=False
        ).evaluate_suite(suite, backends)
        clean_seconds = time.perf_counter() - started

        with inject_backend_faults("aria", injector), inject_backend_faults(
            "herodotou", injector
        ):
            service = PredictionService(
                backends=backends,
                retry=RetryPolicy(
                    max_attempts=6, base_delay=0.001, max_delay=0.01, seed=BENCH_SEED
                ),
                store=store_path,
                batch=False,  # per-point injection exercises the retry loop
            )
            started = time.perf_counter()
            faulted = service.evaluate_suite(suite, backends)
            faulted_seconds = time.perf_counter() - started
        stored_records = open_store(store_path).refresh().loaded

    stats = service.stats()
    record = {
        "bench": "faulted_sweep",
        "points": points,
        "fault_rate": fault_rate,
        "injected_transients": injector.injected.get("transient", 0),
        "transient_rolls": injector.rolls("transient"),
        "retries": stats.retries,
        "failures": stats.failures,
        "duplicate_evaluations": injector.duplicate_evaluations(),
        "duplicate_records": stored_records - points,
        "clean_seconds": clean_seconds,
        "faulted_seconds": faulted_seconds,
        "overhead": faulted_seconds / clean_seconds if clean_seconds > 0 else 0.0,
    }
    print()
    _emit(record)
    assert faulted.complete
    for name in backends:
        assert faulted.series(name) == clean.series(name), (
            f"{name}: faulted sweep diverged from the fault-free run"
        )
    assert record["injected_transients"] > 0
    assert record["retries"] == record["injected_transients"]
    assert record["failures"] == 0
    assert record["duplicate_evaluations"] == 0, "a point was evaluated twice"
    assert record["duplicate_records"] == 0, "the store holds duplicate records"
    # Bounded retry work, counted rather than timed: each point's first
    # attempt rolls once, and only an injected fault earns another attempt.
    assert record["transient_rolls"] == points + record["injected_transients"], (
        "a point was attempted more often than its injected faults allow"
    )


def test_bench_overlap_mva_solve():
    record = time_overlap_mva_solve()
    record["bench"] = "overlap_mva_8n_2j"
    print()
    _emit(record)
    assert record["estimate"] > 0
    # One full A1-A6 solve (tens of vectorised MVA fixed points) is
    # interactive-speed; anything past a second means the solver loop
    # reverted to per-element Python work.
    assert record["elapsed_seconds"] < 1.0
