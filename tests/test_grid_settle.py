"""Every grid entry point answers and counts each cell once.

``run`` (``repro sweep``), a drained ``iter_results`` (``POST /sweep``), a
one-worker ``run_cooperative`` (``repro sweep --worker-id``) and
``run_dashboard`` feed their cells to one settle step.  Over the same grid
and store they give the same rows and the same counter deltas, and a
repeated cell counts once as ``coalesced``, never as a memory or store hit.
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    PredictionService,
    Scenario,
    ScenarioSuite,
    ServiceStats,
    SweepScheduler,
)
from repro.api.backends import _REGISTRY
from repro.api.dashboard import render_jsonl, run_dashboard
from repro.api.results import PredictionResult
from repro.units import megabytes

#: Two batch-capable backends and one on the per-point path.
NAMES = ("aria", "herodotou", "mva-forkjoin")
SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=11,
)
POOL = [SMALL.with_updates(num_nodes=nodes) for nodes in range(2, 8)]
ENTRY_POINTS = ("run", "iter_results", "run_cooperative", "run_dashboard")


def _service(path, seeded, cache: bool = True, names=NAMES) -> PredictionService:
    """A fresh service over a store already holding ``seeded`` scenarios."""
    if seeded:
        PredictionService(backends=names, store=path).evaluate_suite(
            ScenarioSuite("seed", seeded), names
        )
    return PredictionService(backends=names, store=path, cache=cache)


def _rows(entry: str, suite: ScenarioSuite, service: PredictionService) -> list[dict]:
    scheduler = SweepScheduler(service)
    if entry == "run":
        rows = scheduler.run(suite, NAMES).result.rows
    elif entry == "iter_results":
        rows = [{} for _ in suite.scenarios]
        for index, name, result in scheduler.iter_results(suite, NAMES):
            rows[index][name] = result
    elif entry == "run_cooperative":
        rows = scheduler.run_cooperative(suite, NAMES, worker_id="solo").result.rows
    else:
        dashboard = run_dashboard(suite, backends=NAMES, baseline="aria", service=service)
        rows = dashboard.outcome.result.rows
    return [{name: result.to_dict() for name, result in row.items()} for row in rows]


def _provenance(stats: ServiceStats) -> ServiceStats:
    """The counters of where answers came from.

    ``batch_calls`` and ``batch_points`` count the dispatch shape, which a
    sliced entry point changes by design, so they are left out.
    """
    return replace(stats, batch_calls=0, batch_points=0)


class TestOneSettleStep:
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(
        picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=8),
        seeded=st.sets(st.integers(0, len(POOL) - 1)),
        cache=st.booleans(),
    )
    def test_every_entry_point_gives_the_same_rows_and_counters(self, picks, seeded, cache):
        suite = ScenarioSuite("grid", [POOL[i] for i in picks])
        cells = len(picks) * len(NAMES)
        unique = len(set(picks)) * len(NAMES)
        stored = len(set(picks) & seeded) * len(NAMES)
        expected = ServiceStats(
            store_hits=stored, evaluations=unique - stored, coalesced=cells - unique
        )
        seen = {}
        for entry in ENTRY_POINTS:
            with tempfile.TemporaryDirectory() as tmp:
                service = _service(f"{tmp}/store", [POOL[i] for i in sorted(seeded)], cache)
                before = service.stats()
                rows = _rows(entry, suite, service)
                seen[entry] = (rows, _provenance(service.stats().delta(before)))
        assert seen["run"][1] == expected
        assert all(seen[entry] == seen["run"] for entry in ENTRY_POINTS)
        # A store-only dashboard over a fully seeded store reports the same
        # grid, evaluating nothing and counting each repeat once.
        evaluated = run_dashboard(suite, backends=NAMES, baseline="aria")
        with tempfile.TemporaryDirectory() as tmp:
            service = _service(f"{tmp}/store", [POOL[i] for i in sorted(set(picks))], cache)
            before = service.stats()
            replayed = run_dashboard(
                suite, backends=NAMES, baseline="aria", service=service, evaluate=False
            )
            stats = _provenance(service.stats().delta(before))
        assert stats == ServiceStats(store_hits=unique, coalesced=cells - unique)
        assert render_jsonl(replayed.report) == render_jsonl(evaluated.report)


@pytest.fixture
def cursed_backend():
    """A counting stub backend whose 3-node scenario always fails."""

    class CursedBackend:
        calls: list[int] = []

        def predict(self, scenario):
            type(self).calls.append(scenario.num_nodes)
            if scenario.num_nodes == 3:
                raise ValueError("induced terminal failure")
            return PredictionResult(
                backend=type(self).name,
                scenario=scenario,
                total_seconds=float(scenario.num_nodes),
                phases={"map": 1.0},
            )

    CursedBackend.name = "settle-cursed-stub"
    _REGISTRY[CursedBackend.name] = CursedBackend
    try:
        yield CursedBackend
    finally:
        _REGISTRY.pop(CursedBackend.name, None)


class TestCooperativeSettlesOnce:
    """A cooperative worker's outcome is the cells it settled, with no replay."""

    #: Five scenarios, two of them repeated: 7 cells per backend.
    GRID = ScenarioSuite("coop", [*POOL[:5], POOL[0], POOL[3]])

    @pytest.mark.parametrize("on_error", ["record", "skip"])
    def test_a_terminally_failing_point_is_predicted_once(self, tmp_path, cursed_backend, on_error):
        name = cursed_backend.name
        service = _service(tmp_path / "store", [], names=[name])
        outcome = SweepScheduler(service).run_cooperative(
            self.GRID, [name], worker_id="solo", on_error=on_error
        )
        assert cursed_backend.calls.count(3) == 1
        assert service.stats().failures == 1
        assert (outcome.evaluated, outcome.failed, outcome.claimed) == (4, 1, 5)
        skipped = sum(name not in row for row in outcome.result.rows)
        assert skipped == (1 if on_error == "skip" else 0)

    def test_a_cold_worker_counts_no_memory_hit(self, tmp_path):
        service = _service(tmp_path / "store", [])
        outcome = SweepScheduler(service).run_cooperative(self.GRID, NAMES, worker_id="solo")
        assert outcome.stats.memory_hits == outcome.stats.store_hits == 0
        assert outcome.stats.evaluations == outcome.evaluated == 5 * len(NAMES)
        assert outcome.stats.coalesced == 2 * len(NAMES)

    def test_each_worker_settles_every_cell_once(self, tmp_path):
        store_path = tmp_path / "store"
        outcomes = {}
        errors: list[Exception] = []

        def drain(worker_id: str, service: PredictionService) -> None:
            try:
                outcomes[worker_id] = SweepScheduler(service).run_cooperative(
                    self.GRID,
                    NAMES,
                    worker_id=worker_id,
                    lease_ttl=30.0,
                    poll_interval=0.02,
                    claim_limit=1,
                )
            except Exception as exc:  # surfaced through the list
                errors.append(exc)

        services = {f"w{i}": _service(store_path, []) for i in range(2)}
        threads = [threading.Thread(target=drain, args=item) for item in services.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors
        cells = len(self.GRID.scenarios) * len(NAMES)
        for outcome in outcomes.values():
            stats = outcome.stats
            answered = stats.memory_hits + stats.store_hits + stats.evaluations
            assert answered + stats.coalesced == cells
            assert outcome.result.complete
        assert sum(outcome.evaluated for outcome in outcomes.values()) == 5 * len(NAMES)
