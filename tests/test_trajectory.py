"""One MVA fixed-point trajectory per (dispatch, model input).

A2–A5 of the modified MVA never read the estimator, so the fork/join and
Tripathi solves of one model input share a :class:`Trajectory` and each
applies only its own estimate and A6 test.  These tests count the
overlap-MVA solves (the A4 step, one per iteration of a trajectory) and
compare results bit for bit with solves that share nothing.
"""

from __future__ import annotations

import threading
import weakref

import pytest

from repro.api import (
    PredictionService,
    Scenario,
    ScenarioSuite,
    SweepScheduler,
    create_backend,
)
from repro.api.dashboard import paper_grid
from repro.api.scenario import KEPT_TRAJECTORIES, ScenarioResolver
from repro.core import (
    EstimatorKind,
    Hadoop2PerformanceModel,
    ModifiedMVASolver,
    TaskClass,
    mva_solver,
)
from repro.exceptions import ModelError
from repro.units import megabytes

MVA_PAIR = ("mva-forkjoin", "mva-tripathi")

#: A paper-grid point whose estimators converge after different iterations
#: (fork/join 10, Tripathi 11).
UNEVEN = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(5 * 1024),
    num_nodes=4,
    num_jobs=3,
    num_reduces=4,
)


@pytest.fixture
def solves(monkeypatch) -> list[int]:
    """Grows by one entry per overlap-MVA solve, from any thread."""
    calls: list[int] = []
    lock = threading.Lock()
    solve = mva_solver.solve_mva_with_overlaps

    def counted(*args, **kwargs):
        with lock:
            calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mva_solver, "solve_mva_with_overlaps", counted)
    return calls


def longest(row) -> int:
    return max(row[name].metadata["iterations"] for name in MVA_PAIR)


@pytest.mark.parametrize("execution", ["serial", "thread"])
def test_suite_solves_each_iteration_once(solves, execution):
    grid = paper_grid()
    service = PredictionService(backends=MVA_PAIR, execution=execution, max_workers=2)
    result = service.evaluate_suite(grid, MVA_PAIR)
    shared = sum(longest(row) for row in result.rows)
    separate = sum(row[name].metadata["iterations"] for row in result.rows for name in MVA_PAIR)
    assert len(solves) == shared
    assert shared < separate


@pytest.mark.parametrize("execution", ["serial", "thread"])
def test_evaluate_many_solves_each_iteration_once(solves, execution):
    service = PredictionService(backends=MVA_PAIR, execution=execution, max_workers=2)
    row = service.evaluate_many(UNEVEN, MVA_PAIR)
    assert len(solves) == longest(row) == 11


def paper_cells(solves) -> dict:
    """``evaluate_suite``'s MVA-pair cells of the paper grid; resets ``solves``."""
    result = PredictionService(backends=MVA_PAIR).evaluate_suite(paper_grid(), MVA_PAIR)
    assert len(solves) == sum(longest(row) for row in result.rows) == 95
    solves.clear()
    return {(index, name): row[name] for index, row in enumerate(result.rows) for name in MVA_PAIR}


def test_streaming_sweep_solves_each_iteration_once(solves):
    expected = paper_cells(solves)
    scheduler = SweepScheduler(PredictionService(backends=MVA_PAIR))
    stream = scheduler.iter_results(paper_grid(), MVA_PAIR)
    cells = {(index, name): result for index, name, result in stream}
    assert len(solves) == 95
    assert cells == expected


def test_cooperative_sweep_solves_each_iteration_once(solves, tmp_path):
    expected = paper_cells(solves)
    scheduler = SweepScheduler(PredictionService(backends=MVA_PAIR, store=tmp_path))
    outcome = scheduler.run_cooperative(paper_grid(), MVA_PAIR, worker_id="solo")
    assert len(solves) == 95
    assert outcome.evaluated == len(expected)
    rows = enumerate(outcome.result.rows)
    assert {(index, name): row[name] for index, row in rows for name in MVA_PAIR} == expected


def test_a_stalled_reader_keeps_its_trajectory(solves, monkeypatch):
    """A thread held before it reads scenario 0's trajectory still finds it.

    Thread mode with two workers: the first caller for scenario 0 waits
    until the other worker has read five more trajectories, more than the
    resolver keeps.  The trajectory the other estimator of scenario 0
    already extended must still be there, not solved again.
    """
    expected = paper_cells(solves)
    grid = paper_grid()
    read = ScenarioResolver.mva_trajectory
    lock = threading.Lock()
    held: list[int] = []
    others: set[int] = set()
    resumed = threading.Event()

    def stalling(self, scenario):
        with lock:
            hold = scenario is grid.scenarios[0] and not held
            if hold:
                held.append(threading.get_ident())
        if hold:
            assert resumed.wait(timeout=60.0)
        trajectory = read(self, scenario)
        with lock:
            if held and threading.get_ident() != held[0] and scenario is not grid.scenarios[0]:
                others.add(id(scenario))
                if len(others) >= 5:
                    resumed.set()
        return trajectory

    monkeypatch.setattr(ScenarioResolver, "mva_trajectory", stalling)
    service = PredictionService(backends=MVA_PAIR, execution="thread", max_workers=2)
    result = service.evaluate_suite(grid, MVA_PAIR)
    assert resumed.is_set()
    assert len(solves) == 95
    rows = enumerate(result.rows)
    assert {(index, name): row[name] for index, row in rows for name in MVA_PAIR} == expected


def test_a_dispatch_keeps_at_most_the_bound(monkeypatch):
    """Live trajectories, counted after every solve of a 100-scenario dispatch."""
    live: weakref.WeakSet = weakref.WeakSet()
    created: list[int] = []
    init = mva_solver.Trajectory.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)
        created.append(1)

    peak = [0]
    solve = ModifiedMVASolver.solve

    def observed(self, *args, **kwargs):
        trace = solve(self, *args, **kwargs)
        peak[0] = max(peak[0], len(live))
        return trace

    monkeypatch.setattr(mva_solver.Trajectory, "__init__", tracked)
    monkeypatch.setattr(ModifiedMVASolver, "solve", observed)
    base = Scenario(input_size_bytes=megabytes(128), num_nodes=2, num_reduces=2, repetitions=1)
    scenarios = tuple(
        base.with_updates(num_nodes=nodes, input_size_bytes=megabytes(128 * blocks))
        for nodes in range(2, 12)
        for blocks in range(1, 11)
    )
    service = PredictionService(backends=MVA_PAIR, execution="serial")
    service.evaluate_suite(ScenarioSuite("retention", scenarios), MVA_PAIR)
    assert len(created) == len(scenarios) >= 100
    assert peak[0] == KEPT_TRAJECTORIES


def test_nothing_crosses_a_dispatch(solves):
    service = PredictionService(backends=MVA_PAIR, execution="serial", cache=False)
    suite = ScenarioSuite("twice", (UNEVEN, UNEVEN.with_updates(num_nodes=2)))
    service.evaluate_suite(suite, MVA_PAIR)
    first = len(solves)
    service.evaluate_suite(suite, MVA_PAIR)
    assert first > 0
    assert len(solves) == 2 * first


def test_current_is_fresh_outside_a_dispatch():
    assert ScenarioResolver.current() is not ScenarioResolver.current()
    with ScenarioResolver.dispatch() as resolver:
        assert ScenarioResolver.current() is resolver
        assert resolver.mva_trajectory(UNEVEN) is resolver.mva_trajectory(
            UNEVEN.with_updates(seed=7, repetitions=1)
        )
    assert ScenarioResolver.current() is not resolver


def test_predict_all_shares_one_trajectory(solves):
    model_input = UNEVEN.model_input()
    model = Hadoop2PerformanceModel(model_input)
    together = model.predict_all()
    shared_solves = len(solves)
    apart = {}
    for kind in (EstimatorKind.FORK_JOIN, EstimatorKind.TRIPATHI):
        alone = Hadoop2PerformanceModel(model_input)
        apart[kind] = alone.predict(kind)
        assert model.trace(kind).iterations == alone.trace(kind).iterations
    assert together == apart
    assert shared_solves == max(result.iterations for result in apart.values()) == 11
    assert len(solves) == shared_solves + sum(result.iterations for result in apart.values())


def test_a_foreign_trajectory_is_refused():
    model = Hadoop2PerformanceModel(UNEVEN.model_input())
    model.predict(trajectory=model.trajectory())  # its own is accepted
    foreign = (
        Hadoop2PerformanceModel(UNEVEN.with_updates(num_nodes=2).model_input()).trajectory(),
        Hadoop2PerformanceModel(model.model_input, balanced_tree=False).trajectory(),
        model.trajectory({TaskClass.MAP: 1.0}),
    )
    for trajectory in foreign:
        with pytest.raises(ModelError):
            model.predict(trajectory=trajectory)


def test_backend_predict_matches_a_private_solve():
    """The backend's shared trajectory gives what a lone model computes."""
    for name, kind in zip(MVA_PAIR, (EstimatorKind.FORK_JOIN, EstimatorKind.TRIPATHI)):
        result = create_backend(name).predict(UNEVEN)
        alone = Hadoop2PerformanceModel(UNEVEN.model_input()).predict(kind)
        assert result.total_seconds == alone.job_response_time


def test_a_failed_step_is_recomputed_not_kept(monkeypatch):
    model = Hadoop2PerformanceModel(UNEVEN.model_input())
    expected = model.predict_all()
    trajectory = model.trajectory()
    solve = mva_solver.solve_mva_with_overlaps
    calls = []

    def fails_on_the_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise MemoryError("transient")
        return solve(*args, **kwargs)

    monkeypatch.setattr(mva_solver, "solve_mva_with_overlaps", fails_on_the_third)
    with pytest.raises(MemoryError):
        model.predict(EstimatorKind.FORK_JOIN, trajectory=trajectory)
    for kind in (EstimatorKind.FORK_JOIN, EstimatorKind.TRIPATHI):
        assert model.predict(kind, trajectory=trajectory) == expected[kind]
