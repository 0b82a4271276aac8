"""Capacity-planner bench (``BENCH_PLAN`` lines).

Measures what the coarse-to-fine search buys over exhaustive evaluation and
proves the resumability contract, as machine-readable JSON lines:

* **evaluations-to-optimum**: probes the planner spends vs the full grid
  size (the saving grows with the grid);
* **optimum match**: the planner's winner equals the true feasible optimum
  from an exhaustive evaluation of the same grid;
* **warm resume**: re-planning against the warmed result store performs
  zero live evaluations and reproduces the result section bit-identically;
* **wall time** for the cold search.

Each record prints as ``BENCH_PLAN {json}``; CI greps the lines into the
bench artifact in smoke mode (``BENCH_SMOKE=1`` drops the largest grid and
shrinks the input, not the semantics).

Ordering matters inside a config: the planner runs FIRST against a cold
store, the exhaustive reference SECOND — the two share the store, and the
reverse order would warm every grid point and zero the planner's live-
evaluation count.
"""

from __future__ import annotations

import json
import os
import time

from repro.api import PredictionService, Scenario
from repro.plan import CapacityPlanner, Constraint, Objective, PlanSpec, SearchSpace
from repro.units import gigabytes, megabytes

BACKEND = "mva-forkjoin"
DEADLINE_SECONDS = 400.0


def _smoke_mode() -> bool:
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def _emit(record: dict) -> None:
    print(f"BENCH_PLAN {json.dumps(record, sort_keys=True)}")


def _grids() -> dict[str, SearchSpace]:
    grids = {
        "nodes-8": SearchSpace(num_nodes=tuple(range(2, 17, 2))),
        "nodes-15": SearchSpace(num_nodes=tuple(range(2, 17))),
    }
    if not _smoke_mode():
        grids["nodes-31"] = SearchSpace(num_nodes=tuple(range(2, 33)))
    return grids


def _scenario() -> Scenario:
    input_bytes = megabytes(512) if _smoke_mode() else gigabytes(5)
    return Scenario(workload="wordcount", input_size_bytes=input_bytes, num_jobs=4)


def _exhaustive_optimum(spec: PlanSpec, service: PredictionService):
    """True feasible optimum by evaluating every admitted grid point."""
    best = None
    for point in spec.resolved_space().points():
        if not spec.constraint.admits(point):
            continue
        result = service.evaluate(point.scenario(spec.scenario), spec.backend)
        cost = spec.objective.cost(point.num_nodes, result.total_seconds)
        if spec.constraint.violations(result.total_seconds, cost):
            continue
        key = (
            spec.objective.value(point.num_nodes, result.total_seconds),
            point.num_nodes,
        )
        if best is None or key < best[0]:
            best = (key, point)
    return best[1] if best else None


def test_bench_plan_search_efficiency(tmp_path):
    """Planner probes vs grid size, optimum match, warm-resume accounting."""
    scenario = _scenario()
    for grid_name, space in _grids().items():
        spec = PlanSpec(
            scenario=scenario,
            objective=Objective("min-cost"),
            constraint=Constraint(deadline_seconds=DEADLINE_SECONDS),
            space=space,
            backend=BACKEND,
        )
        store = tmp_path / grid_name
        service = PredictionService(store=store)
        started = time.perf_counter()
        cold = CapacityPlanner(service).plan(spec)
        cold_seconds = time.perf_counter() - started
        # Exhaustive reference AFTER the planner (shared store: see module
        # docstring), partially warmed by the planner's own probes.
        optimum = _exhaustive_optimum(spec, service)
        warm = CapacityPlanner(PredictionService(store=store)).plan(spec)
        record = {
            "bench": "plan_search",
            "grid": grid_name,
            "grid_size": len(space),
            "probes": len(cold.probes),
            "cold_evaluations": cold.evaluations,
            "probe_fraction": round(len(cold.probes) / len(space), 4),
            "best_nodes": cold.best.point.num_nodes if cold.best else None,
            "optimum_nodes": optimum.num_nodes if optimum else None,
            "optimum_matched": bool(cold.best and optimum and cold.best.point == optimum),
            "warm_evaluations": warm.evaluations,
            "warm_cached": warm.cached,
            "cold_wall_ms": round(cold_seconds * 1000.0, 2),
            "smoke": _smoke_mode(),
        }
        _emit(record)
        # The search finds the true optimum within its budget...
        assert record["optimum_matched"], grid_name
        assert len(cold.probes) <= spec.max_evaluations, grid_name
        # ...without exhausting grids it can bisect (saving grows with size).
        if len(space) > 8:
            assert len(cold.probes) < len(space), grid_name
        # Warm resume: strictly fewer live evaluations (zero), same result.
        assert cold.evaluations > 0, grid_name
        assert warm.evaluations == 0, grid_name
        assert warm.to_dict()["result"] == cold.to_dict()["result"], grid_name


def test_bench_plan_objectives(tmp_path):
    """One record per objective on the reference grid: the chosen trade-off."""
    scenario = _scenario()
    space = SearchSpace(num_nodes=tuple(range(2, 17, 2)))
    service = PredictionService(store=tmp_path / "objectives")
    for kind in ("min-cost", "min-makespan", "min-nodes"):
        spec = PlanSpec(
            scenario=scenario,
            objective=Objective(kind),
            constraint=Constraint(deadline_seconds=DEADLINE_SECONDS),
            space=space,
            backend=BACKEND,
        )
        report = CapacityPlanner(service).plan(spec)
        assert report.best is not None, kind
        _emit(
            {
                "bench": "plan_objectives",
                "objective": kind,
                "best_nodes": report.best.point.num_nodes,
                "total_seconds": round(report.best.total_seconds, 2),
                "cost_node_hours": round(report.best.cost, 4),
                "probes": len(report.probes),
                "smoke": _smoke_mode(),
            }
        )
