"""The paper dashboard still computes the benchmark's recorded totals.

``perfbench/reference_paper_dashboard.json`` holds the total of every
(scenario, backend) cell of a cold ``paper`` dashboard.  The benchmark
counts a cell as correct when a simulator total equals the reference
exactly and an analytic total lies within ``REFERENCE_REL_TOL`` of it
(both read from ``perfbench/``, which this test never writes).  A change
that would turn the benchmark's ``correct`` false fails here first.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.api.dashboard import DASHBOARD_BACKENDS, paper_grid, run_dashboard

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _reference_rel_tol() -> float:
    """``REFERENCE_REL_TOL`` as ``perfbench/workloads.py`` assigns it."""
    module = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in module.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "REFERENCE_REL_TOL":
            return float(ast.literal_eval(node.value))
    raise AssertionError("perfbench/workloads.py assigns no REFERENCE_REL_TOL")


def _reference() -> dict:
    """Total of every (scenario cache key, backend) cell of the reference."""
    return json.loads((PERFBENCH / "reference_paper_dashboard.json").read_text())["totals"]


@pytest.fixture(scope="module")
def dashboard_totals():
    suite = paper_grid()
    run = run_dashboard(suite, backends=DASHBOARD_BACKENDS, execution="serial")
    return {
        scenario.cache_key(): {name: result.total_seconds for name, result in row.items()}
        for scenario, row in zip(suite.scenarios, run.outcome.result.rows)
    }


def test_every_reference_cell_is_computed(dashboard_totals):
    reference = _reference()
    assert set(dashboard_totals) == set(reference)
    for key, expected in reference.items():
        assert set(dashboard_totals[key]) == set(expected) == set(DASHBOARD_BACKENDS)


def test_simulator_totals_equal_the_reference(dashboard_totals):
    reference = _reference()
    for key, expected in reference.items():
        assert dashboard_totals[key]["simulator"] == expected["simulator"], key


def test_analytic_totals_are_within_the_reference_tolerance(dashboard_totals):
    reference = _reference()
    tolerance = _reference_rel_tol()
    for key, expected in reference.items():
        for name, total in expected.items():
            if name != "simulator":
                error = abs(dashboard_totals[key][name] - total) / abs(total)
                assert error <= tolerance, (key, name, error)
