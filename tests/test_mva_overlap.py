"""The float overlap MVA against its NumPy oracle.

:func:`~repro.queueing.mva_overlap.solve_mva_with_overlaps` runs its
Schweitzer fixed point on Python floats with left-to-right sums, so its bits
do not depend on the host's BLAS kernel.  ``tests/mva_overlap_oracle.py``
keeps the NumPy formulation it replaced.  Both must reach the same fixed
point (to 1e-12 relative) in the same number of iterations: on every
network the model solves over the ``paper``, ``smoke`` and ``failure``
grids, and on small random networks with delay centers, inactive classes
and multi-server centers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mva_overlap_oracle import solve_mva_with_overlaps_numpy

from repro.api import create_backend
from repro.api.backends import backend_declines
from repro.api.dashboard import dashboard_grid
from repro.core import mva_solver
from repro.exceptions import ConvergenceError
from repro.queueing import (
    CenterKind,
    ClosedNetwork,
    OverlapFactors,
    ServiceCenter,
    ServiceDemand,
    solve_mva_with_overlaps,
)

MVA_FAMILY = ("mva-forkjoin", "mva-tripathi", "vianna")
SOLUTION_ARRAYS = (
    "residence_times",
    "response_times",
    "throughputs",
    "queue_lengths",
    "utilizations",
)


def assert_same_fixed_point(solution, oracle, rel=1e-12):
    assert solution.iterations == oracle.iterations
    assert solution.class_names == oracle.class_names
    assert solution.center_names == oracle.center_names
    for name in SOLUTION_ARRAYS:
        np.testing.assert_allclose(getattr(solution, name), getattr(oracle, name), rtol=rel, atol=0)


@pytest.fixture(scope="module")
def model_solves():
    """Every overlap-MVA solve of the MVA family over the three dashboard grids."""
    calls = []
    original = mva_solver.solve_mva_with_overlaps

    def recording(network, overlaps, jobs_in_system=1, **options):
        solution = original(network, overlaps, jobs_in_system=jobs_in_system, **options)
        calls.append((network, overlaps, jobs_in_system, solution))
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mva_solver, "solve_mva_with_overlaps", recording)
        for grid in ("paper", "smoke", "failure"):
            for name in MVA_FAMILY:
                backend = create_backend(name)
                for scenario in dashboard_grid(grid).scenarios:
                    if backend_declines(name, scenario) is None:
                        backend.predict(scenario)
    return calls


def test_model_networks_match_the_oracle(model_solves):
    # One solve per modified-MVA iteration of every grid point.
    assert len(model_solves) > 200
    for network, overlaps, jobs, solution in model_solves:
        oracle = solve_mva_with_overlaps_numpy(network, overlaps, jobs_in_system=jobs)
        assert_same_fixed_point(solution, oracle)


@st.composite
def overlap_networks(draw):
    """A network of 1–4 classes over 1–4 centers, its overlaps and a job count."""
    num_classes = draw(st.integers(min_value=1, max_value=4))
    num_centers = draw(st.integers(min_value=1, max_value=4))
    class_names = [f"class{c}" for c in range(num_classes)]
    centers = [
        ServiceCenter(
            name=f"center{k}",
            kind=draw(st.sampled_from(list(CenterKind))),
            servers=draw(st.integers(min_value=1, max_value=4)),
        )
        for k in range(num_centers)
    ]
    demand = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=10.0))
    demands = [
        ServiceDemand(class_name=class_name, center_name=center.name, demand=value)
        for class_name in class_names
        for center in centers
        if (value := draw(demand)) > 0
    ]
    network = ClosedNetwork(
        centers=centers,
        class_names=class_names,
        # Zero population: an inactive class.
        populations=[draw(st.integers(min_value=0, max_value=12)) for _ in class_names],
        demands=demands,
        think_times=[draw(st.sampled_from([0.0, 0.5, 4.0])) for _ in class_names],
    )
    factor = st.floats(min_value=0.0, max_value=1.0)
    matrix = st.lists(factor, min_size=num_classes**2, max_size=num_classes**2).map(
        lambda values: np.array(values).reshape(num_classes, num_classes)
    )
    overlaps = OverlapFactors(
        class_names=tuple(class_names), intra_job=draw(matrix), inter_job=draw(matrix)
    )
    return network, overlaps, draw(st.integers(min_value=1, max_value=4))


@given(overlap_networks())
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_small_networks_match_the_oracle(case):
    network, overlaps, jobs = case
    try:
        oracle = solve_mva_with_overlaps_numpy(network, overlaps, jobs_in_system=jobs)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            solve_mva_with_overlaps(network, overlaps, jobs_in_system=jobs)
        return
    solution = solve_mva_with_overlaps(network, overlaps, jobs_in_system=jobs)
    assert_same_fixed_point(solution, oracle)
