"""``predict`` and ``predict_batch`` of the closed-form backends agree by construction.

The ``aria`` and ``herodotou`` formulas are written once, over an array
namespace: ``predict`` runs them on Python floats, ``predict_batch`` on
NumPy columns.  A derandomised hypothesis test draws scenario lists and pins
every point of a batch to the per-point answer, byte for byte; the explicit
examples make sure the draws reach each branch of the formulas.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Scenario, create_backend
from repro.api.scenario import WORKLOAD_PROFILES, ScenarioResolver
from repro.config import FailureSpec
from repro.static_models.herodotou import estimate
from repro.units import megabytes

BASE = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(2048),
    num_nodes=4,
    num_reduces=4,
    repetitions=1,
)

#: One scenario per branch of the formulas, checked by ``test_branches``.
BRANCHES = {
    "one node": BASE.with_updates(num_nodes=1),
    "one spill": BASE,
    "several spills": BASE.with_updates(workload="terasort"),
    "merge-pass floor": BASE.with_updates(input_size_bytes=megabytes(512)),
    "several reduce waves": BASE.with_updates(num_nodes=2, num_reduces=40),
}

SCENARIOS = st.builds(
    Scenario,
    workload=st.sampled_from(sorted(WORKLOAD_PROFILES)),
    input_size_bytes=st.integers(min_value=megabytes(1), max_value=megabytes(8 * 1024)),
    block_size_bytes=st.sampled_from([megabytes(size) for size in (32, 64, 128, 256, 512)]),
    num_nodes=st.integers(min_value=1, max_value=24),
    num_jobs=st.integers(min_value=1, max_value=4),
    num_reduces=st.integers(min_value=1, max_value=64),
    duration_cv=st.sampled_from([0.0, 0.1, 0.3, 1.5]),
    repetitions=st.just(1),
    failures=st.sampled_from(
        [None, FailureSpec(task_failure_rate=0.1, straggler_fraction=0.2, straggler_slowdown=3.0)]
    ),
)


@pytest.mark.parametrize("name", ["aria", "herodotou"])
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(scenarios=st.lists(SCENARIOS, min_size=1, max_size=6))
@example(scenarios=list(BRANCHES.values()))
def test_predict_is_predict_batch(name, scenarios):
    backend = create_backend(name)
    batch = backend.predict_batch(scenarios)
    assert [result.to_dict() for result in batch] == [
        backend.predict(scenario).to_dict() for scenario in scenarios
    ]


def test_branches():
    resolve = ScenarioResolver()

    def inputs(label):
        scenario = BRANCHES[label]
        environment = resolve.herodotou_environment(scenario)
        dataflow = resolve.herodotou_dataflow(scenario)
        return environment, dataflow, estimate(dataflow, environment)

    environment, _, _ = inputs("one node")
    assert environment.num_nodes == 1  # a remote fraction of 0
    _, dataflow, costs = inputs("one spill")
    assert dataflow.map_output_bytes <= dataflow.sort_buffer_bytes and costs.map_merge == 0.0
    _, dataflow, costs = inputs("several spills")
    assert dataflow.map_output_bytes > dataflow.sort_buffer_bytes and costs.map_merge > 0
    _, dataflow, _ = inputs("merge-pass floor")
    assert dataflow.num_maps < 16  # ceil(log2(num_maps)) - 3 < 1
    _, _, costs = inputs("several reduce waves")
    assert costs.reduce_waves > 1
