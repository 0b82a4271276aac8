"""Purity property: a result is a function of (scenario, backend) alone.

A stored result must be reproducible from its key, whatever batch it was
evaluated in.  For every registered backend, evaluating a small grid
through :meth:`~repro.api.PredictionService.evaluate_suite` -- in several
seeded orders, cut into several seeded partitions, under each execution
mode -- must give results ``to_dict()``-equal to a lone
``backend.predict(scenario)``.  The vectorised ``predict_batch`` of the
closed-form backends must be bitwise equal to per-scenario ``predict`` in
any order.  The two MVA backends, which share one fixed-point trajectory
per scenario within a dispatch, must each equal a lone ``predict`` too.
"""

from __future__ import annotations

import random

import pytest

from repro.api import (
    PredictionService,
    Scenario,
    ScenarioSuite,
    backend_names,
    create_backend,
)
from repro.api.dashboard import paper_grid
from repro.units import megabytes

BASE = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=11,
)

#: Neighbouring points of one family plus other families: the mix through
#: which a result depending on its batch neighbours or order would show.
GRID = (
    BASE,
    BASE.with_updates(num_nodes=3),
    BASE.with_updates(input_size_bytes=megabytes(512)),
    BASE.with_updates(num_nodes=3, input_size_bytes=megabytes(512)),
    BASE.with_updates(num_jobs=2),
    BASE.with_updates(num_jobs=2, num_nodes=3),
    BASE.with_updates(workload="grep"),
)

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def lone() -> dict[tuple[str, str], dict]:
    """``(cache key, backend) -> to_dict()`` of one fresh ``predict`` each."""
    return {
        (scenario.cache_key(), name): create_backend(name).predict(scenario).to_dict()
        for name in backend_names()
        for scenario in GRID
    }


def seeded_partitions(seed: int) -> list[tuple[Scenario, ...]]:
    """The grid shuffled by ``seed`` and cut at seeded points."""
    rng = random.Random(seed)
    order = list(GRID)
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(order)), k=rng.randint(1, 3)))
    bounds = [0, *cuts, len(order)]
    return [tuple(order[start:end]) for start, end in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("execution", ["serial", "thread", "process"])
@pytest.mark.parametrize("seed", SEEDS)
def test_suite_results_equal_a_lone_predict(lone, seed, execution):
    names = backend_names()
    service = PredictionService(backends=names, execution=execution, max_workers=2)
    seen = 0
    for index, part in enumerate(seeded_partitions(seed)):
        result = service.evaluate_suite(ScenarioSuite(f"part-{index}", part), names)
        for scenario, row in zip(part, result.rows):
            assert set(row) == set(names)
            for name, outcome in row.items():
                assert outcome.to_dict() == lone[(scenario.cache_key(), name)], (
                    f"{name} on {scenario.cache_key()} depends on its batch"
                )
                seen += 1
    assert seen == len(GRID) * len(names)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["aria", "herodotou"])
def test_predict_batch_is_bitwise_predict(lone, seed, name):
    order = list(GRID)
    random.Random(seed).shuffle(order)
    batch = create_backend(name).predict_batch(order)
    assert [result.to_dict() for result in batch] == [
        lone[(scenario.cache_key(), name)] for scenario in order
    ]


MVA_PAIR = ("mva-forkjoin", "mva-tripathi")


@pytest.fixture(scope="module")
def paper_lone() -> dict[tuple[str, str], dict]:
    """``(cache key, MVA backend) -> to_dict()`` of one fresh ``predict`` each."""
    return {
        (scenario.cache_key(), name): create_backend(name).predict(scenario).to_dict()
        for name in MVA_PAIR
        for scenario in paper_grid().scenarios
    }


@pytest.mark.parametrize("execution", ["serial", "thread", "process"])
@pytest.mark.parametrize("dispatch", ["suite", "many"])
def test_mva_pair_sharing_a_trajectory_equals_a_lone_predict(paper_lone, dispatch, execution):
    grid = paper_grid()
    service = PredictionService(backends=MVA_PAIR, execution=execution, max_workers=2)
    if dispatch == "suite":
        rows = service.evaluate_suite(grid, MVA_PAIR).rows
    else:
        rows = [service.evaluate_many(scenario, MVA_PAIR) for scenario in grid.scenarios]
    for scenario, row in zip(grid.scenarios, rows):
        for name in MVA_PAIR:
            assert row[name].to_dict() == paper_lone[(scenario.cache_key(), name)]
