"""The shared precedence tree of a placement against the per-entry oracle.

The MVA solver builds A5's tree straight from the wave-compressed
:class:`~repro.core.fast_timeline.TimelinePlacement`, with one leaf per
distinct ``(class, duration, CV)`` and one node per distinct subtree.
``tests/precedence_oracle.py`` keeps the per-entry builder over
``placement.to_timeline()`` as the oracle.  Both trees must fold to the same
estimates bit for bit (``==``), have the same depth, leaves per class and
shape; the folds must evaluate each distinct node once; the solver must
never materialise a timeline; and a result's ``num_leaves`` must be the
expanded tree's leaf count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from precedence_oracle import build_precedence_tree_per_entry

import repro.core.estimators as estimators
from repro.api import create_backend
from repro.api.backends import backend_declines
from repro.api.dashboard import DASHBOARD_BACKENDS, dashboard_grid, paper_grid, run_dashboard
from repro.core import mva_solver
from repro.core.estimators import EstimatorKind, ForkJoinEstimator, TripathiEstimator
from repro.core.fast_timeline import TimelinePlacement, place_tasks
from repro.core.model import Hadoop2PerformanceModel
from repro.core.parameters import ModelInput, TaskClass, TaskClassDemands
from repro.core.precedence import (
    build_precedence_tree,
    tree_depth,
    tree_leaves,
    trees_isomorphic,
)
from repro.core.precedence.metrics import leaves_per_class
from repro.core.precedence.tree import LeafNode

FAMILY = ("mva-forkjoin", "mva-tripathi", "vianna")
GRIDS = ("paper", "smoke", "failure")

#: ``maximum_of`` calls of a cold serial ``paper`` dashboard, counted before
#: the builder shared subtrees (the Tripathi maxima table sees the same
#: distinct child pairs either way).
PAPER_DASHBOARD_MAXIMUM_OF_CALLS = 805


def distinct_nodes(tree) -> tuple[int, int]:
    """(distinct leaves, distinct operator nodes) of a tree, by identity."""
    seen: set[int] = set()
    leaves = operators = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, LeafNode):
            leaves += 1
        else:
            operators += 1
            stack.extend((node.left, node.right))
    return leaves, operators


def assert_same_tree(placement: TimelinePlacement, cv_by_class: dict, balanced: bool) -> None:
    shared = build_precedence_tree(placement, cv_by_class, balanced=balanced)
    oracle = build_precedence_tree_per_entry(placement.to_timeline(), cv_by_class, balanced)
    for estimator in (ForkJoinEstimator(), ForkJoinEstimator(literal=True), TripathiEstimator()):
        assert estimator.estimate_node(shared) == estimator.estimate_node(oracle)
    assert tree_depth(shared) == tree_depth(oracle)
    assert leaves_per_class(shared) == leaves_per_class(oracle)
    assert trees_isomorphic(shared, oracle)


@pytest.fixture(scope="module")
def family_builds():
    """Every (placement, CV, balanced) the family's solves build a tree from.

    Also counts :meth:`TimelinePlacement.to_timeline` calls made meanwhile.
    """
    builds = []
    materialised = []
    original_build = mva_solver.build_precedence_tree
    original_to_timeline = TimelinePlacement.to_timeline

    def recording_build(placement, coefficient_of_variation=None, balanced=True):
        builds.append((placement, dict(coefficient_of_variation or {}), balanced))
        return original_build(placement, coefficient_of_variation, balanced)

    def counting_to_timeline(self):
        materialised.append(self)
        return original_to_timeline(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mva_solver, "build_precedence_tree", recording_build)
        patch.setattr(TimelinePlacement, "to_timeline", counting_to_timeline)
        for grid in GRIDS:
            for name in FAMILY:
                backend = create_backend(name)
                for scenario in dashboard_grid(grid).scenarios:
                    if backend_declines(name, scenario) is None:
                        backend.predict(scenario)
    return builds, len(materialised)


class TestFamilyPlacements:
    def test_every_family_tree_matches_the_oracle(self, family_builds):
        builds, _ = family_builds
        assert len(builds) > 100
        for placement, cv_by_class, balanced in builds:
            assert_same_tree(placement, cv_by_class, balanced)

    def test_the_solver_never_materialises_a_timeline(self, family_builds):
        _, materialised = family_builds
        assert materialised == 0

    def test_paper_waves_share_their_leaves(self, family_builds):
        builds, _ = family_builds
        placement, cv_by_class, balanced = max(builds, key=lambda build: build[0].num_maps)
        tree = build_precedence_tree(placement, cv_by_class, balanced=balanced)
        leaves, operators = distinct_nodes(tree)
        expanded = placement.num_maps + 2 * placement.num_reduces
        assert leaves + operators < expanded


class TestFoldCounts:
    @pytest.fixture()
    def counted(self, monkeypatch):
        """Count each estimator's leaf and operator evaluations."""
        counts: dict[str, int] = {}

        def counting(owner, attribute, static):
            original = getattr(owner, attribute)

            def wrapper(*args):
                counts[attribute] = counts.get(attribute, 0) + 1
                return original(*args)

            monkeypatch.setattr(owner, attribute, staticmethod(wrapper) if static else wrapper)

        for owner in (ForkJoinEstimator, TripathiEstimator):
            counting(owner, "_leaf", static=True)
            counting(owner, "_combine", static=False)
        return counts

    @pytest.mark.parametrize("estimator", [ForkJoinEstimator(), TripathiEstimator()])
    def test_each_distinct_node_is_evaluated_once(self, family_builds, counted, estimator):
        builds, _ = family_builds
        for placement, cv_by_class, balanced in builds[::7]:
            tree = build_precedence_tree(placement, cv_by_class, balanced=balanced)
            counted.clear()
            estimator.estimate_node(tree)
            leaves, operators = distinct_nodes(tree)
            assert counted == {"_leaf": leaves, "_combine": operators}

    def test_paper_dashboard_maximum_of_calls_are_unchanged(self, monkeypatch):
        calls = []
        original = estimators.maximum_of

        def counting(distributions):
            calls.append(1)
            return original(distributions)

        monkeypatch.setattr(estimators, "maximum_of", counting)
        run_dashboard(paper_grid(), backends=DASHBOARD_BACKENDS, execution="serial")
        assert len(calls) == PAPER_DASHBOARD_MAXIMUM_OF_CALLS

    @pytest.mark.parametrize("grid", GRIDS)
    def test_num_leaves_counts_the_expanded_leaves(self, grid):
        # ``num_leaves`` is folded per distinct node; it must equal the length
        # of the fully expanded leaf list it was computed from before.
        checked = 0
        for name, kind in (
            ("mva-forkjoin", EstimatorKind.FORK_JOIN),
            ("mva-tripathi", EstimatorKind.TRIPATHI),
        ):
            backend = create_backend(name)
            for scenario in dashboard_grid(grid).scenarios:
                if backend_declines(name, scenario) is not None:
                    continue
                model = Hadoop2PerformanceModel(scenario.model_input())
                prediction = model.predict(kind)
                expanded = len(tree_leaves(model.trace(kind).final_tree))
                assert prediction.num_leaves == expanded
                assert backend.predict(scenario).metadata["num_leaves"] == expanded
                checked += 1
        assert checked >= 4


# -- hand-built placements on the builder's edge cases ------------------------------


def make_input(num_nodes, maps_per_node, num_maps, num_reduces, reduces_per_node=1, slow=True):
    demands = {cls: TaskClassDemands(cpu_seconds=1.0) for cls in TaskClass.ordered()}
    return ModelInput(
        num_nodes=num_nodes,
        max_maps_per_node=maps_per_node,
        max_reduces_per_node=reduces_per_node,
        num_maps=num_maps,
        num_reduces=num_reduces,
        demands=demands,
        slow_start=slow,
    )


CV = {TaskClass.MAP: 0.4, TaskClass.SHUFFLE_SORT: 1.3, TaskClass.MERGE: 0.0}


@pytest.mark.parametrize("balanced", [True, False])
class TestEdgeCases:
    def test_instants_closer_than_epsilon(self, balanced):
        # Two map waves [0, 10], [10, 20]; reduce 0 ends 4e-10 s before the
        # second wave does, and reduce 1 starts there: 20 and 20 - 4e-10 are
        # both cut points only within the builder's tolerance.
        model_input = make_input(1, 1, 2, 2)
        placement = place_tasks(
            model_input, 10.0, 5.0, 0.0, 5.0 - 4e-10, enforce_merge_after_last_map=False
        )
        assert 0.0 < 20.0 - placement.merge_ends[0] < 1e-9
        assert_same_tree(placement, CV, balanced)

    def test_zero_length_merges_on_the_final_boundary(self, balanced):
        placement = place_tasks(make_input(2, 2, 7, 3), 4.0, 1.5, 2.0, 0.0)
        assert_same_tree(placement, CV, balanced)

    def test_odd_map_run_next_to_reduce_chains(self, balanced):
        # Waves of 2, 2 and 1 maps; the last two waves (3 maps) run beside
        # both shuffle-sorts, so a level of the P-group pairs a map with a
        # shuffle-sort across the boundary between their runs.
        placement = place_tasks(make_input(2, 1, 5, 2), 6.0, 1.0, 3.0, 2.0)
        assert placement.map_wave_counts.tolist() == [2, 2, 1]
        assert placement.shuffle_starts.tolist() == [6.0, 6.0]
        assert_same_tree(placement, CV, balanced)

    def test_everything_zero_length(self, balanced):
        placement = place_tasks(make_input(2, 2, 9, 4), 0.0, 0.0, 0.0, 0.0)
        assert_same_tree(placement, CV, balanced)


# -- property: random placements ------------------------------------------------------


@st.composite
def placements(draw):
    num_nodes = draw(st.integers(1, 16))
    model_input = make_input(
        num_nodes,
        draw(st.integers(1, 4)),
        draw(st.integers(1, 200)),
        draw(st.integers(1, 16)),
        reduces_per_node=draw(st.integers(1, 2)),
        slow=draw(st.booleans()),
    )
    map_duration = draw(st.sampled_from([0.0, 1.0, 7.5]) | st.floats(0.01, 30.0))

    def phase():
        # Zero, arbitrary, or a multiple of the map duration nudged by less
        # than the builder's tolerance (instants that nearly coincide).
        near_wave = st.builds(
            lambda waves, nudge: waves * map_duration + nudge,
            st.integers(1, 3),
            st.sampled_from([0.0, 4e-10, -4e-10]),
        ).filter(lambda value: value >= 0.0)
        return draw(st.just(0.0) | st.floats(0.01, 40.0) | near_wave)

    durations = (map_duration, phase(), phase(), phase())
    placement = place_tasks(
        model_input, *durations, enforce_merge_after_last_map=draw(st.booleans())
    )
    cv_by_class = {
        task_class: draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 2.0))
        for task_class in TaskClass.ordered()
    }
    return placement, cv_by_class, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(placements())
def test_random_placements_match_the_oracle(case):
    assert_same_tree(*case)
