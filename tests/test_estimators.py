"""Tests for the Tripathi fold's per-fold table of P-node maxima."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import estimators
from repro.core.estimators import NodeEstimate, TripathiEstimator
from repro.core.parameters import TaskClass
from repro.core.precedence.tree import LeafNode, OperatorKind, OperatorNode
from repro.core.task_instances import TaskInstance
from repro.queueing.distributions import fit_distribution, maximum_of, sum_of


def leaf(mean, cv, index=0):
    return LeafNode(
        instance=TaskInstance(TaskClass.MAP, index),
        mean_response_time=mean,
        coefficient_of_variation=cv,
    )


def balanced_parallel_tree(depth, mean=12.0, cv=0.4):
    """A balanced P-tree over ``2**depth`` leaves with identical statistics."""
    level = [leaf(mean, cv, index) for index in range(2**depth)]
    while len(level) > 1:
        level = [
            OperatorNode(OperatorKind.PARALLEL, level[i], level[i + 1])
            for i in range(0, len(level), 2)
        ]
    return level[0]


def reference_fold(node):
    """The fold without a table: one ``maximum_of`` per P-node."""
    if isinstance(node, LeafNode):
        return fit_distribution(node.mean_response_time, node.coefficient_of_variation)
    left = reference_fold(node.left)
    right = reference_fold(node.right)
    if node.operator is OperatorKind.SERIAL:
        return sum_of([left, right])
    return maximum_of([left, right])


@pytest.fixture
def maximum_calls(monkeypatch):
    """Count the fold's ``maximum_of`` calls (it looks the name up globally)."""
    calls = []

    def counting(distributions):
        calls.append(tuple(distributions))
        return maximum_of(distributions)

    monkeypatch.setattr(estimators, "maximum_of", counting)
    return calls


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_balanced_tree_of_identical_leaves_makes_one_call_per_level(maximum_calls, depth):
    TripathiEstimator().estimate(balanced_parallel_tree(depth))
    assert len(maximum_calls) == depth


def test_no_state_survives_a_call(maximum_calls):
    estimator = TripathiEstimator()
    tree = balanced_parallel_tree(4)
    first = estimator.estimate(tree)
    assert len(maximum_calls) == 4
    assert estimator.estimate(tree) == first
    assert len(maximum_calls) == 8


def test_child_order_is_part_of_the_key(maximum_calls):
    # maximum_of accumulates the phase pairs of two hyperexponential children
    # in input order; swapping them reorders that sum, which rounds
    # differently, so (a, b) and (b, a) must not share an entry.
    a, b = leaf(10.0, 0.5), leaf(7.0, 1.3)
    tree = OperatorNode(
        OperatorKind.PARALLEL,
        OperatorNode(OperatorKind.PARALLEL, a, b),
        OperatorNode(OperatorKind.PARALLEL, b, a),
    )
    TripathiEstimator().estimate(tree)
    assert len(maximum_calls) == 3


# Few distinct leaf statistics, so generated trees repeat child pairs.
_leaves = st.builds(
    leaf,
    mean=st.sampled_from([0.0, 3.0, 12.0, 40.5]),
    cv=st.sampled_from([0.0, 0.25, 0.6, 1.0, 1.7]),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.builds(
        OperatorNode, st.sampled_from(list(OperatorKind)), children, children
    ),
    max_leaves=24,
)


@given(tree=_trees)
@settings(max_examples=40, deadline=None)
def test_table_fold_equals_memo_free_fold(tree):
    expected = reference_fold(tree)
    assert TripathiEstimator().estimate_node(tree) == NodeEstimate(
        mean=expected.mean,
        coefficient_of_variation=expected.coefficient_of_variation,
    )
