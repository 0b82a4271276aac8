"""Balancing of parallel subtrees.

A phase with ``k`` parallel task instances must be expressed with binary
P-operators.  A naive left-deep chain has depth ``k - 1``; the paper observes
(Section 5.2) that the estimation error grows with the maximal depth of the
precedence tree and therefore balances each P-subtree.  This module provides
both constructions so the ablation bench can quantify the difference.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ...exceptions import ModelError
from .tree import LeafNode, OperatorKind, OperatorNode, PrecedenceNode


def left_deep_parallel_tree(nodes: Sequence[PrecedenceNode]) -> PrecedenceNode:
    """Combine ``nodes`` with P-operators into a left-deep (unbalanced) chain."""
    if not nodes:
        raise ModelError("cannot build a parallel tree from zero nodes")
    result = nodes[0]
    for node in nodes[1:]:
        result = OperatorNode(operator=OperatorKind.PARALLEL, left=result, right=node)
    return result


def balanced_parallel_tree(nodes: Sequence[PrecedenceNode]) -> PrecedenceNode:
    """Combine ``nodes`` with P-operators into a balanced binary tree.

    The resulting depth is ``ceil(log2(k))`` instead of ``k - 1``, which is
    the balancing procedure the paper applies to every P-subtree.
    """
    if not nodes:
        raise ModelError("cannot build a parallel tree from zero nodes")
    return balanced_parallel_runs([[node, 1] for node in nodes], _parallel)


def balanced_parallel_runs(
    runs: list[list], join: Callable[[PrecedenceNode, PrecedenceNode], PrecedenceNode]
) -> PrecedenceNode:
    """:func:`balanced_parallel_tree` of a run-length encoded node sequence.

    ``runs`` holds ``[node, count]`` pairs: ``count`` copies of ``node`` in
    a row.  Each level pairs positions ``(0, 1), (2, 3), ...`` and carries
    an odd last node up, exactly as over the expanded sequence, but a run of
    ``c`` copies becomes one run of ``c // 2`` pairs ``join(node, node)``:
    one call, not ``c // 2``.  With a ``join`` that returns one node per
    distinct pair of children, a run of ``k`` identical leaves costs
    ``O(log k)`` nodes instead of ``k - 1``.
    """
    while len(runs) > 1 or runs[0][1] > 1:
        paired: list[list] = []
        carry = None
        for node, count in runs:
            if carry is not None:
                _append_run(paired, join(carry, node), 1)
                count -= 1
                carry = None
            if count > 1:
                _append_run(paired, join(node, node), count // 2)
            if count % 2:
                carry = node
        if carry is not None:
            _append_run(paired, carry, 1)
        runs = paired
    return runs[0][0]


def _append_run(runs: list[list], node: PrecedenceNode, count: int) -> None:
    """Append ``count`` copies of ``node``, extending the last run if it is ``node``."""
    if runs and runs[-1][0] is node:
        runs[-1][1] += count
    else:
        runs.append([node, count])


def _parallel(left: PrecedenceNode, right: PrecedenceNode) -> PrecedenceNode:
    return OperatorNode(operator=OperatorKind.PARALLEL, left=left, right=right)


def balance_parallel_subtrees(node: PrecedenceNode) -> PrecedenceNode:
    """Rebalance every maximal P-subtree of an existing tree.

    S-nodes are preserved; each maximal run of P-connected subtrees is
    collected and re-combined with :func:`balanced_parallel_tree`.
    """
    if isinstance(node, LeafNode):
        return node
    if node.operator is OperatorKind.SERIAL:
        return OperatorNode(
            operator=OperatorKind.SERIAL,
            left=balance_parallel_subtrees(node.left),
            right=balance_parallel_subtrees(node.right),
        )
    members = _collect_parallel_members(node)
    balanced_members = [balance_parallel_subtrees(member) for member in members]
    return balanced_parallel_tree(balanced_members)


def _collect_parallel_members(node: PrecedenceNode) -> list[PrecedenceNode]:
    """Flatten a maximal P-connected subtree into its non-P members."""
    if isinstance(node, OperatorNode) and node.operator is OperatorKind.PARALLEL:
        return _collect_parallel_members(node.left) + _collect_parallel_members(node.right)
    return [node]
