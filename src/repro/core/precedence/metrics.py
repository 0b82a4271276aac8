"""Structural metrics over precedence trees (depth, leaves, isomorphism)."""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

from ..parameters import TaskClass
from .tree import LeafNode, OperatorKind, PrecedenceNode

T = TypeVar("T")


def fold_tree(
    tree: PrecedenceNode,
    leaf: Callable[[LeafNode], T],
    combine: Callable[[OperatorKind, T, T], T],
) -> T:
    """Fold ``tree`` bottom-up, evaluating each distinct node once.

    ``leaf(node)`` gives a leaf's value and ``combine(operator, left,
    right)`` an operator node's from its children's.  A subtree shared by
    several parents (the builder shares equal ones) is evaluated once; both
    callables must be pure, so every parent sees the value a separate
    evaluation would give.  The memo is keyed by ``id(node)``, never by
    node value (a frozen dataclass hashes its whole subtree), and lives for
    this call only: the tree keeps every node alive meanwhile, and no state
    is left on the (possibly shared between threads) tree.
    """
    memo: dict[int, T] = {}

    def visit(node: PrecedenceNode) -> T:
        value = memo.get(id(node))
        if value is None:
            if isinstance(node, LeafNode):
                value = leaf(node)
            else:
                value = combine(node.operator, visit(node.left), visit(node.right))
            memo[id(node)] = value
        return value

    return visit(tree)


def tree_depth(node: PrecedenceNode) -> int:
    """Depth of the tree (a single leaf has depth 0)."""
    return fold_tree(node, lambda leaf: 0, lambda operator, left, right: 1 + max(left, right))


def tree_leaf_count(node: PrecedenceNode) -> int:
    """Number of leaves, ``len(tree_leaves(node))``, counted per distinct node."""
    return fold_tree(node, lambda leaf: 1, lambda operator, left, right: left + right)


def tree_leaves(node: PrecedenceNode) -> list[LeafNode]:
    """All leaves of the tree in left-to-right order."""
    if isinstance(node, LeafNode):
        return [node]
    return tree_leaves(node.left) + tree_leaves(node.right)


def tree_operator_counts(node: PrecedenceNode) -> dict[OperatorKind, int]:
    """Number of S and P operator nodes in the tree."""
    counts = {OperatorKind.SERIAL: 0, OperatorKind.PARALLEL: 0}

    def visit(current: PrecedenceNode) -> None:
        if isinstance(current, LeafNode):
            return
        counts[current.operator] += 1
        visit(current.left)
        visit(current.right)

    visit(node)
    return counts


def leaves_per_class(node: PrecedenceNode) -> dict[TaskClass, int]:
    """Number of leaves per task class."""
    counts: dict[TaskClass, int] = {cls: 0 for cls in TaskClass}
    for leaf in tree_leaves(node):
        counts[leaf.task_class] += 1
    return counts


def _canonical_form(node: PrecedenceNode) -> tuple:
    """Order-insensitive canonical form used for isomorphism checks.

    Leaves are reduced to their task class (instance indices are irrelevant
    for isomorphism); children of a node are sorted by their canonical form,
    which makes the comparison insensitive to left/right swaps.
    """
    if isinstance(node, LeafNode):
        return ("leaf", node.task_class.value)
    children = sorted((_canonical_form(node.left), _canonical_form(node.right)))
    return (node.operator.value, children[0], children[1])


def trees_isomorphic(first: PrecedenceNode, second: PrecedenceNode) -> bool:
    """Whether two precedence trees are isomorphic (up to child order and task ids)."""
    return _canonical_form(first) == _canonical_form(second)
