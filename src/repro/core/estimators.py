"""Job response-time estimators over the precedence tree (Section 4.2.4).

Two alternative estimators are defined by the paper:

* :class:`TripathiEstimator` — approximates every node's response-time
  distribution by an Erlang (CV <= 1) or hyperexponential (CV > 1)
  distribution; a P-node's distribution is the distribution of the maximum of
  its children, an S-node's the distribution of the sum; the tree is folded
  bottom-up and the root's mean is the job response-time estimate.
* :class:`ForkJoinEstimator` — treats every P-node as a fork/join block and
  uses Varki's harmonic-number estimate ``H_k * max(children)``; with a
  binary tree ``H_2 = 3/2``.  S-nodes sum their children.

Both estimators over-estimate slightly (synchronisation pessimism), with the
fork/join variant being the tighter of the two — exactly the behaviour the
paper reports in its evaluation.
"""

from __future__ import annotations

import enum
import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..exceptions import ModelError
from ..queueing.distributions import (
    ResponseTimeDistribution,
    fit_distribution,
    maximum_of,
    sum_of,
)
from ..queueing.forkjoin import forkjoin_response_time
from .precedence.metrics import fold_tree
from .precedence.tree import LeafNode, OperatorKind, PrecedenceNode


class EstimatorKind(enum.Enum):
    """Which job-response-time estimator to use."""

    FORK_JOIN = "fork-join"
    TRIPATHI = "tripathi"


@dataclass(frozen=True)
class NodeEstimate:
    """Mean / CV estimate for one precedence-tree node."""

    mean: float
    coefficient_of_variation: float


class ResponseTimeEstimator(ABC):
    """Estimate the response time of a precedence (sub)tree."""

    kind: EstimatorKind

    @abstractmethod
    def estimate_node(self, node: PrecedenceNode) -> NodeEstimate:
        """Mean/CV estimate of an arbitrary tree node."""

    def estimate(self, tree: PrecedenceNode) -> float:
        """Mean response time of the whole tree (the job response time)."""
        return self.estimate_node(tree).mean


class ForkJoinEstimator(ResponseTimeEstimator):
    """Fork/join-based estimator (paper Section 4.2.4, option 2).

    The paper's formula for a (binary) P-node is ``R = H_2 * max(T_l, T_r)``
    with ``H_2 = 3/2``: the larger child response time plus a synchronisation
    premium of one half.  Varki's harmonic bound from which the formula is
    taken is exact for *exponential* branch response times; applying the full
    premium to nearly deterministic branches grossly overstates the
    synchronisation delay (and compounding it over every level of a balanced
    P-subtree overstates it further).  We therefore scale the premium by the
    children's coefficient of variation::

        R_P = max(T_l, T_r) * (1 + (H_2 - 1) * cv_children)

    which reduces to the paper's literal formula for exponential branches
    (``cv = 1``) and to a plain maximum for deterministic ones.  Construct the
    estimator with ``literal=True`` to apply the unscaled paper formula (the
    estimator ablation bench compares both).
    """

    kind = EstimatorKind.FORK_JOIN

    def __init__(self, literal: bool = False) -> None:
        self.literal = literal

    def estimate_node(self, node: PrecedenceNode) -> NodeEstimate:
        return fold_tree(node, self._leaf, self._combine)

    @staticmethod
    def _leaf(node: LeafNode) -> NodeEstimate:
        return NodeEstimate(
            mean=node.mean_response_time,
            coefficient_of_variation=node.coefficient_of_variation,
        )

    def _combine(
        self, operator: OperatorKind, left: NodeEstimate, right: NodeEstimate
    ) -> NodeEstimate:
        if operator is OperatorKind.SERIAL:
            mean = left.mean + right.mean
            # Means add and (assuming independence) so do variances: the CV of
            # the sum shrinks relative to the parts.
            total = left.mean + right.mean
            if total > 0:
                variance = (
                    (left.coefficient_of_variation * left.mean) ** 2
                    + (right.coefficient_of_variation * right.mean) ** 2
                )
                cv = variance**0.5 / total
            else:
                cv = 0.0
            return NodeEstimate(mean=mean, coefficient_of_variation=cv)
        cv_children = max(left.coefficient_of_variation, right.coefficient_of_variation)
        if self.literal:
            mean = forkjoin_response_time([left.mean, right.mean])
        else:
            premium = (forkjoin_response_time([1.0, 1.0]) - 1.0) * min(cv_children, 1.0)
            mean = max(left.mean, right.mean) * (1.0 + premium)
        # Synchronising two branches reduces the relative variability of the
        # combined completion time; 1/sqrt(2) is the i.i.d. averaging factor.
        cv = cv_children / 2**0.5
        return NodeEstimate(mean=mean, coefficient_of_variation=cv)


class TripathiEstimator(ResponseTimeEstimator):
    """Tripathi-based estimator (paper Section 4.2.4, option 1).

    The fold (:func:`~.precedence.metrics.fold_tree`) evaluates each
    distinct node once, so a subtree the builder shares is folded once.  It
    also keeps a table of the P-node maxima it has computed, keyed by the
    ``(left, right)`` child distributions: distinct nodes with equal
    children (the per-instance leaves of a timeline's tree, or subtrees
    that differ in shape but not in distribution) turn a :func:`maximum_of`
    call into a lookup.  The distributions are frozen value types and
    :func:`maximum_of` is a pure function of them, so a hit returns exactly
    what the call would.  The memo and table live for one
    :meth:`estimate_node` call only: nothing survives across calls, and a
    result depends on its tree alone.
    """

    kind = EstimatorKind.TRIPATHI

    def estimate_node(self, node: PrecedenceNode) -> NodeEstimate:
        distribution = fold_tree(node, self._leaf, functools.partial(self._combine, {}))
        return NodeEstimate(
            mean=distribution.mean,
            coefficient_of_variation=distribution.coefficient_of_variation,
        )

    @staticmethod
    def _leaf(node: LeafNode) -> ResponseTimeDistribution:
        return fit_distribution(node.mean_response_time, node.coefficient_of_variation)

    def _combine(
        self,
        maxima: dict[tuple, ResponseTimeDistribution],
        operator: OperatorKind,
        left: ResponseTimeDistribution,
        right: ResponseTimeDistribution,
    ) -> ResponseTimeDistribution:
        if operator is OperatorKind.SERIAL:
            return sum_of([left, right])
        key = (left, right)
        maximum = maxima.get(key)
        if maximum is None:
            maximum = maxima[key] = maximum_of([left, right])
        return maximum


def create_estimator(
    kind: EstimatorKind | str, literal_forkjoin: bool = False
) -> ResponseTimeEstimator:
    """Factory: build an estimator from its kind (or kind name).

    ``literal_forkjoin`` selects the unscaled ``H_2 * max`` premium for the
    fork/join estimator (see :class:`ForkJoinEstimator`).
    """
    if isinstance(kind, str):
        try:
            kind = EstimatorKind(kind)
        except ValueError as exc:
            raise ModelError(f"unknown estimator {kind!r}") from exc
    if isinstance(kind, ResponseTimeEstimator):  # pragma: no cover - convenience
        return kind
    if kind is EstimatorKind.FORK_JOIN:
        return ForkJoinEstimator(literal=literal_forkjoin)
    if kind is EstimatorKind.TRIPATHI:
        return TripathiEstimator()
    raise ModelError(f"unknown estimator kind {kind!r}")
