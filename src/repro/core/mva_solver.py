"""The modified MVA fixed-point loop (activities A1–A6, paper Figure 4).

Each iteration:

* **A2** rebuilds the timeline of one job from the current per-class,
  per-center residence-time estimates (initially the uncontended service
  demands or the Herodotou/profile seeds), with the array placement of
  :func:`~repro.core.fast_timeline.place_tasks`;
* **A3** computes the intra-/inter-job overlap factors from that placement;
* **A4** solves the closed queueing network with the overlap-weighted
  approximate MVA, producing new per-class residence and response times;
* **A5** places the tasks again with the new estimates, builds the
  precedence tree straight from that wave-compressed placement (identical
  subtrees shared, no per-instance :class:`~repro.core.timeline.Timeline`)
  and computes the job response time with the selected estimator
  (fork/join or Tripathi), which folds each distinct subtree once;
* **A6** compares the new job response time against the previous iteration's
  value; the loop stops when the change is below ``epsilon`` (1e-7 by
  default, the value the paper recommends).

**A2–A5 never read the estimator.**  The estimate feeds A6 alone: the next
iteration's timeline, overlaps and MVA solve depend only on the residences
of the last MVA solve.  So the loop is split in two.  A :class:`Trajectory`
holds the estimator-free iterates (per iteration: the class responses, the
tree, the inter-job wait) and is extended lazily, one iteration at a time,
under its own lock.  :meth:`ModifiedMVASolver.solve` applies one estimator
and A6 to a trajectory, outside that lock.  Solvers with different
estimators (or epsilons) can read one trajectory: each stops where its own
A6 says, and the trajectory holds as many iterations as the longest of them
needed.  A trajectory is a pure function of its model input, seed response
times and tree options, so a solve gives the same bits whether its
trajectory is fresh or shared.

Every solve starts from the scenario's own seed, so a solve is a pure
function of its :class:`~repro.core.parameters.ModelInput` (and the optional
per-class seed response times).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError
from ..queueing.mva_overlap import PlainNetwork, OverlapFactors, solve_mva_with_overlaps
from ..queueing.network import ClosedNetwork
from ..queueing.service_center import CenterKind, ServiceCenter, ServiceDemand
from .estimators import EstimatorKind, create_estimator
from .fast_timeline import TimelinePlacement, place_tasks
from .parameters import ModelInput, ServiceCenterName, TaskClass
from .precedence.builder import build_precedence_tree
from .precedence.metrics import tree_depth
from .precedence.tree import PrecedenceNode

# Unused here; kept resolvable because perfbench/tracing.py wraps them on this module.
from .overlap import compute_overlap_factors  # noqa: F401
from .timeline import build_timeline  # noqa: F401

#: Per-class, per-center residence times — the solver's iterated state.
Residences = dict[TaskClass, dict[ServiceCenterName, float]]

#: Convergence threshold recommended by the paper (Section 4.2.6).
DEFAULT_EPSILON = 1e-7
#: Safety bound on the number of A2–A6 iterations.
DEFAULT_MAX_ITERATIONS = 60


@dataclass(frozen=True)
class SolverIteration:
    """Snapshot of one A2–A6 iteration."""

    index: int
    class_response_times: dict[TaskClass, float]
    job_response_time: float
    tree_depth: int
    delta: float
    #: Average container-waiting time added for concurrent jobs (0 for 1 job).
    inter_job_wait: float = 0.0


@dataclass
class SolverTrace:
    """Full record of a modified-MVA solve."""

    iterations: list[SolverIteration] = field(default_factory=list)
    converged: bool = False
    #: The A5 placement of the last iteration.
    final_timeline: TimelinePlacement | None = None
    final_tree: PrecedenceNode | None = None
    final_overlaps: OverlapFactors | None = None

    @property
    def num_iterations(self) -> int:
        """Number of A2–A6 iterations executed."""
        return len(self.iterations)

    @property
    def job_response_time(self) -> float:
        """Job response time of the last iteration."""
        if not self.iterations:
            raise ModelError("solver has not produced any iteration")
        return self.iterations[-1].job_response_time

    @property
    def class_response_times(self) -> dict[TaskClass, float]:
        """Per-class response times of the last iteration."""
        if not self.iterations:
            raise ModelError("solver has not produced any iteration")
        return self.iterations[-1].class_response_times


# -- building blocks (pure functions of the model input) ---------------------------


def _expected_remote_fraction(model_input: ModelInput) -> float:
    """Expected fraction of a reducer's input located on other nodes."""
    if model_input.num_nodes <= 1:
        return 0.0
    return (model_input.num_nodes - 1) / model_input.num_nodes


def _build_network(model_input: ModelInput) -> ClosedNetwork:
    """Closed queueing network with one class per task class."""
    centers = [
        ServiceCenter(
            name=ServiceCenterName.CPU.value,
            kind=CenterKind.QUEUEING,
            servers=model_input.cpu_per_node,
        ),
        ServiceCenter(
            name=ServiceCenterName.DISK.value,
            kind=CenterKind.QUEUEING,
            servers=model_input.disk_per_node,
        ),
        ServiceCenter(
            name=ServiceCenterName.NETWORK.value,
            kind=CenterKind.QUEUEING,
            servers=1,
        ),
    ]
    demands = []
    for task_class in TaskClass.ordered():
        class_demands = model_input.demands[task_class]
        for center in ServiceCenterName.ordered():
            value = class_demands.demand(center)
            if value > 0:
                demands.append(
                    ServiceDemand(
                        class_name=task_class.value,
                        center_name=center.value,
                        demand=value,
                    )
                )
    populations = [model_input.total_population(task_class) for task_class in TaskClass.ordered()]
    return ClosedNetwork(
        centers=centers,
        class_names=[task_class.value for task_class in TaskClass.ordered()],
        populations=populations,
        demands=demands,
    )


def _scaled_overlaps(overlaps: OverlapFactors, model_input: ModelInput) -> OverlapFactors:
    """Scale overlap factors by the node-sharing probability ``1 / numNodes``.

    Tasks spread uniformly over a homogeneous cluster only interfere with
    the competitors placed on the *same* node, which happens with
    probability ``1/n`` per competitor.
    """
    factor = 1.0 / model_input.num_nodes
    return OverlapFactors(
        class_names=overlaps.class_names,
        intra_job=np.clip(overlaps.intra_job * factor, 0.0, 1.0),
        inter_job=np.clip(overlaps.inter_job * factor, 0.0, 1.0),
    )


def _timeline_durations(
    model_input: ModelInput, residences: Residences
) -> tuple[float, float, float, float]:
    """(map, shuffle base, full shuffle network, merge) durations for Algorithm 1."""
    map_duration = sum(residences[TaskClass.MAP].values())
    shuffle_network = residences[TaskClass.SHUFFLE_SORT][ServiceCenterName.NETWORK]
    shuffle_base = (
        residences[TaskClass.SHUFFLE_SORT][ServiceCenterName.CPU]
        + residences[TaskClass.SHUFFLE_SORT][ServiceCenterName.DISK]
    )
    merge_duration = sum(residences[TaskClass.MERGE].values())
    remote_fraction = _expected_remote_fraction(model_input)
    if remote_fraction > 0:
        # Algorithm 1 expects the time to fetch the *entire* input
        # remotely and scales it by the actual remote-map fraction; the
        # residence time corresponds to the expected remote portion.
        shuffle_network_full = shuffle_network / remote_fraction
    else:
        shuffle_network_full = 0.0
    return map_duration, shuffle_base, shuffle_network_full, merge_duration


def _place_tasks(
    model_input: ModelInput, residences: Residences, enforce_merge_after_last_map: bool
) -> TimelinePlacement:
    """Algorithm 1 placement from the current per-class per-center residences."""
    map_duration, shuffle_base, shuffle_network_full, merge_duration = (
        _timeline_durations(model_input, residences)
    )
    return place_tasks(
        model_input,
        map_duration=map_duration,
        shuffle_sort_base_duration=shuffle_base,
        shuffle_network_duration=shuffle_network_full,
        merge_duration=merge_duration,
        enforce_merge_after_last_map=enforce_merge_after_last_map,
    )


def _inter_job_container_wait(
    model_input: ModelInput, class_response: dict[TaskClass, float]
) -> float:
    """Average waiting for containers held by the other concurrent jobs.

    The Capacity scheduler with a single root queue serves applications
    in FIFO order (paper Section 4.2.2, assumption 1): while an earlier
    job still has outstanding requests it effectively owns the container
    pool.  A job submitted together with ``J - 1`` identical jobs
    therefore waits, on average, for half of the other jobs' container
    work to drain through the pool::

        wait = (J - 1) / 2 * (per-job container-seconds / pool size)

    where the per-job container-seconds use the contention-inflated class
    response times of the current iteration and the pool size is
    ``numNodes * max(MaxMapPerNode, MaxReducePerNode)``.  For ``J = 1``
    the term vanishes and the model reduces to the pure tree + MVA
    estimate.
    """
    if model_input.num_jobs <= 1:
        return 0.0
    container_seconds = (
        model_input.num_maps * class_response[TaskClass.MAP]
        + model_input.num_reduces
        * (
            class_response[TaskClass.SHUFFLE_SORT]
            + class_response[TaskClass.MERGE]
        )
    )
    pool_size = model_input.num_nodes * max(
        model_input.max_maps_per_node, model_input.max_reduces_per_node
    )
    drain_time = container_seconds / pool_size
    return 0.5 * (model_input.num_jobs - 1) * drain_time


def _seed_residences(
    model_input: ModelInput, initial_response_times: dict[TaskClass, float]
) -> Residences:
    """Split the seed response times over the centers proportionally to demand."""
    residences: Residences = {}
    for task_class in TaskClass.ordered():
        demands = model_input.demands[task_class]
        total_demand = demands.total_seconds
        if task_class in initial_response_times:
            seed_total = initial_response_times[task_class]
        else:
            seed_total = model_input.initial_response_time(task_class)
        residences[task_class] = {}
        for center in ServiceCenterName.ordered():
            demand = demands.demand(center)
            if total_demand > 0:
                share = demand / total_demand
            else:
                share = 0.0
            residences[task_class][center] = seed_total * share
    return residences


# -- the estimator-free iterates (A1-A5) ---------------------------------------------


@dataclass(frozen=True)
class TrajectoryStep:
    """What one iteration computes before its estimate: A3, A4 and A5's tree."""

    class_response_times: dict[TaskClass, float]
    #: The A5 placement the tree is built from.
    timeline: TimelinePlacement
    tree: PrecedenceNode
    tree_depth: int
    #: The A3 overlap factors of the iteration (before node-sharing scaling).
    overlaps: OverlapFactors
    #: Average container-waiting time added for concurrent jobs (0 for 1 job).
    inter_job_wait: float


def _iterates(
    model_input: ModelInput,
    initial_response_times: dict[TaskClass, float],
    balanced_tree: bool,
    enforce_merge_after_last_map: bool,
) -> Iterator[TrajectoryStep]:
    """A1 once, then A2–A5 of every iteration, without end (A6 stops the reader).

    A module function rather than a method: the generator must not hold its
    :class:`Trajectory`, or the pair would form a cycle that only the cyclic
    garbage collector frees.
    """
    network = PlainNetwork.of(_build_network(model_input))
    cv_by_class = {
        task_class: model_input.demands[task_class].coefficient_of_variation
        for task_class in TaskClass.ordered()
    }
    # Precomputed index maps for extracting residence times from the MVA
    # solution (the solution arrays share the network's class/center
    # order, so repeated ``list.index`` scans per iteration are avoided).
    class_row = {
        task_class: network.class_names.index(task_class.value)
        for task_class in TaskClass.ordered()
    }
    center_column = {
        center: network.center_names.index(center.value) for center in ServiceCenterName.ordered()
    }

    # A1: initialise residence times (per center) from the seed values.
    residences = _seed_residences(model_input, initial_response_times)
    # A2 of the first iteration; every later A2 places the same residences
    # as the previous A5, so it reuses that placement.
    placement = _place_tasks(model_input, residences, enforce_merge_after_last_map)
    while True:
        # A3: overlap factors from the timeline of the current estimates.
        overlaps = placement.overlap_factors()
        scaled = _scaled_overlaps(overlaps, model_input)
        # A4: overlap-weighted MVA.
        solution = solve_mva_with_overlaps(
            network,
            scaled,
            jobs_in_system=model_input.num_jobs,
        )
        residences = {
            task_class: {
                center: float(
                    solution.residence_times[class_row[task_class], center_column[center]]
                )
                for center in ServiceCenterName.ordered()
            }
            for task_class in TaskClass.ordered()
        }
        class_response = {
            task_class: sum(residences[task_class].values()) for task_class in TaskClass.ordered()
        }
        # A5 up to the estimate: the new placement and its tree.
        placement = _place_tasks(model_input, residences, enforce_merge_after_last_map)
        tree = build_precedence_tree(
            placement,
            coefficient_of_variation=cv_by_class,
            balanced=balanced_tree,
        )
        yield TrajectoryStep(
            class_response_times=class_response,
            timeline=placement,
            tree=tree,
            tree_depth=tree_depth(tree),
            overlaps=overlaps,
            inter_job_wait=_inter_job_container_wait(model_input, class_response),
        )


def _identity(
    model_input: ModelInput,
    initial_response_times: dict[TaskClass, float] | None,
    balanced_tree: bool,
    enforce_merge_after_last_map: bool,
) -> tuple:
    """What a trajectory's steps are a function of (a ``None`` seed is ``{}``)."""
    return (
        model_input,
        dict(initial_response_times or {}),
        balanced_tree,
        enforce_merge_after_last_map,
    )


class Trajectory:
    """The A1–A5 iterates of one model input and seed, computed on demand.

    :meth:`step` returns one iteration's :class:`TrajectoryStep`, computing
    the missing ones in order under the trajectory's lock, so readers in
    several threads share every iteration and none computes one twice.  The
    steps depend on the model input, the seed response times and the tree
    options alone (:attr:`identity`), never on who reads them.
    """

    def __init__(
        self,
        model_input: ModelInput,
        initial_response_times: dict[TaskClass, float] | None = None,
        balanced_tree: bool = True,
        enforce_merge_after_last_map: bool = True,
    ) -> None:
        self.model_input = model_input
        #: What the steps are a function of: input, seed and tree options.
        self.identity = _identity(
            model_input, initial_response_times, balanced_tree, enforce_merge_after_last_map
        )
        self._lock = threading.Lock()
        self._steps: list[TrajectoryStep] = []
        self._iterates = _iterates(*self.identity)

    def step(self, index: int) -> TrajectoryStep:
        """The step of iteration ``index + 1``, extending the trajectory as needed.

        A step that raises leaves the trajectory empty, so the next reader
        starts again from A1 and meets the same error (or, after a transient
        one, computes the same steps) instead of an exhausted generator.
        """
        with self._lock:
            while len(self._steps) <= index:
                try:
                    self._steps.append(next(self._iterates))
                except BaseException:
                    self._steps = []
                    self._iterates = _iterates(*self.identity)
                    raise
            return self._steps[index]


# -- A6: one estimator's stopping rule ------------------------------------------------


class ModifiedMVASolver:
    """Iterative solver combining the timeline, overlap factors and MVA."""

    def __init__(
        self,
        estimator: EstimatorKind | str = EstimatorKind.FORK_JOIN,
        epsilon: float = DEFAULT_EPSILON,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        balanced_tree: bool = True,
        enforce_merge_after_last_map: bool = True,
    ) -> None:
        if epsilon <= 0:
            raise ModelError("epsilon must be positive")
        if max_iterations <= 0:
            raise ModelError("max_iterations must be positive")
        self.estimator = create_estimator(estimator)
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        self.balanced_tree = balanced_tree
        self.enforce_merge_after_last_map = enforce_merge_after_last_map

    def solve(
        self,
        model_input: ModelInput,
        initial_response_times: dict[TaskClass, float] | None = None,
        trajectory: Trajectory | None = None,
    ) -> SolverTrace:
        """Run the modified MVA iteration and return its full trace.

        ``initial_response_times`` seeds A1 with per-class totals (e.g. the
        Herodotou estimates), split over the centers proportionally to
        demand; classes without a seed start from the model input's own.
        ``trajectory`` supplies A1–A5 (typically shared with a solver of the
        other estimator); it must have been built for the same model input,
        seed and tree options.  Without one the solve builds its own.
        """
        identity = _identity(
            model_input,
            initial_response_times,
            self.balanced_tree,
            self.enforce_merge_after_last_map,
        )
        if trajectory is None:
            trajectory = Trajectory(*identity)
        elif trajectory.identity != identity:
            raise ModelError(
                "the trajectory was built for another model input, seed or tree option"
            )
        trace = SolverTrace()
        previous_estimate: float | None = None
        for index in range(1, self.max_iterations + 1):
            step = trajectory.step(index - 1)
            # A5: the job response time over the iteration's tree.
            job_estimate = (
                self.estimator.estimate(step.tree)
                + step.inter_job_wait
                + model_input.job_overhead_seconds
            )
            # A6: convergence test.
            delta = (
                abs(job_estimate - previous_estimate)
                if previous_estimate is not None
                else float("inf")
            )
            trace.iterations.append(
                SolverIteration(
                    index=index,
                    class_response_times=dict(step.class_response_times),
                    job_response_time=job_estimate,
                    tree_depth=step.tree_depth,
                    delta=delta,
                    inter_job_wait=step.inter_job_wait,
                )
            )
            trace.final_timeline = step.timeline
            trace.final_tree = step.tree
            trace.final_overlaps = step.overlaps
            if previous_estimate is not None and delta <= self.epsilon:
                trace.converged = True
                break
            previous_estimate = job_estimate
        return trace
