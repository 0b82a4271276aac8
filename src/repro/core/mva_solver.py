"""The modified MVA fixed-point loop (activities A1–A6, paper Figure 4).

Each iteration:

* **A2** rebuilds the timeline of one job from the current per-class,
  per-center residence-time estimates (initially the uncontended service
  demands or the Herodotou/profile seeds), with the array placement of
  :func:`~repro.core.fast_timeline.place_tasks`;
* **A3** computes the intra-/inter-job overlap factors from that placement;
* **A4** solves the closed queueing network with the overlap-weighted
  approximate MVA, producing new per-class residence and response times;
* **A5** rebuilds the timeline and precedence tree with the new estimates and
  computes the job response time with the selected estimator
  (fork/join or Tripathi);
* **A6** compares the new job response time against the previous iteration's
  value; the loop stops when the change is below ``epsilon`` (1e-7 by
  default, the value the paper recommends).

Every solve starts from the scenario's own seed, so a solve is a pure
function of its :class:`~repro.core.parameters.ModelInput` (and the optional
per-class seed response times).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError
from ..queueing.mva_overlap import OverlapFactors, solve_mva_with_overlaps
from ..queueing.network import ClosedNetwork
from ..queueing.service_center import CenterKind, ServiceCenter, ServiceDemand
from .estimators import EstimatorKind, create_estimator
from .fast_timeline import place_tasks
from .parameters import ModelInput, ServiceCenterName, TaskClass
from .precedence.builder import build_precedence_tree
from .precedence.metrics import tree_depth
from .precedence.tree import PrecedenceNode
from .timeline import Timeline

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
    final_timeline: Timeline | None = None
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

    # -- building blocks -----------------------------------------------------------

    def _expected_remote_fraction(self, model_input: ModelInput) -> float:
        """Expected fraction of a reducer's input located on other nodes."""
        if model_input.num_nodes <= 1:
            return 0.0
        return (model_input.num_nodes - 1) / model_input.num_nodes

    def _build_network(self, model_input: ModelInput) -> ClosedNetwork:
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
        populations = [
            model_input.total_population(task_class)
            for task_class in TaskClass.ordered()
        ]
        return ClosedNetwork(
            centers=centers,
            class_names=[task_class.value for task_class in TaskClass.ordered()],
            populations=populations,
            demands=demands,
        )

    def _scaled_overlaps(
        self, overlaps: OverlapFactors, model_input: ModelInput
    ) -> OverlapFactors:
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
        self,
        model_input: ModelInput,
        residences: Residences,
    ) -> tuple[float, float, float, float]:
        """(map, shuffle base, full shuffle network, merge) durations for Algorithm 1."""
        map_duration = sum(residences[TaskClass.MAP].values())
        shuffle_network = residences[TaskClass.SHUFFLE_SORT][ServiceCenterName.NETWORK]
        shuffle_base = (
            residences[TaskClass.SHUFFLE_SORT][ServiceCenterName.CPU]
            + residences[TaskClass.SHUFFLE_SORT][ServiceCenterName.DISK]
        )
        merge_duration = sum(residences[TaskClass.MERGE].values())
        remote_fraction = self._expected_remote_fraction(model_input)
        if remote_fraction > 0:
            # Algorithm 1 expects the time to fetch the *entire* input
            # remotely and scales it by the actual remote-map fraction; the
            # residence time corresponds to the expected remote portion.
            shuffle_network_full = shuffle_network / remote_fraction
        else:
            shuffle_network_full = 0.0
        return map_duration, shuffle_base, shuffle_network_full, merge_duration

    def _place_tasks(self, model_input: ModelInput, residences: Residences):
        """Algorithm 1 placement from the current per-class per-center residences."""
        map_duration, shuffle_base, shuffle_network_full, merge_duration = (
            self._timeline_durations(model_input, residences)
        )
        return place_tasks(
            model_input,
            map_duration=map_duration,
            shuffle_sort_base_duration=shuffle_base,
            shuffle_network_duration=shuffle_network_full,
            merge_duration=merge_duration,
            enforce_merge_after_last_map=self.enforce_merge_after_last_map,
        )

    def _inter_job_container_wait(
        self,
        model_input: ModelInput,
        class_response: dict[TaskClass, float],
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
        self,
        model_input: ModelInput,
        initial_response_times: dict[TaskClass, float] | None,
    ) -> Residences:
        """Split the seed response times over the centers proportionally to demand."""
        residences: Residences = {}
        for task_class in TaskClass.ordered():
            demands = model_input.demands[task_class]
            total_demand = demands.total_seconds
            if initial_response_times and task_class in initial_response_times:
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

    # -- the A1-A6 loop ---------------------------------------------------------------

    def solve(
        self,
        model_input: ModelInput,
        initial_response_times: dict[TaskClass, float] | None = None,
    ) -> SolverTrace:
        """Run the modified MVA iteration and return its full trace.

        ``initial_response_times`` seeds A1 with per-class totals (e.g. the
        Herodotou estimates), split over the centers proportionally to
        demand; classes without a seed start from the model input's own.
        """
        trace = SolverTrace()
        network = self._build_network(model_input)
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
            center: network.center_index(center.value)
            for center in ServiceCenterName.ordered()
        }

        # A1: initialise residence times (per center) from the seed values.
        residences = self._seed_residences(model_input, initial_response_times)
        # A2 of the first iteration; every later A2 places the same residences
        # as the previous A5, so it reuses that placement.
        placement = self._place_tasks(model_input, residences)
        previous_estimate: float | None = None

        for index in range(1, self.max_iterations + 1):
            # A3: overlap factors from the timeline of the current estimates.
            overlaps = placement.overlap_factors()
            scaled = self._scaled_overlaps(overlaps, model_input)
            # A4: overlap-weighted MVA.
            solution = solve_mva_with_overlaps(
                network,
                scaled,
                jobs_in_system=model_input.num_jobs,
            )
            residences = {
                task_class: {
                    center: float(
                        solution.residence_times[
                            class_row[task_class], center_column[center]
                        ]
                    )
                    for center in ServiceCenterName.ordered()
                }
                for task_class in TaskClass.ordered()
            }
            class_response = {
                task_class: sum(residences[task_class].values())
                for task_class in TaskClass.ordered()
            }
            # A5: response time over the rebuilt tree.
            placement = self._place_tasks(model_input, residences)
            updated_timeline = placement.to_timeline()
            tree = build_precedence_tree(
                updated_timeline,
                coefficient_of_variation=cv_by_class,
                balanced=self.balanced_tree,
            )
            inter_job_wait = self._inter_job_container_wait(model_input, class_response)
            job_estimate = (
                self.estimator.estimate(tree)
                + inter_job_wait
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
                    class_response_times=class_response,
                    job_response_time=job_estimate,
                    tree_depth=tree_depth(tree),
                    delta=delta,
                    inter_job_wait=inter_job_wait,
                )
            )
            trace.final_timeline = updated_timeline
            trace.final_tree = tree
            trace.final_overlaps = overlaps
            if previous_estimate is not None and delta <= self.epsilon:
                trace.converged = True
                break
            previous_estimate = job_estimate
        return trace
