"""The paper's contribution: the Hadoop 2.x MapReduce performance model.

The model estimates the average response time of MapReduce jobs running
concurrently on a YARN cluster, taking into account

* queueing delays due to contention at shared resources (CPU & memory,
  network), via Mean Value Analysis weighted by overlap factors, and
* synchronisation delays due to precedence constraints between the tasks of
  one job (maps → shuffle-sort → merge), via a precedence tree built from a
  container-allocation timeline.

Pipeline (modified MVA, Figure 4 of the paper):

``A1`` initialise per-task residence and response times →
``A2`` build the timeline and the precedence tree →
``A3`` estimate intra-/inter-job overlap factors →
``A4`` solve the closed queueing network (overlap-weighted MVA) →
``A5`` estimate the job response time over the tree (Tripathi or fork/join) →
``A6`` convergence test (ε = 1e-7), iterate from A2 if not converged.

Entry point: :class:`~repro.core.model.Hadoop2PerformanceModel`.
"""

from .parameters import ModelInput, ServiceCenterName, TaskClass, TaskClassDemands
from .task_instances import TaskInstance, expand_task_instances
from .timeline import Timeline, TimelineEntry, build_timeline
from .phases import Phase, segment_phases
from .precedence import (
    LeafNode,
    OperatorKind,
    OperatorNode,
    PrecedenceNode,
    balance_parallel_subtrees,
    build_precedence_tree,
    tree_depth,
    tree_leaves,
)
from .overlap import compute_intra_job_overlaps, compute_inter_job_overlaps, compute_overlap_factors
from .estimators import (
    EstimatorKind,
    ForkJoinEstimator,
    ResponseTimeEstimator,
    TripathiEstimator,
    create_estimator,
)
from .fast_timeline import TimelinePlacement, place_tasks
from .initialization import InitializationStrategy, initialize_from_herodotou, initialize_from_profile
from .mva_solver import ModifiedMVASolver, Residences, SolverIteration, SolverTrace, Trajectory
from .model import Hadoop2PerformanceModel, PredictionResult
from .complexity import ComplexityReport, estimate_complexity

__all__ = [
    "ModelInput",
    "ServiceCenterName",
    "TaskClass",
    "TaskClassDemands",
    "TaskInstance",
    "expand_task_instances",
    "Timeline",
    "TimelineEntry",
    "TimelinePlacement",
    "build_timeline",
    "place_tasks",
    "Residences",
    "Phase",
    "segment_phases",
    "LeafNode",
    "OperatorKind",
    "OperatorNode",
    "PrecedenceNode",
    "balance_parallel_subtrees",
    "build_precedence_tree",
    "tree_depth",
    "tree_leaves",
    "compute_intra_job_overlaps",
    "compute_inter_job_overlaps",
    "compute_overlap_factors",
    "EstimatorKind",
    "ForkJoinEstimator",
    "ResponseTimeEstimator",
    "TripathiEstimator",
    "create_estimator",
    "InitializationStrategy",
    "initialize_from_herodotou",
    "initialize_from_profile",
    "ModifiedMVASolver",
    "SolverIteration",
    "SolverTrace",
    "Trajectory",
    "Hadoop2PerformanceModel",
    "PredictionResult",
    "ComplexityReport",
    "estimate_complexity",
]
