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

Entry point: :class:`~repro.core.model.Hadoop2PerformanceModel`.  The names
below are exported lazily (PEP 562): ``import repro.core.parameters`` loads
no solver, and no NumPy.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".parameters": ("ModelInput", "ServiceCenterName", "TaskClass", "TaskClassDemands"),
        ".task_instances": ("TaskInstance", "expand_task_instances"),
        ".timeline": ("Timeline", "TimelineEntry", "build_timeline"),
        ".phases": ("Phase", "segment_phases"),
        ".precedence": (
            "LeafNode",
            "OperatorKind",
            "OperatorNode",
            "PrecedenceNode",
            "balance_parallel_subtrees",
            "build_precedence_tree",
            "tree_depth",
            "tree_leaves",
        ),
        ".overlap": (
            "compute_intra_job_overlaps",
            "compute_inter_job_overlaps",
            "compute_overlap_factors",
        ),
        ".estimators": (
            "EstimatorKind",
            "ForkJoinEstimator",
            "ResponseTimeEstimator",
            "TripathiEstimator",
            "create_estimator",
        ),
        ".fast_timeline": ("TimelinePlacement", "place_tasks"),
        ".initialization": (
            "InitializationStrategy",
            "initialize_from_herodotou",
            "initialize_from_profile",
        ),
        ".mva_solver": (
            "ModifiedMVASolver",
            "Residences",
            "SolverIteration",
            "SolverTrace",
            "Trajectory",
        ),
        ".model": ("Hadoop2PerformanceModel", "PredictionResult"),
        ".complexity": ("ComplexityReport", "estimate_complexity"),
    },
)
