"""Reproduction of "MapReduce Performance Models for Hadoop 2.x" (EDBT 2017).

The package is organised in layers (see DESIGN.md):

* :mod:`repro.queueing` — closed queueing-network substrate (MVA solvers,
  Erlang/hyperexponential distributions, fork/join estimates);
* :mod:`repro.hadoop` — discrete-event YARN cluster simulator, the stand-in
  for the paper's real Hadoop 2.x testbed;
* :mod:`repro.static_models` — static baselines from related work
  (Herodotou, ARIA, Vianna et al.);
* :mod:`repro.core` — the paper's contribution: the Hadoop 2.x analytic
  performance model (timeline → precedence tree → overlap factors →
  modified MVA → Tripathi / fork-join job response-time estimators);
* :mod:`repro.workloads` — job profiles and workload generators;
* :mod:`repro.api` — the unified prediction-backend API (scenario specs,
  backend registry, batch :class:`~repro.api.PredictionService`);
* :mod:`repro.analysis` — error statistics, accuracy reports, tables and
  plots; every figure of the paper is regenerated by running its grid
  (:mod:`repro.api.figures`) through :mod:`repro.api.dashboard`.

The most common entry points are re-exported here, lazily (PEP 562):
``import repro`` imports none of them until one is first read.
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".config": ("ClusterConfig", "ContainerSpec", "JobConfig", "NodeSpec", "SchedulerConfig"),
        ".units": ("gigabytes", "megabytes"),
        ".api": (
            "BackendComparison",
            "CapacityPlanner",
            "Constraint",
            "Objective",
            "PlanReport",
            "PlanSpec",
            "PredictionBackend",
            "PredictionResult",
            "PredictionService",
            "Scenario",
            "ScenarioSuite",
            "SearchSpace",
            "SuiteResult",
            "backend_names",
            "create_backend",
            "register_backend",
            "register_workload_profile",
        ),
    },
)
__all__.append("__version__")
