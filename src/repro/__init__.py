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
* :mod:`repro.experiments` / :mod:`repro.analysis` — the evaluation harness
  regenerating every figure of the paper.

The most common entry points are re-exported here.  The :mod:`repro.api`
names are loaded lazily (PEP 562): they transitively pull in every engine,
and ``import repro`` must stay cheap for consumers that only need the
configuration and unit helpers.
"""

from .config import ClusterConfig, ContainerSpec, JobConfig, NodeSpec, SchedulerConfig
from .units import gigabytes, megabytes

__version__ = "1.1.0"

_API_EXPORTS = {
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
}


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _API_EXPORTS)

__all__ = [
    "BackendComparison",
    "CapacityPlanner",
    "ClusterConfig",
    "Constraint",
    "ContainerSpec",
    "JobConfig",
    "NodeSpec",
    "Objective",
    "PlanReport",
    "PlanSpec",
    "PredictionBackend",
    "PredictionResult",
    "PredictionService",
    "Scenario",
    "ScenarioSuite",
    "SchedulerConfig",
    "SearchSpace",
    "SuiteResult",
    "backend_names",
    "create_backend",
    "gigabytes",
    "megabytes",
    "register_backend",
    "register_workload_profile",
    "__version__",
]
