"""Unified prediction-backend API.

This package is the single well-typed interface over the repo's heterogeneous
prediction engines:

* :class:`Scenario` / :class:`ScenarioSuite` — frozen, JSON-round-trippable
  specifications of *what* to predict (cluster + workload + scheduler + seed);
* :class:`PredictionBackend` + :func:`register_backend` — the string-keyed
  registry of *how* to predict (analytic MVA, static ARIA / Herodotou /
  Vianna baselines, the YARN simulator);
* :class:`PredictionResult` — the uniform answer shape (total seconds,
  per-phase breakdown, metadata);
* :class:`PredictionService` — batch evaluation of suites across backends
  with keyed result caching, serial / thread-pool / process-pool execution
  modes, and one-call ``predict_batch`` dispatch to batch-capable backends;
* :class:`SqliteResultStore` (via :func:`open_store`) — the persistent,
  crash-tolerant single-file SQLite result store keyed by
  ``(Scenario.cache_key(), backend)``, with TTL/size garbage collection
  (:meth:`BaseResultStore.gc`) and a claim/lease namespace
  (:class:`LeaseManager`) for cooperative multi-worker sweeps;
* :class:`SweepScheduler` — store-aware sweep planning: compute the missing
  points of a target grid, execute only those, resume interrupted sweeps —
  or drain one grid from k processes with zero duplicate evaluations
  (:meth:`SweepScheduler.run_cooperative`);
* :class:`RetryPolicy` / :class:`BreakerPolicy` / :class:`CircuitBreaker` —
  the resilience layer: bounded retries with deterministic backoff,
  per-evaluation deadlines, per-backend circuit breaking, and the
  ``on_error="raise" | "skip" | "record"`` partial-results contract whose
  failures surface as structured :class:`FailedResult` rows;
* :class:`FailureSpec` — deterministic failure injection (stragglers,
  task-attempt failures, node loss, speculative execution) simulated in
  full by the ``simulator`` backend; analytic backends degrade gracefully —
  expected-value inflation where the spec admits it; where it does not, the
  backend declares so up front (:func:`backend_declines`) and the service
  returns a structured decline without evaluating the point.

Quick example::

    from repro.api import PredictionService, Scenario

    service = PredictionService()
    scenario = Scenario(workload="wordcount", num_nodes=4, input_size_bytes=10**9)
    result = service.evaluate(scenario, "mva-forkjoin")
    print(result.summary())

Every name is exported lazily (PEP 562): it is imported from its submodule
on first access, so ``import repro.api.store`` or
``from repro.api import Scenario`` loads no prediction engine.  The
backends' own modules load when a backend is first created (see
:mod:`repro.api.backends`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "..config": ("FailureSpec",),
        "..exceptions": ("BackendCapabilityError",),
        ".backends": (
            "PredictionBackend",
            "backend_declines",
            "backend_is_cpu_bound",
            "backend_names",
            "backend_supports_batch",
            "backend_version",
            "create_backend",
            "register_backend",
        ),
        ".resilience": (
            "NO_RETRY",
            "ON_ERROR_MODES",
            "BreakerPolicy",
            "BreakerSnapshot",
            "CircuitBreaker",
            "RetryPolicy",
        ),
        ".results": ("BackendComparison", "FailedResult", "PredictionResult"),
        ".scenario": (
            "SCENARIO_SPEC_VERSION",
            "WORKLOAD_PROFILES",
            "Scenario",
            "ScenarioSuite",
            "register_workload_profile",
        ),
        ".service": (
            "DEFAULT_BASELINE",
            "EXECUTION_MODES",
            "PredictionService",
            "ServiceStats",
            "SuiteResult",
        ),
        ".store": (
            "QUARANTINE_DIR",
            "STORE_FORMAT_VERSION",
            "BaseResultStore",
            "GcStats",
            "LeaseManager",
            "SqliteResultStore",
            "StoreStats",
            "migrate_store",
            "open_store",
        ),
        ".sweep": ("CooperativeOutcome", "SweepOutcome", "SweepPlan", "SweepScheduler"),
        # ``repro.plan`` builds on this package; being lazy, these cannot
        # make a circular import.
        "..plan": (
            "CapacityPlanner",
            "Constraint",
            "Objective",
            "PlanPoint",
            "PlanProbe",
            "PlanReport",
            "PlanSpec",
            "SearchSpace",
        ),
    },
)
