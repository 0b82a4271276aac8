"""Capacity planning: invert the predictors into an optimizer.

The prediction layers answer "how long does this workload take on this
cluster?"; this package answers the question operators actually ask —
"what is the cheapest cluster that meets my deadline?".  It is exposed as
``repro plan`` on the CLI, ``POST /plan`` on the daemon, and as a library::

    from repro.api import (
        CapacityPlanner, Constraint, Objective, PlanSpec, Scenario,
    )

    spec = PlanSpec(
        scenario=Scenario(workload="wordcount", input_size_bytes=5 * GiB),
        objective=Objective("min-cost"),
        constraint=Constraint(deadline_seconds=400.0),
    )
    report = CapacityPlanner().plan(spec)
    print(report.render_table())

Plans compose with the rest of the API: probes are evaluated through the
:class:`~repro.api.service.PredictionService` and
:class:`~repro.api.sweep.SweepScheduler`, so a store-backed planner caches
and resumes exactly like a sweep, and the resulting
:class:`~repro.plan.report.PlanReport` replays bit-identically from the
spec's seed.
"""

from .planner import CapacityPlanner, plan
from .report import PlanProbe, PlanReport, PlanRound
from .spec import (
    OBJECTIVE_KINDS,
    PLAN_SPEC_VERSION,
    Constraint,
    Objective,
    PlanPoint,
    PlanSpec,
    SearchSpace,
)
from .surrogate import InterpolationSurrogate

__all__ = [
    "OBJECTIVE_KINDS",
    "PLAN_SPEC_VERSION",
    "CapacityPlanner",
    "Constraint",
    "InterpolationSurrogate",
    "Objective",
    "PlanPoint",
    "PlanProbe",
    "PlanReport",
    "PlanRound",
    "PlanSpec",
    "SearchSpace",
    "plan",
]
