"""Command-line interface.

``python -m repro`` (or the ``repro-hadoop2`` console script) exposes the
main entry points of the library through the unified prediction API:

* ``list``     — list available figures, prediction backends, and workloads;
* ``figure``   — regenerate one of the paper's evaluation figures;
* ``predict``  — evaluate one scenario with selected backends;
* ``compare``  — evaluate all backends side by side with relative errors
  against a baseline (the simulator by default);
* ``sweep``    — evaluate a :class:`~repro.api.ScenarioSuite` JSON file
  across backends;
* ``dashboard`` — sweep every backend over a named experiment grid, print
  the per-backend error bands against the simulator (markdown table +
  ``ACCURACY_DASHBOARD`` JSONL lines), and optionally gate the run against a
  committed ``accuracy-baseline.json`` (nonzero exit on band drift);
* ``plan``     — invert the model: search a :class:`~repro.api.SearchSpace`
  of cluster sizes / container memories / reduce counts for the candidate
  optimising an :class:`~repro.api.Objective` (min-cost / min-makespan /
  min-nodes) under a :class:`~repro.api.Constraint` (deadline, budget,
  memory ceiling), printing the full auditable
  :class:`~repro.api.PlanReport`;
* ``serve``    — run the long-lived prediction daemon (HTTP/JSON endpoints
  with bounded admission, request coalescing, per-request resilience
  policies, streaming NDJSON sweeps, graceful SIGTERM drain);
* ``store``    — maintain a persistent result store (``store gc`` expires,
  evicts and compacts records; ``store info`` reports contents and leases;
  ``store migrate`` imports a legacy JSON store into SQLite);
* ``simulate`` — run the YARN simulator and print per-job traces.

Scenario-taking commands (``predict`` / ``compare`` / ``simulate``) accept
deterministic failure-injection knobs — ``--failure-rate``,
``--straggler-frac`` / ``--straggler-slowdown``, ``--node-failure-time``
(repeatable), ``--speculative``, ``--max-attempts`` — that attach a
:class:`~repro.config.FailureSpec` to the scenario.  The simulator models
the faults mechanistically; analytic backends either apply an
expected-value inflation or declare up front that they decline the point,
which then becomes a structured failure without being evaluated.

``predict`` / ``compare`` / ``sweep`` / ``figure`` accept ``--store PATH``
(persist results across runs through a SQLite result store; a legacy JSON
store is imported once with ``repro store migrate PATH``), ``--execution
{serial,thread,process}`` (suite fan-out strategy), and the fault-tolerance
knobs ``--retries N`` (retry transient
failures with exponential backoff), ``--timeout SECONDS`` (per-evaluation
deadline) and ``--on-error {raise,skip,record}`` (partial-results contract
for points that fail terminally).  ``sweep`` schedules through
:class:`~repro.api.SweepScheduler`: it first reports how many grid points
are already answered by the cache/store and evaluates only the missing ones,
so an interrupted store-backed sweep resumes where it left off.  With
``--worker-id`` (plus ``--store``), ``sweep`` joins the *cooperative* fabric
instead: k such processes sharing one store path claim points through the
store's lease namespace and drain the grid together with zero duplicate
evaluations — kill one mid-run and its claims expire after ``--lease-ttl``
seconds, to be taken over by the survivors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from pathlib import Path

from .analysis import ascii_series_plot, format_series_table
from .api import (
    EXECUTION_MODES,
    ON_ERROR_MODES,
    PredictionService,
    Scenario,
    ScenarioSuite,
    SweepScheduler,
    WORKLOAD_PROFILES,
    backend_declines,
    backend_names,
    migrate_store,
    open_store,
)
from .plan import OBJECTIVE_KINDS, CapacityPlanner, Constraint, Objective, PlanSpec, SearchSpace
from .api.dashboard import (
    ARTIFACT_PREFIX,
    DASHBOARD_BACKENDS,
    DASHBOARD_GRIDS,
    DEFAULT_MAX_ABS_TOLERANCE,
    DEFAULT_MEAN_ABS_TOLERANCE,
    AccuracyBaseline,
    baseline_from_report,
    compare_to_baseline,
    render_jsonl,
    render_markdown,
    run_dashboard,
    write_artifacts,
)
from .api.figures import FIGURE_DEFINITIONS, FIGURE_SERIES, figure_suite
from .api.service import DEFAULT_EXECUTION
from .config import FailureSpec
from .exceptions import BackendCapabilityError, ReproError, ValidationError
from .units import parse_size

#: Backends ``predict`` evaluates when no ``--backend`` is given (both
#: estimators of the paper's model, mirroring the historical behaviour).
DEFAULT_PREDICT_BACKENDS = ("mva-forkjoin", "mva-tripathi")
#: Backends ``sweep`` evaluates when no ``--backend`` is given.
DEFAULT_SWEEP_BACKENDS = ("simulator", "mva-forkjoin", "mva-tripathi")


class _DefaultsFormatter(argparse.HelpFormatter):
    """Help formatter that appends ``(default: X)`` to every knob.

    Options whose help text already states its default (in any phrasing
    containing the word "default") are left alone, as are flags and
    required/positional arguments — so the normalisation cannot produce
    ``(default: False)`` noise or contradict a hand-written explanation.
    """

    def _get_help_string(self, action: argparse.Action) -> str:
        text = action.help or ""
        default = action.default
        if (
            default is None
            or default is argparse.SUPPRESS
            or isinstance(default, bool)
            or not isinstance(default, (int, float, str))
            or not action.option_strings
            or "default" in text.lower()
        ):
            return text
        return f"{text} (default: %(default)s)"


def _json_envelope(result, metadata: dict, failed: list) -> str:
    """The shared ``--json`` shape every subcommand emits."""
    return json.dumps(
        {"result": result, "metadata": metadata, "failed": failed}, indent=2
    )


def _add_scenario_arguments(
    parser: argparse.ArgumentParser, repetitions: bool = True
) -> None:
    parser.add_argument(
        "--workload",
        default="wordcount",
        choices=sorted(WORKLOAD_PROFILES),
        help="application profile",
    )
    parser.add_argument("--nodes", type=int, default=4, help="number of cluster nodes")
    parser.add_argument("--input-size", default="1GB", help="input data size (e.g. 1GB, 5GB)")
    parser.add_argument("--block-size", default="128MB", help="HDFS block size (e.g. 128MB, 64MB)")
    parser.add_argument("--jobs", type=int, default=1, help="number of concurrent jobs")
    parser.add_argument("--reduces", type=int, default=4, help="reduce tasks per job")
    parser.add_argument("--seed", type=int, default=1234, help="random seed")
    if repetitions:
        parser.add_argument(
            "--repetitions", type=int, default=3, help="simulator repetitions per point"
        )
    failures = parser.add_argument_group(
        "failure injection",
        "deterministic faults for the simulator backend; analytic backends "
        "apply an expected-value correction where they can and decline "
        "(structured failure, not a crash) where they cannot",
    )
    failures.add_argument(
        "--failure-rate",
        dest="failure_rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-attempt task failure probability in [0, 1)",
    )
    failures.add_argument(
        "--straggler-frac",
        dest="straggler_frac",
        type=float,
        default=0.0,
        metavar="F",
        help="fraction of task attempts slowed down as stragglers",
    )
    failures.add_argument(
        "--straggler-slowdown",
        dest="straggler_slowdown",
        type=float,
        default=2.5,
        metavar="X",
        help="slowdown factor applied to straggler attempts (>= 1)",
    )
    failures.add_argument(
        "--node-failure-time",
        dest="node_failure_times",
        type=float,
        action="append",
        default=None,
        metavar="SECONDS",
        help="kill one node at this simulation time (repeatable)",
    )
    failures.add_argument(
        "--speculative",
        action="store_true",
        help="launch speculative backup attempts for detected stragglers",
    )
    failures.add_argument(
        "--max-attempts",
        dest="max_attempts",
        type=int,
        default=4,
        metavar="N",
        help="attempts per task before the last one is forced to succeed",
    )


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Options configuring the shared prediction service (store + executor)."""
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent result-store directory; results are reused across runs",
    )
    parser.add_argument(
        "--execution",
        default=DEFAULT_EXECUTION,
        choices=EXECUTION_MODES,
        help="suite fan-out strategy (process sidesteps the GIL for the simulator)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry transient evaluation failures up to N times "
        "(exponential backoff with deterministic jitter; default: no retries)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-evaluation deadline; a timed-out point is retried "
        "(if --retries allows) or reported as failed",
    )
    parser.add_argument(
        "--on-error",
        dest="on_error",
        default="raise",
        choices=ON_ERROR_MODES,
        help="suite contract for points that fail terminally: raise aborts, "
        "skip omits them, record keeps structured failure rows",
    )


def _service_from_args(
    args: argparse.Namespace,
    backends: Sequence[str],
    max_workers: int | None = None,
) -> PredictionService:
    return PredictionService(
        backends=backends,
        max_workers=max_workers,
        store=args.store,
        execution=args.execution,
        retry=args.retries,
        timeout=args.timeout,
        on_error=args.on_error,
    )


def _print_store_summary(args: argparse.Namespace, service: PredictionService) -> None:
    """One stderr line saying how much work the persistent store saved."""
    if args.store is None:
        return
    stats = service.stats()
    print(
        f"store {args.store}: {stats.store_hits} store hits, "
        f"{stats.memory_hits} cache hits, {stats.evaluations} evaluated",
        file=sys.stderr,
    )


def _print_resilience_summary(service: PredictionService) -> None:
    """One stderr line on retries/failures/degradations — only when any fired."""
    stats = service.stats()
    noteworthy = (
        stats.retries
        or stats.failures
        or stats.declined
        or stats.timeouts
        or stats.batch_fallbacks
        or stats.pool_rebuilds
        or stats.pool_fallbacks
        or stats.breaker_trips
    )
    if not noteworthy:
        return
    print(
        f"resilience: {stats.retries} retries, {stats.failures} failed points, "
        f"{stats.declined} declined, "
        f"{stats.timeouts} timeouts, {stats.batch_fallbacks} batch fallbacks, "
        f"{stats.pool_rebuilds} pool rebuilds, {stats.pool_fallbacks} pool "
        f"fallbacks, {stats.breaker_trips} breaker trips",
        file=sys.stderr,
    )


def _failures_from_args(args: argparse.Namespace) -> FailureSpec | None:
    """The CLI's failure spec, or ``None`` when every knob is at rest.

    Returning ``None`` for the failure-free default keeps scenario cache
    keys (and hence stored results) identical to runs that predate the
    failure knobs.
    """
    spec = FailureSpec(
        task_failure_rate=getattr(args, "failure_rate", 0.0),
        max_attempts=getattr(args, "max_attempts", 4),
        straggler_fraction=getattr(args, "straggler_frac", 0.0),
        straggler_slowdown=getattr(args, "straggler_slowdown", 2.5),
        node_failure_times=tuple(getattr(args, "node_failure_times", None) or ()),
        speculative=getattr(args, "speculative", False),
    )
    return None if spec.is_noop else spec


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    return Scenario(
        workload=args.workload,
        input_size_bytes=parse_size(args.input_size),
        block_size_bytes=parse_size(args.block_size),
        num_nodes=args.nodes,
        num_jobs=args.jobs,
        num_reduces=args.reduces,
        seed=args.seed,
        repetitions=getattr(args, "repetitions", 1),
        failures=_failures_from_args(args),
    )


def _command_list(_: argparse.Namespace) -> int:
    print("figures:")
    for figure_id, definition in sorted(FIGURE_DEFINITIONS.items()):
        print(f"  {figure_id}: {definition.description}")
    print("backends:")
    for name in backend_names():
        print(f"  {name}")
    print("workloads:")
    for name in sorted(WORKLOAD_PROFILES):
        print(f"  {name}")
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    from .core.estimators import EstimatorKind

    definition = FIGURE_DEFINITIONS[args.figure_id]
    backends = tuple(FIGURE_SERIES.values())
    service = _service_from_args(args, backends)
    run = run_dashboard(
        figure_suite(args.figure_id, repetitions=args.repetitions, base_seed=args.seed),
        backends=backends,
        service=service,
    )
    # A point that failed (--on-error skip/record) reads NaN in its series.
    series = {
        label: run.outcome.result.series(name) for label, name in FIGURE_SERIES.items()
    }
    print(definition.description)
    print(format_series_table(definition.x_label, definition.x_values(), series))
    if args.plot:
        print()
        print(ascii_series_plot(definition.x_values(), series))
    # FIGURE_SERIES lists the measurement first, then the estimators in
    # EstimatorKind order.
    for kind, name in zip(EstimatorKind, backends[1:]):
        entry = run.report.backend(name)
        if entry.comparable:
            print(
                f"{kind.value}: mean |error| = {100 * entry.mean_abs:.1f}%, "
                f"max |error| = {100 * entry.max_abs:.1f}%"
            )
        else:
            print(f"{kind.value}: no comparable point")
    missing = sum(math.isnan(value) for values in series.values() for value in values)
    if missing:
        cells = len(backends) * len(run.suite.scenarios)
        print(f"incomplete: {missing} of {cells} points missing")
    _print_store_summary(args, service)
    return 0


def _command_predict(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    backends = args.backend or list(DEFAULT_PREDICT_BACKENDS)
    service = _service_from_args(args, backends)
    results = service.evaluate_many(scenario, backends)
    for name in backends:
        print(results[name].summary())
    _print_store_summary(args, service)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    backends = args.backend or backend_names()
    service = _service_from_args(args, backends)
    names = list(backends)
    if args.baseline not in names:
        names = [args.baseline, *names]
    # Under a failure spec, backends that cannot model it declare so up
    # front; render their rows as declined instead of aborting the whole
    # comparison.  A declining *baseline* is still fatal (there is nothing
    # to compare against).
    declined = {
        name: reason
        for name in names
        if (reason := backend_declines(name, scenario)) is not None
    }
    if args.baseline in declined:
        raise BackendCapabilityError(declined[args.baseline])
    names = [name for name in names if name not in declined]
    comparison = service.compare(scenario, names, baseline=args.baseline)
    baseline = comparison.baseline_result()
    errors = comparison.relative_errors()
    print(f"scenario: {scenario.describe()}")
    print(f"{'backend':<14} {'total (s)':>10} {'vs ' + args.baseline:>12}")
    print(f"{args.baseline:<14} {baseline.total_seconds:>10.2f} {'—':>12}")
    for name in sorted(errors):
        total = comparison.results[name].total_seconds
        print(f"{name:<14} {total:>10.2f} {100 * errors[name]:>+11.1f}%")
    for name in sorted(declined):
        print(f"{name:<14} {'declined':>10} {'—':>12}")
    for name in sorted(declined):
        print(f"note: {name} declined: {declined[name]}", file=sys.stderr)
    _print_store_summary(args, service)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    if args.suite == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.suite).read_text()
        except OSError as exc:
            raise ValidationError(f"cannot read suite file {args.suite!r}: {exc}") from exc
    suite = ScenarioSuite.from_json(text)
    backends = args.backend or list(DEFAULT_SWEEP_BACKENDS)
    service = _service_from_args(args, backends, max_workers=args.max_workers)
    scheduler = SweepScheduler(service)
    if args.worker_id is not None:
        # Cooperative mode: claim points through the shared store's lease
        # namespace and drain the grid together with every peer process
        # pointed at the same --store path.
        if args.store is None:
            raise ValidationError("--worker-id requires --store (the shared store)")
        outcome = scheduler.run_cooperative(
            suite,
            backends,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            claim_limit=args.claim_limit,
        )
        print(outcome.plan.describe(), file=sys.stderr, flush=True)
        print(outcome.describe(), file=sys.stderr, flush=True)
    else:
        # Plan first and announce it *before* evaluating, then execute exactly
        # that plan: the stderr line reflects the final memory/store/miss
        # partition (probes included), and appears up front on long sweeps.
        plan = scheduler.plan(suite, backends)
        print(plan.describe(), file=sys.stderr, flush=True)
        outcome = scheduler.run(suite, backends, plan=plan)
    suite_result = outcome.result
    if args.json:
        # The shared envelope: the grid under "result", run accounting under
        # "metadata", structured failure rows under "failed" (they also stay
        # embedded in their grid cells for per-scenario context).
        failed = [
            {"scenario": index, "backend": name, **failure.to_dict()}
            for index, name, failure in suite_result.failures()
        ]
        metadata = {
            "total_points": outcome.plan.total_points,
            "cached": outcome.plan.cached_points,
            "evaluations": outcome.stats.evaluations,
        }
        print(_json_envelope(suite_result.to_dict(), metadata, failed))
        _print_store_summary(args, service)
        return 0
    print(f"suite: {suite.name} ({len(suite.scenarios)} scenarios)")
    header = f"{'scenario':<42}" + "".join(f"{name:>14}" for name in backends)
    print(header)
    for scenario, row in zip(suite.scenarios, suite_result.rows):
        cells = "".join(_sweep_cell(row, name) for name in backends)
        print(f"{scenario.describe():<42}{cells}")
    _print_store_summary(args, service)
    _print_resilience_summary(service)
    return 0


def _sweep_cell(row: dict, name: str) -> str:
    """One table cell: the estimate, or what happened to the point instead."""
    result = row.get(name)
    if result is None:
        return f"{'skipped':>14}"
    if not result.ok:
        return f"{'failed':>14}"
    return f"{result.total_seconds:>14.2f}"


def _parse_int_axis(text: str) -> tuple[int, ...]:
    """Parse an axis spec: ``A:B[:S]`` (inclusive range) or ``a,b,c``."""
    try:
        if ":" in text:
            parts = [int(part) for part in text.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError("expected A:B or A:B:S")
            start, stop = parts[0], parts[1]
            step = parts[2] if len(parts) == 3 else 1
            values = tuple(range(start, stop + 1, step))
        else:
            values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"invalid axis {text!r}: {exc}") from exc
    if not values:
        raise ValidationError(f"axis {text!r} names no values")
    return values


def _parse_size_axis(text: str) -> tuple[int, ...]:
    """Parse a comma list of sizes (``1GB,16GB,32GB``) into bytes."""
    return tuple(parse_size(part) for part in text.split(","))


def _plan_spec_from_args(args: argparse.Namespace) -> PlanSpec:
    scenario = _scenario_from_args(args)
    overrides: dict = {}
    if args.plan_nodes is not None:
        overrides["num_nodes"] = _parse_int_axis(args.plan_nodes)
    if args.plan_memory is not None:
        overrides["container_memory_bytes"] = _parse_size_axis(args.plan_memory)
    if args.plan_reduces is not None:
        overrides["num_reduces"] = _parse_int_axis(args.plan_reduces)
    space = (
        SearchSpace.for_workload(scenario.workload, **overrides)
        if overrides
        else None  # None = the workload profile's declared knobs
    )
    return PlanSpec(
        scenario=scenario,
        objective=Objective(kind=args.objective, node_cost_per_hour=args.node_cost),
        constraint=Constraint(
            deadline_seconds=args.deadline,
            budget=args.budget,
            memory_ceiling_bytes=(
                parse_size(args.memory_ceiling)
                if args.memory_ceiling is not None
                else None
            ),
        ),
        space=space,
        backend=args.plan_backend,
        confirm_backend=args.confirm_backend,
        surrogate=args.surrogate,
        max_evaluations=args.max_evaluations,
        coarse=args.coarse,
    )


def _command_plan(args: argparse.Namespace) -> int:
    spec = _plan_spec_from_args(args)
    backends = [spec.backend]
    if spec.confirm_backend is not None and spec.confirm_backend not in backends:
        backends.append(spec.confirm_backend)
    service = _service_from_args(args, backends)
    report = CapacityPlanner(service).plan(spec)
    if args.json:
        # PlanReport.to_dict() already is the result/metadata/failed envelope.
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_table())
    _print_store_summary(args, service)
    _print_resilience_summary(service)
    return 0 if report.feasible else 1


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import PredictionDaemon, ServeConfig

    backends = args.backend or backend_names()
    service = _service_from_args(args, backends)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        max_retries=args.max_retries,
        max_timeout=args.max_timeout,
    )
    daemon = PredictionDaemon(service, config)

    def announce() -> None:
        print(
            f"serving on http://{daemon.host}:{daemon.port}",
            file=sys.stderr,
            flush=True,
        )

    asyncio.run(daemon.run(ready=announce))
    stats = service.stats()
    print(
        f"drained: {stats.evaluations} evaluations, {stats.coalesced} coalesced, "
        f"{stats.memory_hits} cache hits, {stats.store_hits} store hits",
        file=sys.stderr,
    )
    return 0


def _command_dashboard(args: argparse.Namespace) -> int:
    backends = args.backend or list(DASHBOARD_BACKENDS)
    service = _service_from_args(args, backends, max_workers=args.max_workers)
    on_error = args.on_error
    if args.grid == "failure" and on_error == "raise":
        # Capability declines are expected on the failure grid (only the
        # simulator models every spec); record them as structured rows so
        # the sweep completes instead of aborting on the first decline.
        on_error = "record"
    run = run_dashboard(
        args.grid,
        backends=backends,
        service=service,
        repetitions=args.repetitions,
        base_seed=args.seed,
        evaluate=not args.no_evaluate,
        on_error=on_error,
    )
    report = run.report
    if run.outcome is not None:
        print(run.outcome.plan.describe(), file=sys.stderr)
        _print_resilience_summary(service)
    print(render_markdown(report))
    for line in render_jsonl(report).splitlines():
        print(f"{ARTIFACT_PREFIX} {line}")
    if args.output is not None:
        paths = write_artifacts(report, args.output)
        print(
            "artifacts: " + ", ".join(str(path) for path in paths.values()),
            file=sys.stderr,
        )
    _print_store_summary(args, service)
    if args.write_baseline is not None:
        baseline = baseline_from_report(
            report,
            tolerance_mean_abs=args.tolerance_mean,
            tolerance_max_abs=args.tolerance_max,
        )
        baseline.write(args.write_baseline)
        print(f"accuracy baseline written to {args.write_baseline}", file=sys.stderr)
        return 0
    if args.baseline is not None:
        baseline = AccuracyBaseline.load(args.baseline)
        violations = compare_to_baseline(report, baseline)
        if violations:
            for violation in violations:
                print(f"drift: {violation.describe()}", file=sys.stderr)
            print(
                f"accuracy gate FAILED against {args.baseline}: "
                f"{len(violations)} violation(s)",
                file=sys.stderr,
            )
            return 1
        print(f"accuracy gate passed against {args.baseline}", file=sys.stderr)
    return 0


def _command_store_gc(args: argparse.Namespace) -> int:
    store = open_store(args.path)
    stats = store.gc(
        ttl=args.ttl, max_records=args.max_records, dry_run=args.dry_run
    )
    if args.json:
        print(
            json.dumps(
                {
                    "store": str(store.path),
                    "format": store.format_name,
                    "examined": stats.examined,
                    "expired": stats.expired,
                    "stale": stats.stale,
                    "evicted": stats.evicted,
                    "corrupt": stats.corrupt,
                    "remaining": stats.remaining,
                    "leases_removed": stats.leases_removed,
                    "reclaimed_bytes": stats.reclaimed_bytes,
                    "dry_run": stats.dry_run,
                }
            )
        )
    else:
        print(f"store {store.path} ({store.format_name}): {stats.describe()}")
    return 0


def _command_store_info(args: argparse.Namespace) -> int:
    store = open_store(args.path)
    stats = store.refresh()
    leases = store.lease_manager(worker_id="info").scan()
    live = sum(1 for info in leases if not info.expired())
    print(f"store:   {store.path}")
    print(f"format:  {store.format_name}")
    print(f"records: {stats.loaded} usable, {stats.stale} stale, {stats.corrupt} corrupt")
    print(f"leases:  {live} live, {len(leases) - live} expired")
    return 0


def _command_store_migrate(args: argparse.Namespace) -> int:
    stats = migrate_store(args.path)
    print(
        f"migrated {args.path}: {stats.loaded} loaded, "
        f"{stats.stale} stale, {stats.corrupt} corrupt"
    )
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from .hadoop.simulator import ClusterSimulator

    scenario = _scenario_from_args(args)
    workload = scenario.workload_spec()
    simulator = ClusterSimulator(
        scenario.cluster_config(),
        scenario.scheduler_config(),
        seed=scenario.seed,
        failures=scenario.failures,
    )
    for job_config in workload.job_configs():
        simulator.submit_job(job_config, workload.profile.simulator_profile())
    result = simulator.run()
    for trace in result.job_traces:
        print(
            f"job {trace.job_id}: response {trace.response_time:.1f}s "
            f"(maps {trace.num_maps}, reduces {trace.num_reduces}, "
            f"avg map {trace.average_map_duration():.1f}s)"
        )
    print(f"mean job response time: {result.mean_response_time:.1f}s")
    print(f"makespan: {result.makespan:.1f}s")
    print(f"data-local map fraction: {result.metrics.data_local_fraction:.2f}")
    if scenario.failures is not None:
        metrics = result.metrics
        print(
            f"failures: {metrics.task_failures} task failures, "
            f"{metrics.task_reexecutions} re-executions, "
            f"{metrics.node_failures} node failures "
            f"({metrics.containers_killed} containers killed, "
            f"{metrics.maps_invalidated} map outputs lost), "
            f"{metrics.speculative_launched} speculative launched "
            f"({metrics.speculative_wins} won)"
        )
    return 0


def _subparser(subparsers, name: str, **kwargs) -> argparse.ArgumentParser:
    """``add_parser`` with the defaults-announcing help formatter applied."""
    kwargs.setdefault("formatter_class", _DefaultsFormatter)
    return subparsers.add_parser(name, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-hadoop2",
        description="MapReduce performance models for Hadoop 2.x (EDBT 2017) — reproduction",
        formatter_class=_DefaultsFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = _subparser(
        subparsers, "list", help="list available figures, backends, and workloads"
    )
    list_parser.set_defaults(handler=_command_list)

    figure_parser = _subparser(subparsers, "figure", help="regenerate one evaluation figure")
    figure_parser.add_argument("figure_id", choices=sorted(FIGURE_DEFINITIONS))
    figure_parser.add_argument("--repetitions", type=int, default=3)
    figure_parser.add_argument("--seed", type=int, default=1234)
    figure_parser.add_argument("--plot", action="store_true", help="print an ASCII plot")
    _add_service_arguments(figure_parser)
    figure_parser.set_defaults(handler=_command_figure)

    predict_parser = _subparser(
        subparsers, "predict", help="evaluate one scenario with selected backends"
    )
    _add_scenario_arguments(predict_parser)
    predict_parser.add_argument(
        "--backend",
        action="append",
        choices=backend_names(),
        help="backend to evaluate (repeatable; default: both MVA estimators)",
    )
    _add_service_arguments(predict_parser)
    predict_parser.set_defaults(handler=_command_predict)

    compare_parser = _subparser(
        subparsers, "compare", help="all backends side by side with relative errors"
    )
    _add_scenario_arguments(compare_parser)
    compare_parser.add_argument(
        "--backend",
        action="append",
        choices=backend_names(),
        help="backend to include (repeatable; default: all registered)",
    )
    compare_parser.add_argument(
        "--baseline",
        default="simulator",
        choices=backend_names(),
        help="baseline backend the errors are measured against",
    )
    _add_service_arguments(compare_parser)
    compare_parser.set_defaults(handler=_command_compare)

    sweep_parser = _subparser(
        subparsers, "sweep", help="evaluate a scenario-suite JSON file across backends"
    )
    sweep_parser.add_argument(
        "--suite", required=True, help="path to a ScenarioSuite JSON file ('-' for stdin)"
    )
    sweep_parser.add_argument(
        "--backend",
        action="append",
        choices=backend_names(),
        help="backend to evaluate (repeatable; default: simulator + both MVA estimators)",
    )
    sweep_parser.add_argument(
        "--max-workers", type=int, default=None, help="thread-pool size for the sweep"
    )
    sweep_parser.add_argument(
        "--json", action="store_true", help="print the full result grid as JSON"
    )
    sweep_parser.add_argument(
        "--worker-id",
        dest="worker_id",
        default=None,
        metavar="NAME",
        help="join the cooperative sweep fabric under this worker name "
        "(requires --store; peers sharing the store drain the grid "
        "together with zero duplicate evaluations)",
    )
    sweep_parser.add_argument(
        "--lease-ttl",
        dest="lease_ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cooperative lease time-to-live: a crashed worker's claims "
        "expire after this long and are re-claimed by peers (default: 30)",
    )
    sweep_parser.add_argument(
        "--claim-limit",
        dest="claim_limit",
        type=int,
        default=None,
        metavar="N",
        help="claim at most N scenarios per cooperative slice (default: "
        "slices that grow 1, 2, 4, ... scenarios)",
    )
    _add_service_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_command_sweep)

    dashboard_parser = _subparser(
        subparsers, "dashboard",
        help="per-backend accuracy bands over a named grid, gated on a baseline",
    )
    dashboard_parser.add_argument(
        "--grid",
        default="smoke",
        choices=sorted(DASHBOARD_GRIDS),
        help="experiment grid to sweep (paper = union of the evaluation figures)",
    )
    dashboard_parser.add_argument(
        "--backend",
        action="append",
        choices=backend_names(),
        help="backend to include (repeatable; default: all six registered)",
    )
    dashboard_parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="committed accuracy-baseline.json to gate against "
        "(exit 1 when any backend's error band drifts beyond tolerance)",
    )
    dashboard_parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="re-baseline: snapshot this run's bands to PATH instead of gating",
    )
    dashboard_parser.add_argument(
        "--tolerance-mean",
        type=float,
        default=DEFAULT_MEAN_ABS_TOLERANCE,
        help="tolerated mean-|error| drift recorded by --write-baseline "
        "(error units; 0.02 = 2 percentage points)",
    )
    dashboard_parser.add_argument(
        "--tolerance-max",
        type=float,
        default=DEFAULT_MAX_ABS_TOLERANCE,
        help="tolerated max-|error| drift recorded by --write-baseline",
    )
    dashboard_parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="also write accuracy-dashboard.{jsonl,md,csv} artifacts to DIR",
    )
    dashboard_parser.add_argument(
        "--no-evaluate",
        action="store_true",
        help="never evaluate: build the dashboard from the cache/store only "
        "(missing backends degrade to 'incomplete')",
    )
    dashboard_parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="simulator repetitions per point (default: 1 for smoke, 3 for paper)",
    )
    dashboard_parser.add_argument("--seed", type=int, default=1234)
    dashboard_parser.add_argument(
        "--max-workers", type=int, default=None, help="thread-pool size for the sweep"
    )
    _add_service_arguments(dashboard_parser)
    dashboard_parser.set_defaults(handler=_command_dashboard)

    plan_parser = _subparser(
        subparsers, "plan",
        help="search for the best cluster under an objective and constraints "
        "(exit 1 when no candidate is feasible)",
    )
    _add_scenario_arguments(plan_parser)
    plan_parser.add_argument(
        "--objective",
        default="min-cost",
        choices=OBJECTIVE_KINDS,
        help="what the planner minimises",
    )
    plan_parser.add_argument(
        "--node-cost",
        dest="node_cost",
        type=float,
        default=1.0,
        metavar="RATE",
        help="price of one node for one hour (any currency; 1.0 = node-hours)",
    )
    plan_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="feasible plans must predict a response time at or below this",
    )
    plan_parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="COST",
        help="feasible plans must cost at most this (in --node-cost units)",
    )
    plan_parser.add_argument(
        "--memory-ceiling",
        dest="memory_ceiling",
        default=None,
        metavar="SIZE",
        help="prune candidates asking for containers above this size (e.g. 16GB)",
    )
    plan_parser.add_argument(
        "--plan-nodes",
        dest="plan_nodes",
        default=None,
        metavar="A:B[:S]|a,b,c",
        help="cluster-size axis to search (default: the workload's declared knobs)",
    )
    plan_parser.add_argument(
        "--plan-memory",
        dest="plan_memory",
        default=None,
        metavar="SIZES",
        help="container-memory axis to search, comma-separated sizes "
        "(default: the workload's declared knobs)",
    )
    plan_parser.add_argument(
        "--plan-reduces",
        dest="plan_reduces",
        default=None,
        metavar="A:B[:S]|a,b,c",
        help="reduce-count axis to search (default: the workload's declared knobs)",
    )
    plan_parser.add_argument(
        "--plan-backend",
        dest="plan_backend",
        default="mva-forkjoin",
        choices=backend_names(),
        help="backend that evaluates search probes",
    )
    plan_parser.add_argument(
        "--confirm-backend",
        dest="confirm_backend",
        default=None,
        choices=backend_names(),
        help="re-evaluate the reported optimum with this backend "
        "(default: no separate confirmation)",
    )
    plan_parser.add_argument(
        "--surrogate",
        action="store_true",
        help="fit an interpolation surrogate after the coarse pass and let it "
        "nominate candidates (each confirmed by the real backend)",
    )
    plan_parser.add_argument(
        "--max-evaluations",
        dest="max_evaluations",
        type=int,
        default=64,
        metavar="N",
        help="hard ceiling on probe evaluations the search may spend",
    )
    plan_parser.add_argument(
        "--coarse",
        type=int,
        default=3,
        metavar="K",
        help="values per axis in the coarse pass (endpoints always included)",
    )
    plan_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full plan report as a result/metadata/failed envelope",
    )
    _add_service_arguments(plan_parser)
    plan_parser.set_defaults(handler=_command_plan)

    serve_parser = _subparser(
        subparsers, "serve",
        help="run the prediction daemon (HTTP/JSON, admission control, "
        "request coalescing, streaming sweeps)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8571, help="bind port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--backend",
        action="append",
        choices=backend_names(),
        help="backend to serve (repeatable; default: all registered)",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="requests evaluated concurrently",
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="requests allowed to wait for a slot before 429s (0 = no queue)",
    )
    serve_parser.add_argument(
        "--max-retries",
        type=int,
        default=5,
        help="ceiling on per-request policy.retries",
    )
    serve_parser.add_argument(
        "--max-timeout",
        type=float,
        default=120.0,
        help="ceiling on per-request policy.timeout seconds",
    )
    _add_service_arguments(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    store_parser = _subparser(
        subparsers, "store",
        help="maintain a persistent result store (gc, info, migrate)",
    )
    store_subparsers = store_parser.add_subparsers(dest="store_command", required=True)
    store_gc_parser = _subparser(
        store_subparsers, "gc",
        help="expire, evict, and compact store records; reap dead leases",
    )
    store_gc_parser.add_argument("path", help="store directory")
    store_gc_parser.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="purge records older than this many seconds",
    )
    store_gc_parser.add_argument(
        "--max-records",
        dest="max_records",
        type=int,
        default=None,
        metavar="N",
        help="after expiry, evict the oldest records until at most N remain",
    )
    store_gc_parser.add_argument(
        "--dry-run",
        dest="dry_run",
        action="store_true",
        help="report what would be purged without deleting anything",
    )
    store_gc_parser.add_argument(
        "--json", action="store_true", help="print the gc stats as JSON"
    )
    store_gc_parser.set_defaults(handler=_command_store_gc)
    store_info_parser = _subparser(
        store_subparsers, "info", help="report a store's engine, record counts, and leases"
    )
    store_info_parser.add_argument("path", help="store directory")
    store_info_parser.set_defaults(handler=_command_store_info)
    store_migrate_parser = _subparser(
        store_subparsers, "migrate",
        help="import a legacy JSON store's records into SQLite (records/ is kept)",
    )
    store_migrate_parser.add_argument("path", help="legacy JSON store directory")
    store_migrate_parser.set_defaults(handler=_command_store_migrate)

    # simulate is one seeded raw run (per-job traces), so --repetitions —
    # which only affects the simulator *backend*'s median-of-N — is omitted.
    simulate_parser = _subparser(subparsers, "simulate", help="run the YARN simulator")
    _add_scenario_arguments(simulate_parser, repetitions=False)
    simulate_parser.set_defaults(handler=_command_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
