"""Multi-backend accuracy dashboard with a CI-gated regression baseline.

The dashboard sweeps every registered backend over a named experiment grid
(store-backed and batched, through the
:class:`~repro.api.sweep.SweepScheduler`), computes each backend's error band
against the simulator baseline (:mod:`repro.analysis.accuracy`), and emits

* a versioned ``ACCURACY_DASHBOARD`` JSONL artifact (one self-identifying
  record per backend, plus a report header record);
* a rendered markdown and CSV summary for humans and spreadsheets;
* a pass/fail verdict against a committed *accuracy baseline* — a JSON file
  recording, per backend, the expected ``mean |error|`` / ``max |error|``
  band and the tolerated drift around it.

Drift gating is symmetric: a backend that got markedly *better* fails too,
because the committed band would otherwise silently loosen — re-baseline
(``repro dashboard --write-baseline``) to ratchet the band instead.  A
backend missing from the sweep (e.g. probing a store that never ran it)
degrades its row to ``incomplete`` rather than crashing, and an incomplete
row always violates the gate.

The ``paper`` grid is the union of the evaluation figures of
:mod:`repro.api.figures`; the module imports nothing above ``repro.api``.
Import it as ``repro.api.dashboard``: it is not re-exported by
``repro.api``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

from ..analysis.accuracy import (
    ACCURACY_FORMAT_VERSION,
    STATUS_INCOMPLETE,
    AccuracyReport,
    compute_accuracy,
)
from ..config import FailureSpec
from ..exceptions import ValidationError
from .backends import backend_phases
from .figures import FIGURE_DEFINITIONS, figure_suite
from .scenario import Scenario, ScenarioSuite
from .service import DEFAULT_BASELINE, DEFAULT_EXECUTION, PredictionService
from .store import BaseResultStore
from .sweep import SweepOutcome, SweepScheduler

#: Prefix of the dashboard's machine-readable stdout lines (mirrors the
#: ``BENCH_SCALING`` idiom: ``ACCURACY_DASHBOARD {json}``).
ARTIFACT_PREFIX = "ACCURACY_DASHBOARD"

#: The six backends every dashboard run covers.
DASHBOARD_BACKENDS = (
    "simulator",
    "mva-forkjoin",
    "mva-tripathi",
    "aria",
    "herodotou",
    "vianna",
)

#: Default tolerated drift of ``mean |error|`` around the committed band,
#: in error units (0.02 = two percentage points of relative error).
DEFAULT_MEAN_ABS_TOLERANCE = 0.02
#: Default tolerated drift of ``max |error|`` around the committed band.
DEFAULT_MAX_ABS_TOLERANCE = 0.05


def smoke_grid(repetitions: int = 1, base_seed: int = 1234) -> ScenarioSuite:
    """A small, seconds-fast grid exercising two workloads (CI smoke gate)."""
    base = Scenario(
        workload="wordcount",
        input_size_bytes=256 * 1024 * 1024,
        num_nodes=2,
        num_reduces=2,
        repetitions=repetitions,
        seed=base_seed,
    )
    scenarios = (
        base,
        base.with_updates(num_nodes=3),
        base.with_updates(workload="grep"),
    )
    return ScenarioSuite(
        name="smoke",
        scenarios=scenarios,
        description="CI smoke grid: wordcount 256MiB on 2/3 nodes + grep 256MiB",
    )


def paper_grid(repetitions: int = 3, base_seed: int = 1234) -> ScenarioSuite:
    """The union of the paper's six evaluation-figure grids, deduplicated."""
    scenarios: list[Scenario] = []
    seen: set[str] = set()
    for figure_id in sorted(FIGURE_DEFINITIONS):
        suite = figure_suite(figure_id, repetitions=repetitions, base_seed=base_seed)
        for scenario in suite.scenarios:
            key = scenario.cache_key()
            if key not in seen:
                seen.add(key)
                scenarios.append(scenario)
    return ScenarioSuite(
        name="paper",
        scenarios=tuple(scenarios),
        description="Union of the paper's evaluation figures (Figures 10-15)",
    )


def failure_grid(repetitions: int = 1, base_seed: int = 1234) -> ScenarioSuite:
    """A failure-injection grid spanning every degradation tier.

    Built on the ``failure-recovery`` workload with ``duration_cv=0`` (the
    clean run is deterministic, failures strictly additive).  The clean point
    plus task-failure and straggler specs are answered by every backend (the
    analytic ones through expected-value inflation); the speculative and
    node-failure points only the simulator can model — backends without the
    capability decline them, so run this grid with ``on_error="record"``.
    """
    base = Scenario(
        workload="failure-recovery",
        input_size_bytes=256 * 1024 * 1024,
        num_nodes=3,
        num_reduces=2,
        duration_cv=0.0,
        repetitions=repetitions,
        seed=base_seed,
    )
    scenarios = (
        base,
        base.with_updates(failures=FailureSpec(task_failure_rate=0.1)),
        base.with_updates(
            failures=FailureSpec(straggler_fraction=0.2, straggler_slowdown=2.5)
        ),
        base.with_updates(
            failures=FailureSpec(
                straggler_fraction=0.3, straggler_slowdown=3.0, speculative=True
            )
        ),
        base.with_updates(failures=FailureSpec(node_failure_times=(30.0,))),
    )
    return ScenarioSuite(
        name="failure",
        scenarios=scenarios,
        description=(
            "Failure-injection grid: clean, task failures, stragglers, "
            "speculation, node loss (failure-recovery workload, cv=0)"
        ),
    )


#: Named dashboard grids: ``name -> builder(repetitions, base_seed)``.  Each
#: builder's own ``repetitions`` default is the grid's default (smoke stays
#: single-repetition fast, paper keeps the figure runner's median-of-3).
DASHBOARD_GRIDS = {
    "smoke": smoke_grid,
    "paper": paper_grid,
    "failure": failure_grid,
}


def dashboard_grid(
    grid: str, repetitions: int | None = None, base_seed: int = 1234
) -> ScenarioSuite:
    """Build a named dashboard grid (``smoke``, ``paper``, or ``failure``)."""
    try:
        builder = DASHBOARD_GRIDS[grid]
    except KeyError as exc:
        raise ValidationError(
            f"unknown dashboard grid {grid!r}; known: {sorted(DASHBOARD_GRIDS)}"
        ) from exc
    if repetitions is None:
        return builder(base_seed=base_seed)
    return builder(repetitions=repetitions, base_seed=base_seed)


@dataclass(frozen=True)
class DashboardRun:
    """One dashboard execution: the evaluated grid plus its accuracy report."""

    suite: ScenarioSuite
    backends: tuple[str, ...]
    report: AccuracyReport
    #: The scheduled sweep behind the report; ``None`` for store-only runs.
    outcome: SweepOutcome | None = None


def run_dashboard(
    grid: str | ScenarioSuite = "smoke",
    *,
    backends: Sequence[str] = DASHBOARD_BACKENDS,
    baseline: str = DEFAULT_BASELINE,
    service: PredictionService | None = None,
    store: BaseResultStore | str | os.PathLike | None = None,
    execution: str | None = None,
    repetitions: int | None = None,
    base_seed: int = 1234,
    evaluate: bool = True,
    on_error: str | None = None,
) -> DashboardRun:
    """Sweep a dashboard grid across ``backends`` and compute the error bands.

    The sweep is scheduled store-aware (:class:`SweepScheduler`): with a
    persistent store attached, completed points replay from disk and only the
    missing remainder is evaluated, with batch-capable backends dispatched in
    one ``predict_batch`` call each.

    With ``evaluate=False`` nothing is computed at all: the dashboard is
    assembled purely from what the cache/store already answers, and backends
    (or points) the store has never seen degrade their rows to
    ``status="incomplete"`` instead of crashing — useful for inspecting a
    store written by someone else without paying for the missing points.

    ``on_error`` is the partial-results contract of the underlying sweep
    (see :meth:`~repro.api.service.PredictionService.evaluate_suite`): with
    ``"skip"`` or ``"record"``, points that fail terminally degrade the
    affected backend's row to ``status="incomplete"`` instead of killing
    the dashboard — a permanently failing backend reports as incomplete
    while every healthy backend still gets its error band.
    """
    suite = (
        grid
        if isinstance(grid, ScenarioSuite)
        else dashboard_grid(grid, repetitions=repetitions, base_seed=base_seed)
    )
    names = tuple(backends)
    if baseline not in names:
        names = (baseline, *names)
    if service is None:
        service = PredictionService(
            backends=list(names),
            store=store,
            execution=execution or DEFAULT_EXECUTION,
        )
    scheduler = SweepScheduler(service)
    outcome = None
    if evaluate:
        outcome = scheduler.run(suite, names, on_error=on_error)
        found = outcome.result.rows
    else:
        # Store-only mode: stream the plan's answered cells, leave the rest missing.
        plan = replace(scheduler.plan(suite, names), missing=())
        found = [{} for _ in suite.scenarios]
        for index, name, result in scheduler.iter_results(suite, names, plan=plan):
            found[index][name] = result
    # Failed cells (on_error="record") carry no estimate; dropping them here
    # turns them into missing points, which compute_accuracy degrades to
    # status="incomplete" per backend.
    rows = [{name: result for name, result in row.items() if result.ok} for row in found]
    report = compute_accuracy(
        grid=suite.name,
        rows=rows,
        backends=names,
        scenario_labels=[scenario.describe() for scenario in suite.scenarios],
        baseline=baseline,
        phases={name: backend_phases(name) for name in names},
    )
    return DashboardRun(suite=suite, backends=names, report=report, outcome=outcome)


# -- artifact rendering --------------------------------------------------------


def render_jsonl(report: AccuracyReport) -> str:
    """The versioned JSONL artifact: a header record, then one per backend."""
    header = {
        "record": "report",
        "format": report.format_version,
        "grid": report.grid,
        "baseline": report.baseline,
        "num_scenarios": report.num_scenarios,
        "backends": report.backend_names(),
        "complete": report.complete,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for entry in report.backends:
        record = {
            "record": "backend",
            "format": report.format_version,
            "grid": report.grid,
            **entry.to_dict(),
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def _format_error(value: float | None) -> str:
    return "—" if value is None else f"{100 * value:.1f}%"


def _format_signed(value: float | None) -> str:
    return "—" if value is None else f"{100 * value:+.1f}%"


def render_markdown(report: AccuracyReport) -> str:
    """Human-readable markdown summary of the error bands."""
    lines = [
        f"# Accuracy dashboard — grid `{report.grid}`",
        "",
        f"{report.num_scenarios} scenarios, errors vs `{report.baseline}` "
        f"(format v{report.format_version}).",
        "",
        "| backend | status | points | mean \\|err\\| | p50 | p90 | p95 | max | mean signed |",
        "|---|---|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for entry in report.backends:
        bands = entry.percentiles
        lines.append(
            f"| {entry.backend} | {entry.status} | {entry.count} "
            f"| {_format_error(entry.mean_abs)} "
            f"| {_format_error(bands.get('p50'))} "
            f"| {_format_error(bands.get('p90'))} "
            f"| {_format_error(bands.get('p95'))} "
            f"| {_format_error(entry.max_abs)} "
            f"| {_format_signed(entry.mean_signed)} |"
        )
    worst_lines = [
        f"- `{entry.backend}`: {_format_signed(entry.worst.error)} on "
        f"{entry.worst.scenario} "
        f"({entry.worst.estimate_seconds:.1f}s vs {entry.worst.baseline_seconds:.1f}s)"
        for entry in report.backends
        if entry.worst is not None and entry.backend != report.baseline
    ]
    if worst_lines:
        lines += ["", "## Worst-case scenarios", "", *worst_lines]
    phase_names = sorted(
        {phase.phase for entry in report.backends for phase in entry.phases}
    )
    if phase_names:
        lines += [
            "",
            "## Per-phase mean |error|",
            "",
            "| backend | " + " | ".join(phase_names) + " |",
            "|---|" + "---:|" * len(phase_names),
        ]
        for entry in report.backends:
            if entry.backend == report.baseline or not entry.phases:
                continue
            by_name = {phase.phase: phase for phase in entry.phases}
            cells = [
                _format_error(by_name[name].mean_abs) if name in by_name else "—"
                for name in phase_names
            ]
            lines.append(f"| {entry.backend} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_csv(report: AccuracyReport) -> str:
    """Spreadsheet-friendly per-backend band summary."""
    band_labels = ["p50", "p90", "p95", "p100"]
    header = [
        "grid",
        "backend",
        "status",
        "count",
        "missing_points",
        "skipped_points",
        "mean_abs",
        "max_abs",
        "mean_signed",
        *band_labels,
        "worst_scenario",
        "worst_error",
    ]

    def cell(value: object) -> str:
        if value is None:
            return ""
        text = str(value)
        if any(symbol in text for symbol in (",", '"', "\n")):
            text = '"' + text.replace('"', '""') + '"'
        return text

    rows = [",".join(header)]
    for entry in report.backends:
        rows.append(
            ",".join(
                cell(value)
                for value in (
                    report.grid,
                    entry.backend,
                    entry.status,
                    entry.count,
                    entry.missing_points,
                    entry.skipped_points,
                    entry.mean_abs,
                    entry.max_abs,
                    entry.mean_signed,
                    *(entry.percentiles.get(label) for label in band_labels),
                    entry.worst.scenario if entry.worst else None,
                    entry.worst.error if entry.worst else None,
                )
            )
        )
    return "\n".join(rows) + "\n"


def write_artifacts(report: AccuracyReport, directory: str | os.PathLike) -> dict[str, Path]:
    """Write the JSONL / markdown / CSV artifacts; returns the written paths."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    paths = {
        "jsonl": target / "accuracy-dashboard.jsonl",
        "markdown": target / "accuracy-dashboard.md",
        "csv": target / "accuracy-dashboard.csv",
    }
    paths["jsonl"].write_text(render_jsonl(report))
    paths["markdown"].write_text(render_markdown(report))
    paths["csv"].write_text(render_csv(report))
    return paths


# -- baseline gating -----------------------------------------------------------


@dataclass(frozen=True)
class BaselineBand:
    """One backend's committed error band plus its tolerated drift."""

    mean_abs: float
    max_abs: float
    tolerance_mean_abs: float = DEFAULT_MEAN_ABS_TOLERANCE
    tolerance_max_abs: float = DEFAULT_MAX_ABS_TOLERANCE

    def to_dict(self) -> dict:
        return {
            "mean_abs": self.mean_abs,
            "max_abs": self.max_abs,
            "tolerance_mean_abs": self.tolerance_mean_abs,
            "tolerance_max_abs": self.tolerance_max_abs,
        }


@dataclass(frozen=True)
class DriftViolation:
    """One way a fresh report fell outside the committed baseline."""

    backend: str
    kind: str
    message: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.backend}: {self.message}"


@dataclass(frozen=True)
class AccuracyBaseline:
    """The committed per-backend error bands one grid is gated against."""

    grid: str
    baseline: str
    bands: Mapping[str, BaselineBand] = field(default_factory=dict)
    format_version: int = ACCURACY_FORMAT_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "bands", MappingProxyType(dict(self.bands)))

    def to_dict(self) -> dict:
        return {
            "format": self.format_version,
            "grid": self.grid,
            "baseline": self.baseline,
            "backends": {
                name: band.to_dict() for name, band in sorted(self.bands.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AccuracyBaseline":
        if not isinstance(data, Mapping):
            raise ValidationError(
                f"accuracy baseline must be a mapping, got {type(data).__name__}"
            )
        try:
            return cls(
                grid=data["grid"],
                baseline=data["baseline"],
                bands={
                    str(name): BaselineBand(**dict(band))
                    for name, band in dict(data.get("backends", {})).items()
                },
                format_version=int(data.get("format", ACCURACY_FORMAT_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"invalid accuracy baseline: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AccuracyBaseline":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid accuracy baseline JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "AccuracyBaseline":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValidationError(f"cannot read accuracy baseline {path!s}: {exc}") from exc
        return cls.from_json(text)

    def write(self, path: str | os.PathLike) -> None:
        Path(path).write_text(self.to_json())


def baseline_from_report(
    report: AccuracyReport,
    tolerance_mean_abs: float = DEFAULT_MEAN_ABS_TOLERANCE,
    tolerance_max_abs: float = DEFAULT_MAX_ABS_TOLERANCE,
) -> AccuracyBaseline:
    """Snapshot a report's bands into a committable baseline (re-baselining).

    Only comparable backends are recorded; an incomplete run cannot become
    the bar every later run is measured against.
    """
    bands = {
        entry.backend: BaselineBand(
            mean_abs=entry.mean_abs,
            max_abs=entry.max_abs,
            tolerance_mean_abs=tolerance_mean_abs,
            tolerance_max_abs=tolerance_max_abs,
        )
        for entry in report.backends
        if entry.comparable
    }
    if not bands:
        raise ValidationError("report has no comparable backends to baseline")
    return AccuracyBaseline(grid=report.grid, baseline=report.baseline, bands=bands)


def compare_to_baseline(
    report: AccuracyReport, baseline: AccuracyBaseline
) -> list[DriftViolation]:
    """Every way ``report`` drifted outside ``baseline``; empty means pass.

    The gate is symmetric: landing *below* the committed band by more than
    the tolerance fails too, so improvements force an explicit re-baseline
    instead of silently loosening the band for future regressions.
    """
    violations: list[DriftViolation] = []
    if report.grid != baseline.grid:
        violations.append(
            DriftViolation(
                backend="*",
                kind="grid-mismatch",
                message=f"report grid {report.grid!r} vs baseline grid {baseline.grid!r}",
            )
        )
        return violations
    if report.baseline != baseline.baseline:
        violations.append(
            DriftViolation(
                backend="*",
                kind="baseline-mismatch",
                message=(
                    f"errors measured against {report.baseline!r} but the baseline "
                    f"was recorded against {baseline.baseline!r}"
                ),
            )
        )
        return violations
    fresh = {entry.backend: entry for entry in report.backends}
    for name, band in sorted(baseline.bands.items()):
        entry = fresh.get(name)
        if entry is None:
            violations.append(
                DriftViolation(
                    backend=name,
                    kind="missing-backend",
                    message="baselined backend is absent from the report",
                )
            )
            continue
        if entry.status == STATUS_INCOMPLETE or not entry.comparable:
            # Any missing point voids the comparison: band statistics over a
            # partial grid are not the statistics the baseline was recorded
            # over, even when they happen to land inside the tolerance.
            violations.append(
                DriftViolation(
                    backend=name,
                    kind="incomplete",
                    message=(
                        f"only {entry.count} comparable points "
                        f"(status {entry.status}, {entry.missing_points} missing, "
                        f"{entry.skipped_points} skipped)"
                    ),
                )
            )
            continue
        mean_drift = entry.mean_abs - band.mean_abs
        if abs(mean_drift) > band.tolerance_mean_abs:
            violations.append(
                DriftViolation(
                    backend=name,
                    kind="mean-abs-drift",
                    message=(
                        f"mean |error| {100 * entry.mean_abs:.2f}% drifted "
                        f"{100 * mean_drift:+.2f}% from the committed "
                        f"{100 * band.mean_abs:.2f}% "
                        f"(tolerance ±{100 * band.tolerance_mean_abs:.2f}%)"
                    ),
                )
            )
        max_drift = entry.max_abs - band.max_abs
        if abs(max_drift) > band.tolerance_max_abs:
            violations.append(
                DriftViolation(
                    backend=name,
                    kind="max-abs-drift",
                    message=(
                        f"max |error| {100 * entry.max_abs:.2f}% drifted "
                        f"{100 * max_drift:+.2f}% from the committed "
                        f"{100 * band.max_abs:.2f}% "
                        f"(tolerance ±{100 * band.tolerance_max_abs:.2f}%)"
                    ),
                )
            )
    for entry in report.backends:
        if entry.backend not in baseline.bands and entry.comparable:
            violations.append(
                DriftViolation(
                    backend=entry.backend,
                    kind="unbaselined-backend",
                    message=(
                        "backend has no committed band; re-baseline to start "
                        "tracking it"
                    ),
                )
            )
    return violations
