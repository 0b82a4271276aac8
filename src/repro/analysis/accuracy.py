"""Per-backend accuracy statistics against a baseline backend.

The paper's evaluation is, at heart, a table of error bands: each analytic
predictor approximates the simulator within a known envelope (fork/join
11–13.5 %, Tripathi 19–23 %, the Hadoop 1.x baseline ~15 %).  This module
turns one evaluated scenario grid into that table — per backend:

* signed and absolute relative-error aggregates against the baseline;
* percentile bands of the absolute error (p50 / p90 / p95 / p100);
* the worst-case scenario (which grid point the maximum error came from);
* a per-phase breakdown attributing the error to map / shuffle-sort / merge.

The statistics never crash on degenerate grids: a backend missing from some
(or all) rows degrades to ``status="incomplete"`` with stats over the points
it does have, points whose baseline value is non-positive are skipped and
counted, and zero-duration baseline phases are excluded from the per-phase
attribution, as are phases a backend declares it does not model.  This
module is the computation layer only; the artifact and regression-gate
machinery on top of it lives in :mod:`repro.api.dashboard`.

Results are consumed structurally (``total_seconds`` / ``phases``
attributes), keeping this module below :mod:`repro.api` in the layering —
``repro.api.results`` already imports :mod:`repro.analysis.errors`.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Protocol, runtime_checkable

from ..exceptions import ValidationError
from .errors import relative_error, summarize_errors

#: Version of the accuracy-report semantics.  Bump whenever the meaning of a
#: statistic changes in a way that makes previously written dashboard
#: artifacts (or committed baselines) incomparable.
ACCURACY_FORMAT_VERSION = 1

#: Absolute-error percentile bands every report carries, as (label, fraction).
PERCENTILE_BANDS = (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p100", 1.0))

#: ``BackendAccuracy.status`` values.
STATUS_OK = "ok"
STATUS_BASELINE = "baseline"
STATUS_INCOMPLETE = "incomplete"


@runtime_checkable
class AccuracyResult(Protocol):
    """The slice of a prediction result the accuracy statistics consume."""

    total_seconds: float
    phases: Mapping[str, float]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile of ``values`` (``fraction`` in [0, 1]).

    Matches NumPy's default (``linear``) interpolation so the bands are
    reproducible with standard tooling.
    """
    if not values:
        raise ValidationError("cannot take a percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"percentile fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


@dataclass(frozen=True)
class PhaseAccuracy:
    """Error attribution of one execution phase (map / shuffle-sort / merge)."""

    phase: str
    #: Points where both the baseline and the estimate phase were comparable.
    count: int
    #: Points skipped because the baseline phase had no (positive) duration.
    skipped: int
    mean_abs: float | None = None
    max_abs: float | None = None
    mean_signed: float | None = None

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "count": self.count,
            "skipped": self.skipped,
            "mean_abs": self.mean_abs,
            "max_abs": self.max_abs,
            "mean_signed": self.mean_signed,
        }


@dataclass(frozen=True)
class WorstCase:
    """The grid point a backend's maximum absolute error came from."""

    index: int
    scenario: str
    error: float
    estimate_seconds: float
    baseline_seconds: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "scenario": self.scenario,
            "error": self.error,
            "estimate_seconds": self.estimate_seconds,
            "baseline_seconds": self.baseline_seconds,
        }


@dataclass(frozen=True)
class BackendAccuracy:
    """One backend's error band against the baseline over a scenario grid."""

    backend: str
    #: ``ok`` (every point compared), ``baseline`` (the reference itself), or
    #: ``incomplete`` (the backend was missing from one or more rows).
    status: str
    #: Points with a comparable (estimate, baseline) pair.
    count: int
    #: Points where this backend's result was absent (e.g. not in the store).
    missing_points: int
    #: Points skipped because the baseline total was not positive.
    skipped_points: int
    mean_abs: float | None = None
    max_abs: float | None = None
    mean_signed: float | None = None
    #: Absolute-error percentile bands (``p50`` / ``p90`` / ``p95`` / ``p100``).
    percentiles: Mapping[str, float] = field(default_factory=dict)
    worst: WorstCase | None = None
    phases: tuple[PhaseAccuracy, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "percentiles", MappingProxyType(dict(self.percentiles)))

    @property
    def comparable(self) -> bool:
        """Whether this backend produced at least one comparable error."""
        return self.count > 0

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "status": self.status,
            "count": self.count,
            "missing_points": self.missing_points,
            "skipped_points": self.skipped_points,
            "mean_abs": self.mean_abs,
            "max_abs": self.max_abs,
            "mean_signed": self.mean_signed,
            "percentiles": dict(self.percentiles),
            "worst": self.worst.to_dict() if self.worst is not None else None,
            "phases": [phase.to_dict() for phase in self.phases],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BackendAccuracy":
        try:
            worst = data.get("worst")
            return cls(
                backend=data["backend"],
                status=data["status"],
                count=int(data["count"]),
                missing_points=int(data.get("missing_points", 0)),
                skipped_points=int(data.get("skipped_points", 0)),
                mean_abs=data.get("mean_abs"),
                max_abs=data.get("max_abs"),
                mean_signed=data.get("mean_signed"),
                percentiles=dict(data.get("percentiles", {})),
                worst=WorstCase(**worst) if worst is not None else None,
                phases=tuple(
                    PhaseAccuracy(**phase) for phase in data.get("phases", ())
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"invalid backend accuracy record: {exc}") from exc


@dataclass(frozen=True)
class AccuracyReport:
    """Every backend's error band over one evaluated grid."""

    grid: str
    baseline: str
    num_scenarios: int
    backends: tuple[BackendAccuracy, ...]
    format_version: int = ACCURACY_FORMAT_VERSION

    def backend(self, name: str) -> BackendAccuracy:
        """Look up one backend's accuracy row by name."""
        for entry in self.backends:
            if entry.backend == name:
                return entry
        raise ValidationError(
            f"backend {name!r} is not in the report; have: {self.backend_names()}"
        )

    def backend_names(self) -> list[str]:
        """Backend names in report order."""
        return [entry.backend for entry in self.backends]

    @property
    def complete(self) -> bool:
        """Whether every backend compared on every grid point."""
        return all(entry.status != STATUS_INCOMPLETE for entry in self.backends)

    def to_dict(self) -> dict:
        return {
            "format": self.format_version,
            "grid": self.grid,
            "baseline": self.baseline,
            "num_scenarios": self.num_scenarios,
            "backends": [entry.to_dict() for entry in self.backends],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AccuracyReport":
        if not isinstance(data, Mapping):
            raise ValidationError(
                f"accuracy report must be a mapping, got {type(data).__name__}"
            )
        try:
            return cls(
                grid=data["grid"],
                baseline=data["baseline"],
                num_scenarios=int(data["num_scenarios"]),
                backends=tuple(
                    BackendAccuracy.from_dict(entry) for entry in data["backends"]
                ),
                format_version=int(data.get("format", ACCURACY_FORMAT_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"invalid accuracy report: {exc}") from exc


def _phase_accuracy(
    phase: str,
    pairs: Sequence[tuple[AccuracyResult, AccuracyResult]],
) -> PhaseAccuracy:
    """Error attribution of one phase over the comparable grid points.

    A baseline phase with no positive duration (a zero-duration phase) has no
    well-defined relative error and is skipped; an estimate that simply lacks
    the phase is compared as predicting zero seconds for it (that *is* the
    backend's claim — e.g. Herodotou folds shuffle into the reduce stage).
    """
    errors: list[float] = []
    skipped = 0
    for estimate, reference in pairs:
        measured = reference.phases.get(phase, 0.0)
        if measured <= 0:
            skipped += 1
            continue
        errors.append(relative_error(estimate.phases.get(phase, 0.0), measured))
    if not errors:
        return PhaseAccuracy(phase=phase, count=0, skipped=skipped)
    summary = summarize_errors(errors)
    return PhaseAccuracy(
        phase=phase,
        count=summary.count,
        skipped=skipped,
        mean_abs=summary.mean_absolute,
        max_abs=summary.max_absolute,
        mean_signed=summary.mean_signed,
    )


def compute_backend_accuracy(
    backend: str,
    estimates: Sequence[AccuracyResult | None],
    baselines: Sequence[AccuracyResult | None],
    scenario_labels: Sequence[str],
    baseline: str,
    phases: Collection[str] | None = None,
) -> BackendAccuracy:
    """One backend's error band from aligned estimate / baseline sequences.

    ``estimates[i]`` and ``baselines[i]`` answer ``scenario_labels[i]``;
    either may be ``None`` (the point is then counted as missing).  Points
    whose baseline total is not positive are skipped rather than raising —
    a degenerate grid must degrade the report, not crash the dashboard.
    ``phases`` (default: every baseline phase) are the phases the backend
    models; the per-phase breakdown scores no others.
    """
    if not (len(estimates) == len(baselines) == len(scenario_labels)):
        raise ValidationError("estimates, baselines and labels must align")
    errors: list[float] = []
    worst: WorstCase | None = None
    pairs: list[tuple[AccuracyResult, AccuracyResult]] = []
    missing = 0
    skipped = 0
    for index, (estimate, reference) in enumerate(zip(estimates, baselines)):
        if estimate is None or reference is None:
            missing += 1
            continue
        if reference.total_seconds <= 0:
            skipped += 1
            continue
        error = relative_error(estimate.total_seconds, reference.total_seconds)
        errors.append(error)
        pairs.append((estimate, reference))
        if worst is None or abs(error) > abs(worst.error):
            worst = WorstCase(
                index=index,
                scenario=scenario_labels[index],
                error=error,
                estimate_seconds=estimate.total_seconds,
                baseline_seconds=reference.total_seconds,
            )
    if backend == baseline:
        status = STATUS_BASELINE if missing == 0 else STATUS_INCOMPLETE
    else:
        status = STATUS_OK if missing == 0 else STATUS_INCOMPLETE
    if not errors:
        return BackendAccuracy(
            backend=backend,
            status=status,
            count=0,
            missing_points=missing,
            skipped_points=skipped,
        )
    summary = summarize_errors(errors)
    absolute = [abs(error) for error in errors]
    measured = {name for _, reference in pairs for name in reference.phases}
    phase_names = sorted(measured if phases is None else measured.intersection(phases))
    return BackendAccuracy(
        backend=backend,
        status=status,
        count=summary.count,
        missing_points=missing,
        skipped_points=skipped,
        mean_abs=summary.mean_absolute,
        max_abs=summary.max_absolute,
        mean_signed=summary.mean_signed,
        percentiles={
            label: percentile(absolute, fraction)
            for label, fraction in PERCENTILE_BANDS
        },
        worst=worst,
        phases=tuple(_phase_accuracy(name, pairs) for name in phase_names),
    )


def compute_accuracy(
    grid: str,
    rows: Sequence[Mapping[str, Any]],
    backends: Sequence[str],
    scenario_labels: Sequence[str],
    baseline: str,
    phases: Mapping[str, Collection[str]] | None = None,
) -> AccuracyReport:
    """Accuracy report over an evaluated grid.

    ``rows[i]`` maps backend names to results for scenario ``i``; a backend
    absent from a row (not evaluated, not in the store) is treated as a
    missing point and degrades that backend to ``incomplete``.  The baseline
    backend itself is reported too (status ``baseline``, zero errors) so the
    artifact demonstrably covers every backend of the grid.  ``phases``
    maps a backend to the phases it models; one it omits is scored on all.
    """
    if len(rows) != len(scenario_labels):
        raise ValidationError("rows and scenario_labels must align")
    if baseline not in backends:
        raise ValidationError(
            f"baseline {baseline!r} is not among the report backends {list(backends)}"
        )
    baselines = [row.get(baseline) for row in rows]
    return AccuracyReport(
        grid=grid,
        baseline=baseline,
        num_scenarios=len(rows),
        backends=tuple(
            compute_backend_accuracy(
                name,
                [row.get(name) for row in rows],
                baselines,
                scenario_labels,
                baseline,
                None if phases is None else phases.get(name),
            )
            for name in backends
        ),
    )
