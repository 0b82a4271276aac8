"""Error metrics used by the evaluation (relative error, summaries)."""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ValidationError


def relative_error(estimate: float, measured: float) -> float:
    """Relative error of ``estimate`` against ``measured`` (signed).

    Positive values mean the estimate over-estimates the measurement; the
    paper reports absolute relative errors (11–13.5 % etc.).
    """
    if measured <= 0:
        raise ValidationError("measured value must be positive")
    return (estimate - measured) / measured


@dataclass(frozen=True)
class ErrorSummary:
    """Aggregate of relative errors over a set of experiment points."""

    mean_absolute: float
    max_absolute: float
    min_absolute: float
    mean_signed: float
    count: int


def summarize_errors(errors: list[float]) -> ErrorSummary:
    """Summarise a list of signed relative errors."""
    if not errors:
        raise ValidationError("cannot summarise an empty error list")
    absolute = [abs(value) for value in errors]
    return ErrorSummary(
        mean_absolute=sum(absolute) / len(absolute),
        max_absolute=max(absolute),
        min_absolute=min(absolute),
        mean_signed=sum(errors) / len(errors),
        count=len(errors),
    )
