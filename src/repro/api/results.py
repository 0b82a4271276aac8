"""Uniform prediction results returned by every backend.

Each backend — analytic, static, or simulated — answers a scenario with the
same :class:`PredictionResult` shape: the total job response-time estimate in
seconds, a per-phase breakdown (phase name → seconds), and a free-form
metadata dictionary with backend-specific diagnostics (iteration counts,
bounds, per-repetition means, ...).  The shared shape is what makes
side-by-side comparison and caching possible.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, ClassVar

from ..analysis.errors import relative_error
from ..exceptions import ValidationError
from .scenario import Scenario


#: Leaf types :func:`_json_normalise` returns unchanged (exact types, so a
#: ``str`` subclass key still goes through ``str()``).
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_normalise(value: Any) -> Any:
    """Deep-convert containers to their JSON shapes (tuples become lists).

    Results travel through JSON twice — the persistent store and the
    process-pool round-trip — so the in-memory representation must already be
    JSON-canonical or a freshly computed result would compare unequal to the
    same result read back from disk.
    """
    if isinstance(value, Mapping):
        if all(type(key) is str and type(item) in _JSON_SCALARS for key, item in value.items()):
            return dict(value)  # already flat JSON: the common backend case
        return {str(key): _json_normalise(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_normalise(item) for item in value]
    return value


@dataclass(frozen=True)
class PredictionResult:
    """Outcome of evaluating one scenario with one backend."""

    #: Successful results answer ``True``; :class:`FailedResult` answers
    #: ``False``.  Grid consumers use this to keep mixed rows structural.
    ok: ClassVar[bool] = True

    backend: str
    scenario: Scenario
    total_seconds: float
    #: Per-phase breakdown, e.g. ``{"map": 41.2, "shuffle-sort": 12.9, ...}``.
    phases: Mapping[str, float] = field(default_factory=dict)
    #: Backend-specific diagnostics (iterations, bounds, repetition means, ...).
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Results are shared through the service cache: freeze the mappings so
        # a caller's mutation cannot poison later cache hits.
        object.__setattr__(self, "phases", MappingProxyType(dict(self.phases)))
        object.__setattr__(
            self, "metadata", MappingProxyType(_json_normalise(self.metadata))
        )

    def relative_error_to(self, baseline: "PredictionResult") -> float:
        """Signed relative error of this estimate against ``baseline``."""
        return relative_error(self.total_seconds, baseline.total_seconds)

    def to_dict(self) -> dict:
        """JSON-serialisable view (used by the CLI's machine-readable output)."""
        return {
            "backend": self.backend,
            "scenario": self.scenario.to_dict(),
            "total_seconds": self.total_seconds,
            "phases": dict(self.phases),
            "metadata": dict(self.metadata),
        }

    def canonical_json(self) -> str:
        """:meth:`to_dict` as sorted-key JSON, encoded on first request only.

        Kept in the instance dict (outside the fields, so equality ignores
        it): a result the service cache answers many times is encoded once.
        """
        text = self.__dict__.get("_canonical_json")
        if text is None:
            text = self.__dict__["_canonical_json"] = json.dumps(self.to_dict(), sort_keys=True)
        return text

    @classmethod
    def from_dict(cls, data: Mapping) -> "PredictionResult":
        """Rebuild a result from :meth:`to_dict` output (store / process pool)."""
        if not isinstance(data, Mapping):
            raise ValidationError(
                f"prediction result must be a mapping, got {type(data).__name__}"
            )
        try:
            return cls(
                backend=data["backend"],
                scenario=Scenario.from_dict(data["scenario"]),
                total_seconds=float(data["total_seconds"]),
                phases={
                    str(name): float(seconds)
                    for name, seconds in dict(data.get("phases", {})).items()
                },
                metadata=dict(data.get("metadata", {})),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"invalid prediction result: {exc}") from exc

    def summary(self) -> str:
        """One-line human-readable summary."""
        phases = ", ".join(
            f"{name}={seconds:.2f}s" for name, seconds in self.phases.items()
        )
        return f"[{self.backend}] total={self.total_seconds:.2f}s ({phases})"


@dataclass(frozen=True)
class FailedResult:
    """Structured record of one (scenario, backend) evaluation that failed.

    Under the suite-evaluation ``on_error="record"`` contract a point that
    exhausts its retries (or hits an open circuit breaker) lands in the
    result grid as one of these instead of aborting the sweep.  It mirrors
    enough of :class:`PredictionResult`'s surface — ``backend``,
    ``scenario``, a ``total_seconds`` of NaN, an empty phase breakdown — for
    grid consumers (series extraction, accuracy reports) to handle mixed
    rows structurally; the ``ok`` flag tells the two apart.  Failed results
    are never persisted to the store: a later run re-attempts the point.
    """

    ok: ClassVar[bool] = False

    backend: str
    scenario: Scenario
    #: Exception class name of the final failure (e.g. ``"TransientError"``).
    error_type: str
    #: Final failure message.
    error: str
    #: Attempts consumed (1 = no retries were possible or configured).
    attempts: int = 1
    #: NaN: a failed point contributes no estimate to a series.
    total_seconds: float = float("nan")
    phases: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", MappingProxyType(dict(self.phases)))

    def to_dict(self) -> dict:
        """JSON-serialisable view (mirrors :meth:`PredictionResult.to_dict`)."""
        return {
            "failed": True,
            "backend": self.backend,
            "scenario": self.scenario.to_dict(),
            "error_type": self.error_type,
            "error": self.error,
            "attempts": self.attempts,
        }

    def canonical_json(self) -> str:
        """:meth:`to_dict` as sorted-key JSON (failures are never cached, so
        there is nothing to keep)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"[{self.backend}] FAILED after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.error}"
        )


@dataclass(frozen=True)
class BackendComparison:
    """All backends' answers to one scenario, with errors against a baseline."""

    scenario: Scenario
    baseline: str
    results: dict[str, PredictionResult]

    def baseline_result(self) -> PredictionResult:
        """The baseline backend's result."""
        return self.results[self.baseline]

    def relative_errors(self) -> dict[str, float]:
        """Signed relative errors of every non-baseline backend vs. the baseline."""
        reference = self.baseline_result()
        return {
            name: result.relative_error_to(reference)
            for name, result in self.results.items()
            if name != self.baseline
        }
