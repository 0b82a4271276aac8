"""Summary statistics and error accounting of the benchmark."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (NumPy's default)."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it.
    """
    best = None
    for q in PERCENTILE_LADDER:
        if count * (100.0 - q) / 100.0 >= MIN_BEYOND:
            best = q
    return best


def tail(values: Sequence[float]) -> tuple[float, str]:
    """The tail timing and its label: the rule's percentile, else the maximum."""
    q = tail_percentile(len(values))
    if q is None:
        return max(values), "max"
    return percentile(values, q), f"p{q:g}"


@dataclass
class Tally:
    """Operations attempted, and those that failed, were refused, or were wrong."""

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    wrong: int = 0

    def add(self, outcome: str = "ok") -> None:
        """Count one operation: ``ok``, ``failed``, ``refused`` or ``wrong``."""
        if outcome not in ("ok", "failed", "refused", "wrong"):
            raise ValueError(f"unknown outcome {outcome!r}")
        self.attempted += 1
        if outcome != "ok":
            setattr(self, outcome, getattr(self, outcome) + 1)

    @property
    def errors(self) -> int:
        return self.failed + self.refused + self.wrong

    @property
    def error_ratio(self) -> float:
        return self.errors / self.attempted if self.attempted else 1.0
