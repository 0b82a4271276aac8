"""Minimal ASCII line plots for terminal output.

The paper presents its results as line plots (Figures 10–15); the benches
print a textual table plus an ASCII sketch so the trend (who is above whom,
how the curves fall with more nodes / rise with more jobs) is visible without
a plotting library.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..exceptions import ValidationError


def ascii_series_plot(
    x_values: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
) -> str:
    """Render one or more series as a crude ASCII scatter/line plot.

    A NaN value (a point that was never measured) is left out of the plot.
    """
    if not series:
        raise ValidationError("at least one series is required")
    if width < 10 or height < 4:
        raise ValidationError("plot must be at least 10x4 characters")
    all_values = [
        value for values in series.values() for value in values if not math.isnan(value)
    ]
    if not all_values:
        raise ValidationError("series contain no values")
    minimum = min(all_values)
    maximum = max(all_values)
    if maximum == minimum:
        maximum = minimum + 1.0
    x_min = min(x_values)
    x_max = max(x_values)
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" " for _ in range(width)] for _ in range(height)]
    markers = "o+x*#@"
    for series_index, (name, values) in enumerate(series.items()):
        marker = markers[series_index % len(markers)]
        for x_value, y_value in zip(x_values, values):
            if math.isnan(y_value):
                continue
            column = int(round((x_value - x_min) / (x_max - x_min) * (width - 1)))
            row = int(round((y_value - minimum) / (maximum - minimum) * (height - 1)))
            grid[height - 1 - row][column] = marker
    lines = ["".join(row) for row in grid]
    legend = "   ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series)
    )
    header = f"y: {minimum:.1f} .. {maximum:.1f}   x: {x_min:g} .. {x_max:g}"
    return "\n".join([header] + lines + [legend])
