"""A scalar stand-in for the slice of NumPy the closed-form models call.

The ARIA bounds and the Herodotou phase costs are written once, over an
array namespace ``xp``: NumPy itself evaluates a whole grid of stacked
columns, and :data:`scalar` evaluates one point on plain Python numbers.
Each name is bound to the ``math`` or builtin function a per-point formula
would call, so a point costs no array allocation and gives the bits the
per-point arithmetic always gave.
"""

from __future__ import annotations

import math
from types import SimpleNamespace


def _where(condition, if_true, if_false):
    return if_true if condition else if_false


#: The one-point namespace.
scalar = SimpleNamespace(
    any=bool,
    ceil=math.ceil,
    log2=math.log2,
    maximum=max,
    where=_where,
)
