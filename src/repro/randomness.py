"""Seeded random-number helpers.

Every stochastic component of the library (simulator service-time jitter,
workload generators) receives its randomness through :func:`make_rng` so that
all experiments are reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Default seed used by examples and benchmarks when none is supplied.
DEFAULT_SEED = 20170321  # date of the EDBT/ICDT 2017 workshop day


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a numpy :class:`~numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` → use :data:`DEFAULT_SEED`; an ``int`` → seed a new
        generator; an existing generator → returned unchanged (so callers can
        thread one generator through a pipeline).
    """
    import numpy as np  # loaded by the first caller, not by importing this module

    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` independent child generators."""
    import numpy as np

    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
