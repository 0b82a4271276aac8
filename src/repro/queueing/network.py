"""Closed multi-class queueing-network description and solution container.

A :class:`ClosedNetwork` bundles together the service centers, the task
classes with their populations, and the per-class per-center service demands.
Solvers in :mod:`repro.queueing.mva_exact`, :mod:`repro.queueing.mva_approximate`
and :mod:`repro.queueing.mva_overlap` consume a :class:`ClosedNetwork` and
produce a :class:`NetworkSolution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError
from .service_center import CenterKind, ServiceCenter, ServiceDemand


@dataclass
class ClosedNetwork:
    """A closed, multi-class, product-form queueing network.

    Parameters
    ----------
    centers:
        The shared resources.
    class_names:
        Names of the task classes (the paper uses ``map``, ``shuffle-sort``
        and ``merge``).
    populations:
        Number of circulating tasks of each class, aligned with
        ``class_names``.
    demands:
        Per (class, center) average service demands; missing pairs default to
        zero demand.
    think_times:
        Optional per-class "think time" spent outside all centers between
        visits (defaults to zero for a pure batch system, which is how the
        paper treats MapReduce tasks).
    """

    centers: list[ServiceCenter]
    class_names: list[str]
    populations: list[int]
    demands: list[ServiceDemand] = field(default_factory=list)
    think_times: list[float] | None = None

    def __post_init__(self) -> None:
        if not self.centers:
            raise ConfigurationError("network needs at least one service center")
        if not self.class_names:
            raise ConfigurationError("network needs at least one task class")
        if len(self.class_names) != len(set(self.class_names)):
            raise ConfigurationError("class names must be unique")
        center_names = [c.name for c in self.centers]
        if len(center_names) != len(set(center_names)):
            raise ConfigurationError("center names must be unique")
        if len(self.populations) != len(self.class_names):
            raise ConfigurationError(
                "populations must align with class_names "
                f"({len(self.populations)} vs {len(self.class_names)})"
            )
        for population in self.populations:
            if population < 0:
                raise ConfigurationError("populations must be non-negative")
        if self.think_times is None:
            self.think_times = [0.0] * len(self.class_names)
        if len(self.think_times) != len(self.class_names):
            raise ConfigurationError("think_times must align with class_names")
        for think in self.think_times:
            if think < 0:
                raise ConfigurationError("think times must be non-negative")
        known_classes = set(self.class_names)
        known_centers = set(center_names)
        for demand in self.demands:
            if demand.class_name not in known_classes:
                raise ConfigurationError(
                    f"demand references unknown class {demand.class_name!r}"
                )
            if demand.center_name not in known_centers:
                raise ConfigurationError(
                    f"demand references unknown center {demand.center_name!r}"
                )

    # -- convenience accessors ----------------------------------------------

    @property
    def num_classes(self) -> int:
        """Number of task classes."""
        return len(self.class_names)

    @property
    def num_centers(self) -> int:
        """Number of service centers."""
        return len(self.centers)

    def class_index(self, class_name: str) -> int:
        """Return the index of ``class_name`` in :attr:`class_names`."""
        try:
            return self.class_names.index(class_name)
        except ValueError as exc:
            raise ConfigurationError(f"unknown class {class_name!r}") from exc

    def center_index(self, center_name: str) -> int:
        """Return the index of ``center_name`` among :attr:`centers`."""
        for index, center in enumerate(self.centers):
            if center.name == center_name:
                return index
        raise ConfigurationError(f"unknown center {center_name!r}")

    def demand_matrix(self) -> np.ndarray:
        """Return the (num_classes, num_centers) matrix of service demands."""
        matrix = np.zeros((self.num_classes, self.num_centers), dtype=float)
        for demand in self.demands:
            row = self.class_index(demand.class_name)
            col = self.center_index(demand.center_name)
            matrix[row, col] += demand.demand
        return matrix

    def queueing_mask(self) -> np.ndarray:
        """Boolean vector marking which centers are queueing (vs. delay)."""
        return np.array(
            [center.kind is CenterKind.QUEUEING for center in self.centers],
            dtype=bool,
        )

    def server_vector(self) -> np.ndarray:
        """Number of servers per center (used by the multi-server MVA approximation)."""
        return np.array([center.servers for center in self.centers], dtype=float)

    def population_vector(self) -> np.ndarray:
        """Populations as an integer numpy vector."""
        return np.asarray(self.populations, dtype=int)

    def think_time_vector(self) -> np.ndarray:
        """Think times as a float numpy vector."""
        assert self.think_times is not None  # normalised in __post_init__
        return np.asarray(self.think_times, dtype=float)


@dataclass(frozen=True)
class NetworkSolution:
    """Solution of a closed network produced by one of the MVA solvers.

    Attributes
    ----------
    class_names / center_names:
        Labels for the rows/columns of the matrices below.
    residence_times:
        (classes, centers) matrix ``R_{c,k}``: time a class-``c`` task spends
        at center ``k`` per system visit, **including** queueing.
    response_times:
        Per-class total response time ``R_c = sum_k R_{c,k}``.
    throughputs:
        Per-class throughput ``X_c``.
    queue_lengths:
        (classes, centers) matrix of mean number of class-``c`` tasks at
        center ``k``.
    utilizations:
        (classes, centers) matrix of utilisation contributed by each class.
    iterations:
        Number of iterations the (approximate) solver used; 0 for exact MVA.
    """

    class_names: tuple[str, ...]
    center_names: tuple[str, ...]
    residence_times: np.ndarray
    response_times: np.ndarray
    throughputs: np.ndarray
    queue_lengths: np.ndarray
    utilizations: np.ndarray
    iterations: int = 0

    def response_time(self, class_name: str) -> float:
        """Response time of one class by name."""
        return float(self.response_times[self.class_names.index(class_name)])

    def throughput(self, class_name: str) -> float:
        """Throughput of one class by name."""
        return float(self.throughputs[self.class_names.index(class_name)])
