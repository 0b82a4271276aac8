"""Overlap-adjusted approximate MVA (Mak & Lundstrom, 1990).

For a workload of tasks with precedence constraints, the queueing delay a
class-``i`` task suffers because of class-``j`` tasks is *not* proportional to
the full queue of class ``j``: it is proportional to the fraction of time the
two classes actually execute concurrently.  Mak & Lundstrom capture this with
**overlap factors**, and the paper (Sections 4.2.3 and 4.2.5) adopts the same
idea: the queueing terms of the MVA are weighted by the intra-job overlap
``alpha_{ij}`` and the inter-job overlap ``beta_{kr}``.

:class:`OverlapFactors` carries both matrices; :func:`solve_mva_with_overlaps`
is a Schweitzer-style fixed point whose arrival-queue estimate is weighted by
those factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, ConvergenceError
from .network import ClosedNetwork, NetworkSolution


@dataclass(frozen=True)
class OverlapFactors:
    """Overlap factors between task classes.

    Attributes
    ----------
    class_names:
        Names aligned with the rows/columns of the matrices.
    intra_job:
        ``alpha[i, j]`` — probability that a class-``j`` task *of the same
        job* is executing while a class-``i`` task executes.  The diagonal
        describes overlap with other instances of the same class.
    inter_job:
        ``beta[i, j]`` — probability that a class-``j`` task *of a different
        job* is executing while a class-``i`` task executes.
    """

    class_names: tuple[str, ...]
    intra_job: np.ndarray
    inter_job: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.class_names)
        for name, matrix in (("intra_job", self.intra_job), ("inter_job", self.inter_job)):
            if matrix.shape != (n, n):
                raise ConfigurationError(
                    f"{name} matrix must be {n}x{n}, got {matrix.shape}"
                )
            if np.any(matrix < -1e-12) or np.any(matrix > 1.0 + 1e-9):
                raise ConfigurationError(f"{name} factors must lie in [0, 1]")
        # Per-instance memo for :meth:`combined` (frozen dataclass, hence
        # object.__setattr__); solvers call it once per fixed-point solve and
        # the matrices are treated as read-only.
        object.__setattr__(self, "_combined_cache", {})

    @classmethod
    def uniform(cls, class_names: tuple[str, ...] | list[str], value: float = 1.0) -> "OverlapFactors":
        """Build factors with every entry equal to ``value`` (default: full overlap).

        With ``value=1`` the overlap-adjusted MVA degenerates to plain
        Schweitzer MVA, which is a useful baseline and test oracle.
        """
        names = tuple(class_names)
        matrix = np.full((len(names), len(names)), float(value))
        return cls(class_names=names, intra_job=matrix, inter_job=matrix.copy())

    def combined(self, jobs_in_system: int) -> np.ndarray:
        """Effective per-class-pair weighting for ``jobs_in_system`` concurrent jobs.

        With a single job only the intra-job factors matter.  With ``J`` jobs,
        a class-``i`` task shares the resources with same-job tasks (weighted
        by ``alpha``) and with tasks of the other ``J - 1`` jobs (weighted by
        ``beta``); the effective factor is the population-weighted mix::

            w_{ij} = (alpha_{ij} + (J - 1) * beta_{ij}) / J

        which keeps the factor in ``[0, 1]`` and reduces to ``alpha`` for
        ``J = 1``.

        The result is memoized per instance (callers must not mutate it):
        solver loops re-solve the same factors for a fixed ``jobs_in_system``.
        """
        if jobs_in_system <= 0:
            raise ConfigurationError("jobs_in_system must be positive")
        cache: dict[int, np.ndarray] = self._combined_cache  # type: ignore[attr-defined]
        cached = cache.get(jobs_in_system)
        if cached is not None:
            return cached
        if jobs_in_system == 1:
            weight = self.intra_job.copy()
        else:
            weight = np.clip(
                (self.intra_job + (jobs_in_system - 1) * self.inter_job) / jobs_in_system,
                0.0,
                1.0,
            )
        # The cached array is shared between callers: make accidental in-place
        # mutation an immediate error instead of silent cache corruption.
        weight.setflags(write=False)
        cache[jobs_in_system] = weight
        return weight


@dataclass(frozen=True)
class PlainNetwork:
    """A closed network's solver inputs as plain Python numbers.

    What :func:`solve_mva_with_overlaps` reads of a :class:`ClosedNetwork`,
    extracted once, so a caller that solves one network many times (once
    per modified-MVA iteration) does not rebuild the arrays per solve.
    """

    class_names: tuple[str, ...]
    center_names: tuple[str, ...]
    #: ``demands[c][k]``: service demand of class ``c`` at center ``k``.
    demands: tuple[tuple[float, ...], ...]
    queueing: tuple[bool, ...]
    servers: tuple[float, ...]
    populations: tuple[float, ...]
    think_times: tuple[float, ...]

    @classmethod
    def of(cls, network: ClosedNetwork) -> "PlainNetwork":
        """The inputs of ``network``."""
        return cls(
            class_names=tuple(network.class_names),
            center_names=tuple(center.name for center in network.centers),
            demands=tuple(map(tuple, network.demand_matrix().tolist())),
            queueing=tuple(network.queueing_mask().tolist()),
            servers=tuple(network.server_vector().tolist()),
            populations=tuple(network.population_vector().astype(float).tolist()),
            think_times=tuple(network.think_time_vector().tolist()),
        )


def solve_mva_with_overlaps(
    network: ClosedNetwork | PlainNetwork,
    overlaps: OverlapFactors,
    jobs_in_system: int = 1,
    tolerance: float = 1e-9,
    max_iterations: int = 10_000,
) -> NetworkSolution:
    """Solve ``network`` with overlap-weighted approximate MVA.

    The fixed point is the Schweitzer iteration where the queue length of
    class ``j`` seen by an arriving class-``i`` task is scaled by the
    effective overlap ``w_{ij}`` (see :meth:`OverlapFactors.combined`).

    The networks the model builds are 3 classes by 3 centers, where NumPy's
    per-call overhead dwarfs the arithmetic, so the iteration runs on Python
    floats.  Every sum is accumulated left to right, never by BLAS, whose
    kernels (and so whose rounding) differ between CPUs: the bits are the
    same on every host.

    Parameters
    ----------
    network:
        Closed network (or its :class:`PlainNetwork`); class names must
        match ``overlaps.class_names``.
    overlaps:
        Intra-/inter-job overlap factors.
    jobs_in_system:
        Number of concurrently executing jobs (used to mix alpha and beta).
    """
    if isinstance(network, ClosedNetwork):
        network = PlainNetwork.of(network)
    if network.class_names != tuple(overlaps.class_names):
        raise ConfigurationError(
            "overlap factors classes "
            f"{overlaps.class_names!r} do not match network classes "
            f"{network.class_names!r}"
        )
    demands = network.demands
    queueing = network.queueing
    servers = network.servers
    population = network.populations
    think = network.think_times
    weights = overlaps.combined(jobs_in_system).tolist()
    classes = range(len(demands))
    centers = range(len(servers))
    others = classes[1:]
    # Multi-server correction: only the customers in excess of the free
    # servers cause waiting (M/M/c-style approximation).
    spare = [count - 1.0 for count in servers]
    zero_row = [0.0 for _ in centers]
    active = [count > 0 for count in population]
    # Initial guess: each active class spread evenly over the queueing
    # centers where it has demand.
    queue = []
    for c in classes:
        positive = [k for k in centers if demands[c][k] > 0 and queueing[k]] if active[c] else []
        queue.append([population[c] / len(positive) if k in positive else 0.0 for k in centers])
    # The arrival queue a class-``c`` task sees at center ``k`` is
    # ``sum_j w[c,j] * q[j,k]`` with the Schweitzer (N-1)/N self-correction
    # on the diagonal term: minus ``w[c,c] * (1 - (N_c - 1)/N_c) * q[c,k]``.
    self_adjustment = [
        weights[c][c] * (1.0 - (count - 1.0) / count) if count > 0 else 0.0
        for c, count in enumerate(population)
    ]

    residence = [zero_row for _ in classes]
    response = [0.0 for _ in classes]
    throughput = [0.0 for _ in classes]
    for iteration in range(1, max_iterations + 1):
        columns = list(zip(*queue))
        new_queue = []
        for c in classes:
            row = zero_row
            total = rate = 0.0
            if active[c]:
                weight = weights[c]
                own = queue[c]
                adjustment = self_adjustment[c]
                row = []
                for k in centers:
                    demand = demands[c][k]
                    if queueing[k]:
                        column = columns[k]
                        seen = weight[0] * column[0]
                        for j in others:
                            seen += weight[j] * column[j]
                        excess = seen - adjustment * own[k] - spare[k]
                        if excess > 0.0:
                            demand = demand * (1.0 + excess / servers[k])
                    row.append(demand)
                    total += demand
                cycle = think[c] + total
                if cycle > 0:
                    rate = population[c] / cycle
            residence[c] = row
            response[c] = total
            throughput[c] = rate
            new_queue.append([value * rate for value in row])
        delta = 0.0
        for new_row, old_row in zip(new_queue, queue):
            for new, old in zip(new_row, old_row):
                change = abs(new - old)
                if change > delta:
                    delta = change
        queue = new_queue
        if delta <= tolerance:
            break
    else:
        raise ConvergenceError(
            f"overlap MVA did not converge in {max_iterations} iterations"
        )

    return NetworkSolution(
        class_names=network.class_names,
        center_names=network.center_names,
        residence_times=np.array(residence),
        response_times=np.array(response),
        throughputs=np.array(throughput),
        queue_lengths=np.array(queue),
        utilizations=np.array(
            [[demand * rate for demand in row] for row, rate in zip(demands, throughput)]
        ),
        iterations=iteration,
    )
