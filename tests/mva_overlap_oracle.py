"""The NumPy overlap-weighted MVA, kept as the oracle of the float solver.

This is :func:`repro.queueing.mva_overlap.solve_mva_with_overlaps` as it
was written over NumPy arrays (one ``weights @ queue`` product per
iteration).  The solver now runs on Python floats;
``tests/test_mva_overlap.py`` checks that both reach the same fixed point in
the same number of iterations.  The ``@`` product goes to the host's BLAS,
so the oracle's last bits depend on the BLAS kernel: compare with a
relative tolerance, never ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.queueing.mva_overlap import PlainNetwork, OverlapFactors
from repro.queueing.network import ClosedNetwork, NetworkSolution


def solve_mva_with_overlaps_numpy(
    network: ClosedNetwork | PlainNetwork,
    overlaps: OverlapFactors,
    jobs_in_system: int = 1,
    tolerance: float = 1e-9,
    max_iterations: int = 10_000,
) -> NetworkSolution:
    """The overlap-weighted Schweitzer fixed point over NumPy arrays."""
    if isinstance(network, ClosedNetwork):
        network = PlainNetwork.of(network)
    if network.class_names != tuple(overlaps.class_names):
        raise ConfigurationError("overlap factors classes do not match network classes")
    demands = np.array(network.demands, dtype=float)
    queueing = np.array(network.queueing, dtype=bool)
    servers = np.array(network.servers, dtype=float)
    population = np.array(network.populations, dtype=float)
    think = np.array(network.think_times, dtype=float)
    num_classes, num_centers = demands.shape
    weights = overlaps.combined(jobs_in_system)

    active = population > 0
    queue = np.zeros((num_classes, num_centers))
    for c in range(num_classes):
        if not active[c]:
            continue
        positive = (demands[c] > 0) & queueing
        count = int(positive.sum())
        if count:
            queue[c, positive] = population[c] / count

    own_correction = np.where(active, (population - 1.0) / np.maximum(population, 1.0), 0.0)
    diagonal_weights = np.diagonal(weights)
    self_adjustment = (diagonal_weights * (1.0 - own_correction))[:, None]
    active_column = active[:, None]

    residence = np.zeros_like(demands)
    throughput = np.zeros(num_classes)
    for iteration in range(1, max_iterations + 1):
        seen = weights @ queue - self_adjustment * queue
        excess = np.maximum(0.0, seen - (servers - 1.0))
        residence = np.where(queueing, demands * (1.0 + excess / servers), demands)
        residence = np.where(active_column, residence, 0.0)
        totals = think + residence.sum(axis=1)
        throughput = np.divide(
            population,
            totals,
            out=np.zeros_like(population),
            where=(totals > 0) & active,
        )
        new_queue = residence * throughput[:, None]
        delta = float(np.max(np.abs(new_queue - queue))) if new_queue.size else 0.0
        queue = new_queue
        if delta <= tolerance:
            break
    else:
        raise ConvergenceError(f"overlap MVA did not converge in {max_iterations} iterations")

    return NetworkSolution(
        class_names=network.class_names,
        center_names=network.center_names,
        residence_times=residence,
        response_times=residence.sum(axis=1),
        throughputs=throughput,
        queue_lengths=queue,
        utilizations=demands * throughput[:, None],
        iterations=iteration,
    )
