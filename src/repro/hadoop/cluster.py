"""Cluster and node abstractions for the YARN simulator.

A :class:`Cluster` is built from a :class:`~repro.config.ClusterConfig`; every
:class:`Node` owns its hardware spec, its rack assignment, and the YARN
resource envelope (memory / vcores available for containers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ClusterConfig, NodeSpec
from ..exceptions import ConfigurationError
from .resources import Resource


@dataclass
class Node:
    """One worker node of the simulated cluster."""

    node_id: int
    rack: int
    spec: NodeSpec
    #: Total YARN-managed resources of the node.
    capacity: Resource
    #: Resources currently granted to running containers.
    allocated: Resource = field(default_factory=Resource.zero)
    #: False once the node has failed; dead nodes receive no new containers.
    alive: bool = True
    #: ``capacity - allocated``, cached with the ``allocated`` object it was
    #: computed from (``allocated`` is immutable and replaced on every change).
    _available: Resource | None = field(default=None, init=False, repr=False, compare=False)
    _available_for: Resource | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        """Stable display name, e.g. ``node-3``."""
        return f"node-{self.node_id}"

    @property
    def available(self) -> Resource:
        """Resources currently free for new containers."""
        allocated = self.allocated
        if allocated is not self._available_for:
            self._available = self.capacity - allocated
            self._available_for = allocated
        return self._available

    def can_fit(self, request: Resource) -> bool:
        """Whether a container of size ``request`` fits on this node right now."""
        return self.available.covers(request)

    def allocate(self, request: Resource) -> None:
        """Reserve ``request`` on this node.

        Raises
        ------
        ConfigurationError
            If the node does not have enough free resources (callers must
            check :meth:`can_fit` first; violating this indicates a scheduler
            bug).
        """
        if not self.can_fit(request):
            raise ConfigurationError(
                f"{self.name} cannot fit {request!r}; available {self.available!r}"
            )
        self.allocated = self.allocated + request

    def release(self, request: Resource) -> None:
        """Return ``request`` to the free pool."""
        released = self.allocated - request
        if released.memory_bytes < 0 or released.vcores < 0:
            raise ConfigurationError(
                f"{self.name} released more resources than allocated"
            )
        self.allocated = released

    @property
    def occupancy_rate(self) -> float:
        """Fraction of the node's YARN memory currently allocated (0..1)."""
        if self.capacity.memory_bytes == 0:
            return 0.0
        return self.allocated.memory_bytes / self.capacity.memory_bytes


class Cluster:
    """A homogeneous set of :class:`Node` objects plus rack topology."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.nodes: list[Node] = []
        per_node = Resource(
            memory_bytes=config.yarn_memory_per_node,
            vcores=config.yarn_vcores_per_node,
        )
        for node_id in range(config.num_nodes):
            rack = node_id % config.num_racks
            self.nodes.append(
                Node(node_id=node_id, rack=rack, spec=config.node, capacity=per_node)
            )

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, node_id: int) -> Node:
        """Return the node with identifier ``node_id``."""
        try:
            return self.nodes[node_id]
        except IndexError as exc:
            raise ConfigurationError(f"unknown node id {node_id}") from exc
