"""Scheduler interface shared by the Capacity, FIFO and Fair schedulers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, NamedTuple

from ..cluster import Cluster
from ..resources import Priority, Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from ..am import MRAppMaster


class Assignment(NamedTuple):
    """One container assignment decided by a scheduler pass."""

    job_id: int
    node_id: int
    priority: Priority
    resource: Resource
    task_type: str
    #: Identifier of the concrete pending task selected for this container
    #: (the AM may rebind it — late binding — but the simulator honours it).
    task_id: str | None = None


class Scheduler(ABC):
    """A YARN scheduler: decides which outstanding requests get containers.

    Schedulers are stateless between calls; each :meth:`assign` pass looks at
    the current free capacity of the cluster and the outstanding requests of
    the registered ApplicationMasters and returns the containers to grant.
    The ResourceManager applies the assignments (reserving node resources and
    notifying the AMs).
    """

    #: Human-readable scheduler name.
    name: str = "base"

    @abstractmethod
    def application_order(self, applications: list["MRAppMaster"]) -> list["MRAppMaster"]:
        """Return the order in which applications are offered free capacity."""

    def assign(
        self,
        cluster: Cluster,
        applications: list["MRAppMaster"],
    ) -> list[Assignment]:
        """Produce container assignments for the current cluster state.

        The default implementation walks applications in
        :meth:`application_order`, asks each for its outstanding requests
        (already sorted by priority, maps before reduces), and places each
        container honouring locality preferences when possible.
        """
        assignments: list[Assignment] = []
        # Track capacity tentatively consumed by this pass without mutating
        # the real nodes; the ResourceManager commits the assignments.  Dead
        # nodes are excluded here, which is what keeps every placement path
        # (preferred and scan) away from failed hardware.
        tentative: dict[int, Resource] = {
            node.node_id: node.available for node in cluster if node.alive
        }
        # Free capacity only shrinks within a pass, so once a container shape
        # fails to fit on every node, every later ask of the same shape fails
        # too: remember it and skip the full fit scan.  Asks of one kind share
        # one Resource object, so a repeat of the last unplaceable shape is
        # caught by identity before hashing.
        unplaceable: set[Resource] = set()
        last_unplaceable: Resource | None = None

        for app in self.application_order(applications):
            for ask in app.container_asks():
                resource = ask.resource
                if resource is last_unplaceable:
                    continue
                if unplaceable and resource in unplaceable:
                    last_unplaceable = resource
                    continue
                placed_node = self._place(
                    cluster, tentative, ask.preferred_nodes, resource
                )
                if placed_node is None:
                    unplaceable.add(resource)
                    last_unplaceable = resource
                    continue
                tentative[placed_node] = tentative[placed_node] - resource
                assignments.append(
                    Assignment(
                        job_id=app.job.job_id,
                        node_id=placed_node,
                        priority=ask.priority,
                        resource=resource,
                        task_type=ask.task_type,
                        task_id=ask.task_id,
                    )
                )
        return assignments

    @staticmethod
    def _place(
        cluster: Cluster,
        tentative: dict[int, Resource],
        preferred_nodes: tuple[int, ...],
        resource: Resource,
    ) -> int | None:
        """Pick a node for one container.

        Preference order: (1) a preferred (data-local) node with capacity,
        (2) the node with the lowest occupancy rate that has capacity — the
        "uniform distribution over nodes with the highest remaining capacity"
        rule of paper Section 4.2.2.  Occupancy is computed against the
        capacity still free in *this* scheduling pass (``tentative``).
        """
        for node_id in preferred_nodes:
            free = tentative.get(node_id)
            if free is not None and free.covers(resource):
                return node_id

        # Single fused scan: find the fitting node with the lowest occupancy
        # (ties: lowest id) without materialising a candidate list per ask.
        best_id: int | None = None
        best_occupancy = 0.0
        for node in cluster:
            free = tentative.get(node.node_id)
            if free is None or not free.covers(resource):
                continue
            capacity_bytes = node.capacity.memory_bytes
            occupancy = (
                1.0 - free.memory_bytes / capacity_bytes if capacity_bytes else 0.0
            )
            if best_id is None or occupancy < best_occupancy:
                best_id = node.node_id
                best_occupancy = occupancy
        return best_id
