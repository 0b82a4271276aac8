"""YARN resource primitives: resources, priorities, requests, containers.

These mirror the objects of Section 3.3 of the paper: the ApplicationMaster
expresses its needs as a list of :class:`ResourceRequest` objects (number of
containers, priority, size, locality constraint, task type — Table 1), the
ResourceManager answers with :class:`Container` grants bound to a node.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..config import ContainerSpec
from ..exceptions import ConfigurationError

#: Priority value the MapReduce AM uses for map containers (RMContainerAllocator).
MAP_PRIORITY = 20
#: Priority value the MapReduce AM uses for reduce containers.
REDUCE_PRIORITY = 10
#: Priority used for the ApplicationMaster's own container.
AM_PRIORITY = 0

#: Wildcard locality: "any host / any rack" (Table 1 uses ``*``).
ANY_LOCATION = "*"


@dataclass(frozen=True)
class Resource:
    """A (memory, vcores) resource vector."""

    memory_bytes: int = 0
    vcores: int = 0

    @classmethod
    def zero(cls) -> "Resource":
        """The empty resource vector."""
        return cls(0, 0)

    @classmethod
    def from_spec(cls, spec: ContainerSpec) -> "Resource":
        """Build a resource vector from a container spec."""
        return cls(memory_bytes=spec.memory_bytes, vcores=spec.vcores)

    def __add__(self, other: "Resource") -> "Resource":
        return Resource(
            memory_bytes=self.memory_bytes + other.memory_bytes,
            vcores=self.vcores + other.vcores,
        )

    def __sub__(self, other: "Resource") -> "Resource":
        return Resource(
            memory_bytes=self.memory_bytes - other.memory_bytes,
            vcores=self.vcores - other.vcores,
        )

    def covers(self, other: "Resource") -> bool:
        """Whether this vector is at least ``other`` in every dimension."""
        return (
            self.memory_bytes >= other.memory_bytes and self.vcores >= other.vcores
        )


class Priority(enum.IntEnum):
    """Container priorities used by the MapReduce ApplicationMaster.

    The paper (Section 3.3) reports the values observed in
    ``RMContainerAllocator``: map containers are requested at priority 20 and
    reduce containers at priority 10, with map requests served first.  We
    keep the paper's convention that the *numerically larger* value is served
    first.
    """

    AM = AM_PRIORITY
    REDUCE = REDUCE_PRIORITY
    MAP = MAP_PRIORITY

    @property
    def serves_before(self) -> int:
        """Sort key: larger value means served earlier."""
        return -int(self)


class RequestState(enum.Enum):
    """Lifecycle of a container request (paper Figures 2-3 vocabulary)."""

    #: Not yet sent to the ResourceManager.
    PENDING = "pending"
    #: Sent to the RM but not yet assigned to a container.
    SCHEDULED = "scheduled"
    #: Assigned to a container.
    ASSIGNED = "assigned"
    #: The container has completed execution.
    COMPLETED = "completed"


@dataclass
class ResourceRequest:
    """One row of the AM's ResourceRequest table (paper Table 1).

    Attributes
    ----------
    num_containers:
        How many containers of this shape are being asked for.
    priority:
        Request priority (maps > reduces).
    resource:
        Size of each container.
    locality:
        Host name (``"node-2"``), rack name (``"rack-0"``) or
        :data:`ANY_LOCATION`.
    task_type:
        ``"map"``, ``"reduce"`` or ``"am"`` — informational, mirroring the
        last column of Table 1.
    """

    num_containers: int
    priority: Priority
    resource: Resource
    locality: str = ANY_LOCATION
    task_type: str = "map"
    state: RequestState = RequestState.PENDING

    def __post_init__(self) -> None:
        if self.num_containers <= 0:
            raise ConfigurationError("num_containers must be positive")
        if self.task_type not in {"map", "reduce", "am"}:
            raise ConfigurationError(f"unknown task type {self.task_type!r}")


_container_ids = itertools.count(1)


@dataclass
class Container:
    """A granted logical bundle of resources bound to a particular node."""

    container_id: int
    job_id: int
    node_id: int
    resource: Resource
    priority: Priority
    #: Simulation time at which the container was granted.
    granted_at: float = 0.0
    #: Simulation time at which the container was released (None while held).
    released_at: float | None = None
    #: Identifier of the task attempt currently bound to this container.
    assigned_task: str | None = None

    @classmethod
    def grant(
        cls,
        job_id: int,
        node_id: int,
        resource: Resource,
        priority: Priority,
        granted_at: float,
    ) -> "Container":
        """Create a container with a fresh cluster-unique identifier."""
        return cls(
            container_id=next(_container_ids),
            job_id=job_id,
            node_id=node_id,
            resource=resource,
            priority=priority,
            granted_at=granted_at,
        )


@dataclass
class ResourceRequestTable:
    """The set of outstanding requests of one ApplicationMaster.

    Provides the same summary view as Table 1 of the paper via :meth:`rows`.
    """

    requests: list[ResourceRequest] = field(default_factory=list)

    def add(self, request: ResourceRequest) -> None:
        """Append a request to the table."""
        self.requests.append(request)

    def outstanding(self) -> list[ResourceRequest]:
        """Requests that are still pending or scheduled, most urgent first."""
        pending = [
            request
            for request in self.requests
            if request.state in (RequestState.PENDING, RequestState.SCHEDULED)
        ]
        return sorted(pending, key=lambda request: request.priority.serves_before)

    def rows(self) -> list[dict[str, object]]:
        """Render the table as a list of dicts (used by the Table 1 bench)."""
        return [
            {
                "num_containers": request.num_containers,
                "priority": int(request.priority),
                "size": request.resource,
                "locality": request.locality,
                "task_type": request.task_type,
            }
            for request in self.requests
        ]
