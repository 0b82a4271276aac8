"""ResourceManager: global arbitration of cluster resources.

The RM runs the pluggable scheduler over the outstanding requests of the
registered ApplicationMasters and turns scheduler decisions into granted
:class:`~repro.hadoop.resources.Container` objects, reserving node capacity.
It mirrors the role described in paper Section 3.2 (Scheduler +
ApplicationManager service); the AM-side behaviour lives in
:mod:`repro.hadoop.am`.
"""

from __future__ import annotations

from typing import NamedTuple

from ..exceptions import SchedulingError
from .am import MRAppMaster
from .cluster import Cluster
from .resources import Container
from .scheduler import Scheduler


class Grant(NamedTuple):
    """One container grant produced by an allocation pass."""

    application: MRAppMaster
    container: Container
    #: Task the scheduler had in mind (the AM may rebind it: late binding).
    hinted_task_id: str | None


class ResourceManager:
    """Global resource arbiter."""

    def __init__(self, cluster: Cluster, scheduler: Scheduler) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self._applications: list[MRAppMaster] = []
        self._live_containers: dict[int, Container] = {}

    # -- application registry -----------------------------------------------------

    def submit_application(self, application: MRAppMaster) -> None:
        """Register a new application (its AM container is requested by the AM)."""
        if application in self._applications:
            raise SchedulingError("application already registered")
        self._applications.append(application)

    def unregister_application(self, application: MRAppMaster) -> None:
        """Remove a finished application from the registry."""
        if application in self._applications:
            self._applications.remove(application)

    # -- allocation ----------------------------------------------------------------

    def allocate(self, now: float) -> list[Grant]:
        """Run one scheduling pass and commit the resulting assignments."""
        if not self._applications:
            return []
        assignments = self.scheduler.assign(self.cluster, self._applications)
        grants: list[Grant] = []
        app_by_job = {app.job.job_id: app for app in self._applications}
        for assignment in assignments:
            application = app_by_job.get(assignment.job_id)
            if application is None:
                raise SchedulingError(
                    f"scheduler assigned a container to unknown job {assignment.job_id}"
                )
            node = self.cluster.node(assignment.node_id)
            if not node.can_fit(assignment.resource):
                # The scheduler works on a consistent snapshot, so this should
                # not happen; guard anyway to fail loudly instead of silently
                # oversubscribing a node.
                raise SchedulingError(
                    f"node {node.name} cannot host the assigned container"
                )
            node.allocate(assignment.resource)
            container = Container.grant(
                job_id=assignment.job_id,
                node_id=assignment.node_id,
                resource=assignment.resource,
                priority=assignment.priority,
                granted_at=now,
            )
            self._live_containers[container.container_id] = container
            grants.append(
                Grant(
                    application=application,
                    container=container,
                    hinted_task_id=assignment.task_id,
                )
            )
        return grants

    def release_container(self, container: Container, now: float) -> None:
        """Return a container's resources to its node."""
        if container.container_id not in self._live_containers:
            raise SchedulingError(
                f"container {container.container_id} is not live"
            )
        node = self.cluster.node(container.node_id)
        node.release(container.resource)
        container.released_at = now
        del self._live_containers[container.container_id]
