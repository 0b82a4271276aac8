"""Hadoop 2.x / YARN cluster simulator.

The paper validates its analytic model against measurements from a real
Hadoop 2.x cluster.  This subpackage is the substitute for that cluster
(see DESIGN.md, "Substitutions"): a deterministic discrete-event simulator of
a YARN cluster executing MapReduce jobs, faithful to the mechanisms the paper
identifies as relevant for performance:

* the YARN components — :class:`~repro.hadoop.rm.ResourceManager` with a
  pluggable scheduler (Capacity / FIFO / Fair),
  :class:`~repro.hadoop.nm.NodeManager` per node, and one
  :class:`~repro.hadoop.am.MRAppMaster` per job (Section 3.2 of the paper);
* the container request model — :class:`~repro.hadoop.resources.ResourceRequest`
  objects with priorities (map = 20 > reduce = 10), locality constraints and
  late binding (Section 3.3, Table 1);
* the map / reduce task lifecycles (pending → scheduled → assigned →
  completed, Figures 2-3), reducer slow start, and node-local placement of
  map tasks (Section 3.4);
* resource contention — processor-shared CPU and disk per node and a shared
  network fabric for the shuffle, which produce the queueing delays the
  analytic model has to predict.

The public entry point is :class:`~repro.hadoop.simulator.ClusterSimulator`.
The names below are exported lazily (PEP 562), so the job and task
descriptions the workload profiles use load without the simulator.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".cluster": ("Cluster", "Node"),
        ".hdfs": ("Block", "HdfsNamespace", "InputSplit"),
        ".resources": ("Container", "Priority", "Resource", "ResourceRequest"),
        ".tasks": ("TaskAttempt", "TaskState", "TaskType"),
        ".job": ("MapReduceJob",),
        ".simulator": ("ClusterSimulator", "SimulationResult"),
        ".trace": ("JobTrace", "TaskTrace"),
    },
)
