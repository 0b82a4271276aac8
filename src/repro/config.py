"""Configuration objects shared by the simulator and the analytic model.

The paper's evaluation (Section 5.1) fixes a homogeneous cluster: every node
has the same CPU, memory, disk, and network characteristics.  We mirror that
with a :class:`NodeSpec` shared by all nodes of a :class:`ClusterConfig`.

Three configuration layers exist:

* :class:`NodeSpec` — hardware of a single worker node;
* :class:`ClusterConfig` — number of nodes + node spec + YARN container
  sizing, from which the per-node container caps of Table 2
  (``MaxMapPerNode`` / ``MaxReducePerNode``) are derived;
* :class:`SchedulerConfig` — Capacity-scheduler relevant knobs (slow start
  threshold, locality, reduce ramp-up);
* :class:`FailureSpec` — deterministic failure injection for the simulator
  (stragglers, task-attempt failures with re-execution, whole-node loss,
  speculative execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .exceptions import ConfigurationError
from .units import GiB, MiB


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of a single worker node.

    Defaults follow the paper's testbed (Section 5.1): 2x Intel Xeon
    E5-2630L v2 (6 cores each, 12 physical cores), 128 GB RAM, one SATA-3
    disk, gigabit Ethernet.
    """

    cpu_cores: int = 12
    memory_bytes: int = 128 * GiB
    disk_count: int = 1
    #: Sustained sequential disk bandwidth (bytes/second).
    disk_bandwidth: float = 150.0 * MiB
    #: Node network bandwidth (bytes/second); 1 GbE ~ 117 MiB/s payload.
    network_bandwidth: float = 117.0 * MiB
    #: Relative CPU speed factor (1.0 = reference speed used by profiles).
    cpu_speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.cpu_cores <= 0:
            raise ConfigurationError("cpu_cores must be positive")
        if self.memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        if self.disk_count <= 0:
            raise ConfigurationError("disk_count must be positive")
        if self.disk_bandwidth <= 0:
            raise ConfigurationError("disk_bandwidth must be positive")
        if self.network_bandwidth <= 0:
            raise ConfigurationError("network_bandwidth must be positive")
        if self.cpu_speed_factor <= 0:
            raise ConfigurationError("cpu_speed_factor must be positive")


@dataclass(frozen=True)
class ContainerSpec:
    """Resource ask for one YARN container (memory + virtual cores)."""

    memory_bytes: int = 1 * GiB
    vcores: int = 1

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ConfigurationError("container memory must be positive")
        if self.vcores <= 0:
            raise ConfigurationError("container vcores must be positive")


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-level configuration.

    ``max_maps_per_node`` / ``max_reduces_per_node`` can be given explicitly;
    when left ``None`` they are derived from the node capacity and the
    container specs exactly as in Section 4.3 of the paper::

        pMaxMapsPerNode    = floor(TotalNodeCapacity / SizeOfContainerForMapTask)
        pMaxReducePerNode  = floor(TotalNodeCapacity / SizeOfContainerForReduceTask)

    where "capacity" is whichever dimension (memory or vcores) is the
    binding constraint.
    """

    num_nodes: int = 4
    node: NodeSpec = field(default_factory=NodeSpec)
    map_container: ContainerSpec = field(default_factory=ContainerSpec)
    reduce_container: ContainerSpec = field(default_factory=ContainerSpec)
    #: Fraction of node memory YARN may hand out to containers.
    yarn_memory_fraction: float = 0.75
    #: Fraction of node vcores YARN may hand out to containers.
    yarn_vcore_fraction: float = 1.0
    max_maps_per_node: int | None = None
    max_reduces_per_node: int | None = None
    #: Number of racks the nodes are spread over (for locality modelling).
    num_racks: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if not 0.0 < self.yarn_memory_fraction <= 1.0:
            raise ConfigurationError("yarn_memory_fraction must be in (0, 1]")
        if not 0.0 < self.yarn_vcore_fraction <= 1.0:
            raise ConfigurationError("yarn_vcore_fraction must be in (0, 1]")
        if self.max_maps_per_node is not None and self.max_maps_per_node <= 0:
            raise ConfigurationError("max_maps_per_node must be positive")
        if self.max_reduces_per_node is not None and self.max_reduces_per_node <= 0:
            raise ConfigurationError("max_reduces_per_node must be positive")
        if self.num_racks <= 0:
            raise ConfigurationError("num_racks must be positive")
        if self.num_racks > self.num_nodes:
            raise ConfigurationError("num_racks cannot exceed num_nodes")

    # -- derived capacities -------------------------------------------------

    @property
    def yarn_memory_per_node(self) -> int:
        """Memory (bytes) YARN can allocate to containers on one node."""
        return int(self.node.memory_bytes * self.yarn_memory_fraction)

    @property
    def yarn_vcores_per_node(self) -> int:
        """Virtual cores YARN can allocate to containers on one node."""
        return max(1, int(self.node.cpu_cores * self.yarn_vcore_fraction))

    def _containers_per_node(self, spec: ContainerSpec) -> int:
        by_memory = self.yarn_memory_per_node // spec.memory_bytes
        by_vcores = self.yarn_vcores_per_node // spec.vcores
        count = int(min(by_memory, by_vcores))
        if count <= 0:
            raise ConfigurationError(
                "node capacity is too small for a single container: "
                f"{spec!r} on {self.node!r}"
            )
        return count

    def maps_per_node(self) -> int:
        """``MaxMapPerNode`` of Table 2 (explicit value or derived)."""
        if self.max_maps_per_node is not None:
            return self.max_maps_per_node
        return self._containers_per_node(self.map_container)

    def reduces_per_node(self) -> int:
        """``MaxReducePerNode`` of Table 2 (explicit value or derived)."""
        if self.max_reduces_per_node is not None:
            return self.max_reduces_per_node
        return self._containers_per_node(self.reduce_container)

    def total_map_capacity(self) -> int:
        """Cluster-wide number of concurrent map containers."""
        return self.num_nodes * self.maps_per_node()

    def total_reduce_capacity(self) -> int:
        """Cluster-wide number of concurrent reduce containers."""
        return self.num_nodes * self.reduces_per_node()

    def with_nodes(self, num_nodes: int) -> "ClusterConfig":
        """Return a copy of this configuration with a different node count."""
        return replace(self, num_nodes=num_nodes)


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduling knobs relevant to the model and the simulator.

    ``slowstart_completed_maps`` mirrors
    ``mapreduce.job.reduce.slowstart.completedmaps`` (default 0.05): the
    fraction of finished map tasks after which reduce containers may be
    requested.
    """

    #: Scheduler implementation name: ``capacity``, ``fifo`` or ``fair``.
    scheduler_name: str = "capacity"
    slowstart_enabled: bool = True
    slowstart_completed_maps: float = 0.05
    #: Consider node-locality when placing map containers.
    respect_map_locality: bool = True
    #: Priority values observed in RMContainerAllocator (paper Section 3.3).
    map_priority: int = 20
    reduce_priority: int = 10
    #: Heartbeat period between AM and RM in seconds.
    heartbeat_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.scheduler_name not in {"capacity", "fifo", "fair"}:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler_name!r}; "
                "expected 'capacity', 'fifo' or 'fair'"
            )
        if not 0.0 <= self.slowstart_completed_maps <= 1.0:
            raise ConfigurationError("slowstart_completed_maps must be in [0, 1]")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if self.map_priority <= 0 or self.reduce_priority <= 0:
            raise ConfigurationError("priorities must be positive")


@dataclass(frozen=True)
class FailureSpec:
    """Deterministic failure model for the YARN simulator.

    All randomness is derived from seeded hash draws keyed on
    ``(seed, kind, task_id, attempt)``, so an identical
    ``(Scenario, FailureSpec, seed)`` triple reproduces the exact same
    failure schedule regardless of event interleaving.  The default spec is
    a no-op: a ``FailureSpec()`` (or ``None``) leaves simulator traces
    bit-identical to a failure-free run.
    """

    #: Probability that any given task attempt fails partway through.
    task_failure_rate: float = 0.0
    #: Maximum attempts per task; the last allowed attempt always succeeds,
    #: mirroring ``mapreduce.map.maxattempts`` semantics with a bounded tail.
    max_attempts: int = 4
    #: Fraction of task attempts that run as stragglers.
    straggler_fraction: float = 0.0
    #: Runtime multiplier applied to straggler attempts (>= 1).
    straggler_slowdown: float = 2.5
    #: Simulation times (seconds) at which a whole node fails.
    node_failure_times: tuple[float, ...] = ()
    #: Launch a backup attempt for stragglers; first finisher wins.
    speculative: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.task_failure_rate < 1.0:
            raise ConfigurationError("task_failure_rate must be in [0, 1)")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ConfigurationError("straggler_fraction must be in [0, 1]")
        if self.straggler_slowdown < 1.0:
            raise ConfigurationError("straggler_slowdown must be at least 1.0")
        times = tuple(sorted(float(t) for t in self.node_failure_times))
        if any(t < 0 for t in times):
            raise ConfigurationError("node_failure_times must be non-negative")
        object.__setattr__(self, "node_failure_times", times)

    @property
    def is_noop(self) -> bool:
        """True when this spec injects no failures at all."""
        return (
            self.task_failure_rate == 0.0
            and self.straggler_fraction == 0.0
            and not self.node_failure_times
            and not self.speculative
        )

    def to_dict(self) -> dict:
        """JSON-serialisable representation (round-trips via :meth:`from_dict`)."""
        return {
            "task_failure_rate": self.task_failure_rate,
            "max_attempts": self.max_attempts,
            "straggler_fraction": self.straggler_fraction,
            "straggler_slowdown": self.straggler_slowdown,
            "node_failure_times": list(self.node_failure_times),
            "speculative": self.speculative,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FailureSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict on keys)."""
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(f"unknown FailureSpec fields: {sorted(unknown)}")
        data = dict(payload)
        if "node_failure_times" in data:
            data["node_failure_times"] = tuple(data["node_failure_times"])
        return cls(**data)


@dataclass(frozen=True)
class JobConfig:
    """Definition of one MapReduce job submitted to the cluster.

    The number of map tasks follows from the input size and the HDFS block
    size (one split per block, as in Hadoop), while the number of reduce
    tasks is a user parameter — exactly the "static resource requirements"
    described in Section 3.3 of the paper.
    """

    name: str = "wordcount"
    input_size_bytes: int = 1 * GiB
    block_size_bytes: int = 128 * MiB
    num_reduces: int = 1
    #: Ratio of map-output bytes to map-input bytes (job selectivity).
    map_output_ratio: float = 0.4
    #: Ratio of reduce-output bytes to reduce-input bytes.
    reduce_output_ratio: float = 0.1
    #: Submission time of the job relative to the start of the experiment.
    submission_time: float = 0.0

    def __post_init__(self) -> None:
        if self.input_size_bytes <= 0:
            raise ConfigurationError("input_size_bytes must be positive")
        if self.block_size_bytes <= 0:
            raise ConfigurationError("block_size_bytes must be positive")
        if self.num_reduces <= 0:
            raise ConfigurationError("num_reduces must be positive")
        if self.map_output_ratio < 0:
            raise ConfigurationError("map_output_ratio must be non-negative")
        if self.reduce_output_ratio < 0:
            raise ConfigurationError("reduce_output_ratio must be non-negative")
        if self.submission_time < 0:
            raise ConfigurationError("submission_time must be non-negative")

    @property
    def num_maps(self) -> int:
        """Number of map tasks = number of input splits (ceil of size/block)."""
        blocks, remainder = divmod(self.input_size_bytes, self.block_size_bytes)
        return int(blocks + (1 if remainder else 0))

    @property
    def split_size_bytes(self) -> int:
        """Size of a full input split (== block size)."""
        return self.block_size_bytes
