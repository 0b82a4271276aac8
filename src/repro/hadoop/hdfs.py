"""A minimal HDFS model: blocks, replica placement, and input splits.

The number of map tasks of a MapReduce job equals the number of input splits,
i.e. HDFS blocks (paper Section 3.3, "static resource requirements").  The
placement of block replicas determines which nodes can run a map task
*data-locally*, which in turn drives the locality-aware container placement
of the ApplicationMaster (Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import JobConfig
from ..exceptions import ConfigurationError
from ..randomness import make_rng
from .cluster import Cluster

#: Default HDFS replication factor.
DEFAULT_REPLICATION = 3


@dataclass(frozen=True)
class Block:
    """One HDFS block of a file."""

    block_id: int
    size_bytes: int
    #: Node ids hosting a replica of this block.
    replica_nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError("block size must be positive")
        if not self.replica_nodes:
            raise ConfigurationError("a block needs at least one replica")


@dataclass(frozen=True)
class InputSplit:
    """One input split — in this model, exactly one block."""

    split_id: int
    block: Block

    @property
    def size_bytes(self) -> int:
        """Split length in bytes."""
        return self.block.size_bytes

    @property
    def preferred_nodes(self) -> tuple[int, ...]:
        """Nodes where a map over this split would be data-local."""
        return self.block.replica_nodes


@dataclass
class HdfsNamespace:
    """Block placement for the input files of the submitted jobs."""

    cluster: Cluster
    replication: int = DEFAULT_REPLICATION
    seed: int | None = None
    _blocks: list[Block] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.replication <= 0:
            raise ConfigurationError("replication must be positive")
        self._rng = make_rng(self.seed)
        self._next_block_id = 0

    def place_file(self, total_bytes: int, block_size: int) -> list[Block]:
        """Split a file into blocks and place replicas across the cluster.

        Placement policy: the first replica goes to a node chosen uniformly at
        random (the "writer" node), the remaining replicas round-robin over
        the other nodes, preferring other racks first — a simplification of
        HDFS's default policy that preserves the property the simulator cares
        about: replicas are spread, so most maps can be scheduled node-locally
        when capacity allows.
        """
        if total_bytes <= 0:
            raise ConfigurationError("total_bytes must be positive")
        if block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        effective_replication = min(self.replication, len(self.cluster))
        # Each writer's replica tuple, built on its first block of the file.
        replicas_of: dict[int, tuple[int, ...]] = {}
        blocks: list[Block] = []
        remaining = total_bytes
        while remaining > 0:
            size = min(block_size, remaining)
            remaining -= size
            writer = int(self._rng.integers(0, len(self.cluster)))
            replicas = replicas_of.get(writer)
            if replicas is None:
                replicas = replicas_of[writer] = self._replicas(writer, effective_replication)
            block = Block(
                block_id=self._next_block_id,
                size_bytes=size,
                replica_nodes=replicas,
            )
            self._next_block_id += 1
            self._blocks.append(block)
            blocks.append(block)
        return blocks

    def _replicas(self, writer: int, replication: int) -> tuple[int, ...]:
        """The writer, then nodes in other racks, then the writer's rack."""
        writer_rack = self.cluster.node(writer).rack
        other_rack_nodes = [
            node.node_id
            for node in self.cluster
            if node.rack != writer_rack and node.node_id != writer
        ]
        same_rack_nodes = [
            node.node_id
            for node in self.cluster
            if node.rack == writer_rack and node.node_id != writer
        ]
        return (writer, *other_rack_nodes, *same_rack_nodes)[:replication]

    def splits_for_job(self, job_config: JobConfig) -> list[InputSplit]:
        """Place the job's input file and return its input splits."""
        blocks = self.place_file(job_config.input_size_bytes, job_config.block_size_bytes)
        return [
            InputSplit(split_id=index, block=block) for index, block in enumerate(blocks)
        ]

    @property
    def blocks(self) -> list[Block]:
        """All blocks placed so far."""
        return list(self._blocks)
