"""Herodotou-style phase-level cost model (Hadoop 1.x).

Herodotou's technical report "Hadoop Performance Models" describes the
execution of a MapReduce job at the granularity of task phases:

* map task: **read, map, collect, spill, merge**;
* reduce task: **shuffle, merge, reduce, write**;

and estimates the job execution time as the sum of all phase costs, given a
static number of map/reduce slots per node (paper Section 2.1).

The paper uses this model in two ways, and so do we:

* as the **initialisation** of the modified MVA loop (Section 4.2.1): assume
  all map tasks run first using all available resources, then all reduce
  tasks — which yields initial per-task response times;
* as a **static baseline** whose error against the simulator can be compared
  with the dynamic model's error.
"""

from .parameters import CostStatistics, DataflowStatistics, HadoopEnvironment, WordcountStatistics
from .model import HerodotouEstimate, estimate

__all__ = [
    "CostStatistics",
    "DataflowStatistics",
    "HadoopEnvironment",
    "WordcountStatistics",
    "HerodotouEstimate",
    "estimate",
]
