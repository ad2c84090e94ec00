"""A miniature Map-Reduce engine over the HDFS model (paper §4.4).

The paper's Hadoop merge "uses the Map phase to collect the list of
small files from Lobster and group them (by name) to produce the desired
size of merged output files; the grouped names are passed to the Reduce
phase", where each reducer pulls the small files to its local machine,
merges them, and copies the result back into HDFS.

The engine is deliberately general: a job provides a ``map_fn`` emitting
``(key, value)`` pairs and a ``reduce_fn`` consuming one key's values.
Time costs are expressed through declared I/O and CPU amounts, executed
against datanode disks/NICs as DES processes, so a merge-in-Hadoop run
produces a faithful completion profile for Fig 7.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..desim import Environment, Resource
from ..net import TrafficClass
from .hdfs import HDFS, DataNode

__all__ = ["MapReduceJob", "MapReduceEngine", "TaskCost"]


@dataclass(frozen=True)
class TaskCost:
    """Declared resource usage of a map or reduce invocation."""

    cpu_seconds: float = 0.0
    read_bytes: float = 0.0  #: read from HDFS (local replica preferred)
    write_bytes: float = 0.0  #: written back to HDFS

    def __post_init__(self) -> None:
        if self.cpu_seconds < 0 or self.read_bytes < 0 or self.write_bytes < 0:
            raise ValueError("costs must be non-negative")


@dataclass
class MapReduceJob:
    """A job specification.

    *map_fn(record) -> iterable of (key, value)* — pure logic.
    *map_cost(record) -> TaskCost* — declared resources per record.
    *reduce_fn(key, values) -> result* — pure logic.
    *reduce_cost(key, values) -> TaskCost* — declared resources per key.
    *reduce_output(key) -> filename or None* — HDFS file the reducer
    writes (sized by its write_bytes).
    """

    name: str
    records: List[Any]
    map_fn: Callable[[Any], Iterable[Tuple[Any, Any]]]
    reduce_fn: Callable[[Any, List[Any]], Any]
    map_cost: Callable[[Any], TaskCost] = lambda record: TaskCost()
    reduce_cost: Callable[[Any, List[Any]], TaskCost] = lambda key, values: TaskCost()
    reduce_output: Callable[[Any], Optional[str]] = lambda key: None


class MapReduceEngine:
    """Schedules map/reduce tasks onto datanode compute slots."""

    def __init__(self, env: Environment, hdfs: HDFS, slots_per_node: int = 2):
        if slots_per_node <= 0:
            raise ValueError("slots_per_node must be positive")
        self.env = env
        self.hdfs = hdfs
        self.slots = {
            dn.name: Resource(env, capacity=slots_per_node) for dn in hdfs.datanodes
        }
        #: Completion log: (time, phase, identifier) for timelines.
        self.completions: List[Tuple[float, str, Any]] = []

    def run(self, job: MapReduceJob):
        """DES process: execute *job*; returns {key: reduce result}."""
        env = self.env
        nodes = self.hdfs.datanodes

        # ---- map phase -------------------------------------------------
        emitted: Dict[Any, List[Any]] = defaultdict(list)
        map_procs = []
        for i, record in enumerate(job.records):
            node = nodes[i % len(nodes)]
            map_procs.append(
                env.process(
                    self._run_map(job, record, node, emitted),
                    name=f"{job.name}-map{i}",
                )
            )
        if map_procs:
            yield env.all_of(map_procs)

        # ---- shuffle is in-memory (keys are small for merge workloads) --
        keys = sorted(emitted.keys(), key=repr)

        # ---- reduce phase ------------------------------------------------
        results: Dict[Any, Any] = {}
        reduce_procs = []
        for i, key in enumerate(keys):
            node = nodes[i % len(nodes)]
            reduce_procs.append(
                env.process(
                    self._run_reduce(job, key, emitted[key], node, results),
                    name=f"{job.name}-reduce{i}",
                )
            )
        if reduce_procs:
            yield env.all_of(reduce_procs)
        return results

    # -- internals ---------------------------------------------------------------
    def _run_map(self, job, record, node: DataNode, emitted):
        with self.slots[node.name].request() as slot:
            yield slot
            cost = job.map_cost(record)
            if cost.read_bytes > 0:
                flow = node.disk.transfer(cost.read_bytes, cls=TrafficClass.MERGE)
                yield flow
            if cost.cpu_seconds > 0:
                yield self.env.timeout(cost.cpu_seconds)
            for key, value in job.map_fn(record):
                emitted[key].append(value)
        self.completions.append((self.env.now, "map", record))

    def _run_reduce(self, job, key, values, node: DataNode, results):
        with self.slots[node.name].request() as slot:
            yield slot
            cost = job.reduce_cost(key, values)
            if cost.read_bytes > 0:
                # Pull the input files to this node: crosses its NIC and
                # its disk (copy to local scratch).
                flows = [
                    node.nic.transfer(cost.read_bytes, cls=TrafficClass.MERGE),
                    node.disk.transfer(cost.read_bytes, cls=TrafficClass.MERGE),
                ]
                yield self.env.all_of(flows)
            if cost.cpu_seconds > 0:
                yield self.env.timeout(cost.cpu_seconds)
            results[key] = job.reduce_fn(key, values)
            out_name = job.reduce_output(key)
            if out_name is not None and cost.write_bytes > 0:
                yield from self.hdfs.write(out_name, cost.write_bytes, preferred=node)
        self.completions.append((self.env.now, "reduce", key))
