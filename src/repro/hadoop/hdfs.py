"""A small HDFS model: namenode namespace, datanodes, blocks, replication.

Within CMS, Hadoop is typically used for its bulk storage (paper §4.4);
Lobster's storage element at Notre Dame was HDFS behind a Chirp server.
The model captures what affects merge performance: block placement over
datanodes, pipelined replicated writes, and data-local reads that bypass
the front-end server entirely (the advantage of merging *inside* Hadoop).
Every HDFS byte is a :class:`~repro.net.Flow` of class ``merge``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional

import numpy as np

from ..desim import Environment
from ..net import Fabric, TrafficClass

__all__ = ["DataNode", "HdfsBlock", "HdfsFile", "HDFS"]

MB = 1_000_000.0
GBIT = 125_000_000.0


class DataNode:
    """One storage node: a disk and a NIC, both fair-shared.

    Each is a standalone :class:`~repro.net.Link` on a single-link
    fabric of its own, so HDFS traffic shares nothing with the campus
    tree.
    """

    _ids = count()

    def __init__(
        self,
        env: Environment,
        disk_bandwidth: float = 400 * MB,
        nic_bandwidth: float = 1 * GBIT,
        name: Optional[str] = None,
    ):
        self.env = env
        self.name = name or f"datanode{next(self._ids):03d}"
        self.disk = Fabric(env).attach(f"{self.name}.disk", disk_bandwidth)
        self.nic = Fabric(env).attach(f"{self.name}.nic", nic_bandwidth)
        self.blocks_stored = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DataNode {self.name} blocks={self.blocks_stored}>"


@dataclass(frozen=True)
class HdfsBlock:
    """A block with its replica locations."""

    index: int
    size: float
    replicas: tuple  # of DataNode


@dataclass
class HdfsFile:
    """A file in the HDFS namespace."""

    name: str
    blocks: List[HdfsBlock] = field(default_factory=list)

    @property
    def size(self) -> float:
        return sum(b.size for b in self.blocks)


class HDFS:
    """Namenode + datanodes with replicated block storage."""

    def __init__(
        self,
        env: Environment,
        n_datanodes: int = 12,
        replication: int = 3,
        block_size: float = 128 * MB,
        disk_bandwidth: float = 400 * MB,
        nic_bandwidth: float = 1 * GBIT,
        seed: int = 0,
    ):
        if n_datanodes <= 0:
            raise ValueError("need at least one datanode")
        if not 1 <= replication <= n_datanodes:
            raise ValueError("replication must lie in [1, n_datanodes]")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.env = env
        self.replication = replication
        self.block_size = block_size
        self.datanodes = [
            DataNode(env, disk_bandwidth, nic_bandwidth) for _ in range(n_datanodes)
        ]
        self.rng = np.random.default_rng(seed)
        self._namespace: Dict[str, HdfsFile] = {}
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    # -- namespace ---------------------------------------------------------------
    def exists(self, name: str) -> bool:
        return name in self._namespace

    def stat(self, name: str) -> HdfsFile:
        try:
            return self._namespace[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def listdir(self, prefix: str = "") -> List[HdfsFile]:
        return sorted(
            (f for n, f in self._namespace.items() if n.startswith(prefix)),
            key=lambda f: f.name,
        )

    def delete(self, name: str) -> None:
        f = self._namespace.pop(name, None)
        if f is None:
            raise FileNotFoundError(name)
        for b in f.blocks:
            for dn in b.replicas:
                dn.blocks_stored -= 1

    # -- data path ------------------------------------------------------------------
    def _pick_replicas(self, preferred: Optional[DataNode] = None):
        nodes = list(self.datanodes)
        if preferred is not None and preferred in nodes:
            others = [n for n in nodes if n is not preferred]
            picks = list(
                self.rng.choice(len(others), size=self.replication - 1, replace=False)
            ) if self.replication > 1 else []
            return tuple([preferred] + [others[i] for i in picks])
        picks = self.rng.choice(len(nodes), size=self.replication, replace=False)
        return tuple(nodes[i] for i in picks)

    def write(self, name: str, nbytes: float, preferred: Optional[DataNode] = None):
        """DES process: write a file block-by-block with pipelined replication.

        ``hdfs_file = yield from hdfs.write(name, nbytes)``
        """
        if self.exists(name):
            raise FileExistsError(name)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        f = HdfsFile(name)
        remaining = nbytes
        index = 0
        while remaining > 0 or index == 0:
            size = min(self.block_size, remaining) if remaining > 0 else 0.0
            replicas = self._pick_replicas(preferred)
            if size > 0:
                # Pipelined write: all replica disks work concurrently;
                # the block lands when the slowest replica finishes.
                flows = [dn.disk.transfer(size, cls=TrafficClass.MERGE) for dn in replicas]
                # Off-node replicas also cross their NICs.
                flows += [dn.nic.transfer(size, cls=TrafficClass.MERGE) for dn in replicas[1:]]
                try:
                    yield self.env.all_of(flows)
                except BaseException:
                    for fl in flows:
                        fl.cancel()
                    raise
            f.blocks.append(HdfsBlock(index, size, replicas))
            for dn in replicas:
                dn.blocks_stored += 1
            remaining -= size
            index += 1
            if nbytes == 0:
                break
        self._namespace[name] = f
        self.bytes_written += nbytes
        return f

    def read(self, name: str, local: Optional[DataNode] = None):
        """DES process: read a whole file, preferring local replicas.

        Returns the elapsed time.  Data-local reads use only the disk;
        remote reads cross the serving node's NIC too.
        """
        f = self.stat(name)
        start = self.env.now
        for block in f.blocks:
            if block.size <= 0:
                continue
            if local is not None and local in block.replicas:
                src = local
                flows = [src.disk.transfer(block.size, cls=TrafficClass.MERGE)]
            else:
                src = block.replicas[
                    int(self.rng.integers(0, len(block.replicas)))
                ]
                flows = [
                    src.disk.transfer(block.size, cls=TrafficClass.MERGE),
                    src.nic.transfer(block.size, cls=TrafficClass.MERGE),
                ]
            try:
                yield self.env.all_of(flows)
            except BaseException:
                for fl in flows:
                    fl.cancel()
                raise
        self.bytes_read += f.size
        return self.env.now - start

    @property
    def used_bytes(self) -> float:
        return sum(f.size for f in self._namespace.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HDFS files={len(self._namespace)} nodes={len(self.datanodes)}>"
