"""Work Queue foremen (paper §3).

A single master eventually saturates on the number of workers it can
drive — mostly on sandbox stage-in traffic.  Foremen form an
intermediate rank: each connects to the master like a big worker, keeps
a buffer of tasks, caches sandboxes so the master ships each sandbox
once per *foreman* rather than once per *worker*, and serves its own
set of workers.  The paper runs four foremen with eight-core workers.
"""

from __future__ import annotations

from itertools import count
from typing import Optional, Set

from ..desim import Environment, Topics
from ..net import Fabric, TrafficClass
from .master import Master
from .ready import ReadyQueue
from .transfer import ship

__all__ = ["Foreman"]

GBIT = 125_000_000.0


class Foreman:
    """An intermediate task distributor between master and workers."""

    _ids = count()

    def __init__(
        self,
        env: Environment,
        upstream,
        buffer_depth: int = 64,
        nic_bandwidth: float = 10 * GBIT,
        name: Optional[str] = None,
        fabric: Optional[Fabric] = None,
    ):
        """*upstream* is the master or another foreman — the paper's
        "hierarchy of arbitrary width and depth"."""
        if buffer_depth <= 0:
            raise ValueError("buffer_depth must be positive")
        self.env = env
        self.upstream = upstream
        #: The root master, however deep this foreman sits.
        self.master: Master = getattr(upstream, "master", upstream)
        self.name = name or f"foreman{next(self._ids):02d}"
        self.fabric = fabric if fabric is not None else Fabric(env)
        self.nic = self.fabric.attach(
            f"{self.name}.nic", nic_bandwidth, node=self.name
        )
        #: Bounded buffer: the pump blocks when it is full, giving
        #: natural flow control against the upstream.
        self.ready = ReadyQueue(env, capacity=buffer_depth)
        self._sandboxes: Set[str] = set()
        self.tasks_relayed = 0
        self._p_relay = env.bus.port(Topics.FOREMAN_RELAY)
        self._pump_proc = env.process(self._pump(), name=f"{self.name}-pump")

    def _pump(self):
        """Pull tasks from the upstream rank and buffer them locally."""
        upstream = self.upstream
        master = self.master
        while True:
            get = upstream.ready.get()
            outcome = yield get | master.drain_event
            if get not in outcome:
                get.cancel()
                return
            task = outcome[get]
            # Ship the task (and its sandbox, once) upstream → foreman.
            nbytes = task.wq_input_bytes
            if task.sandbox_id not in self._sandboxes:
                nbytes += task.sandbox_bytes
                self._sandboxes.add(task.sandbox_id)
            if master.dispatch_latency > 0:
                yield self.env.timeout(master.dispatch_latency)
            yield from ship(upstream.nic, self.nic, nbytes, cls=TrafficClass.STAGING)
            self.tasks_relayed += 1
            port = self._p_relay
            if port.on:
                port.emit(
                    foreman=self.name,
                    task_id=task.task_id,
                    nbytes=nbytes,
                    buffered=len(self.ready) + 1,
                )
            yield self.ready.put(task)

    def has_sandbox(self, sandbox_id: str) -> bool:
        return sandbox_id in self._sandboxes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Foreman {self.name} buffered={len(self.ready)}>"
