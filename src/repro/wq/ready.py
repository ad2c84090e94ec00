"""The ready-task queue a master or foreman hands tasks out of.

Workers pull the oldest task that fits their free cores; a foreman's pump
pulls the oldest task of any size.  Ready tasks are bucketed by
``task.cores``, FIFO within a bucket and stamped with one global
insertion sequence, so the oldest task that fits a limit is the
lowest-sequence head among the buckets with ``cores <= limit``.  A pull
costs one probe per distinct core count, not one per ready task.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..desim.resources import StoreGet, StorePut
from .task import Task

__all__ = ["ReadyQueue", "FilterStoreGet"]

#: A puller's limit: the most cores it can take right now, or ``None``
#: while it can take nothing (a dying worker, a blacklisted host).
Limit = Callable[[], Optional[int]]

_ANY = float("inf")


class FilterStoreGet(StoreGet):
    """A pull from a :class:`ReadyQueue`; fires with the granted task.

    *limit* is ``None`` for a pull that takes the oldest task of any
    size.  The class keeps the name of the predicate-matching store
    request it replaced because the kernel records
    ``type(event).__name__`` as the ``kind`` of every ``kernel.step``
    event: a new name would change every recording that includes them.
    """

    __slots__ = ("limit",)

    def __init__(self, queue: ReadyQueue, limit: Optional[Limit]):
        self.limit = limit
        super().__init__(queue)


class ReadyQueue:
    """Ready tasks indexed by core count, handed out oldest-first.

    *capacity* bounds the queue: a :meth:`put` beyond it blocks until a
    pull makes room.  Every put or pull re-runs the grant loop, and so
    does :meth:`retrigger`, which callers use when a puller's limit
    grows (a runner freed cores, a host came off the blacklist).
    """

    def __init__(self, env, capacity: float = _ANY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self._buckets: Dict[int, Deque[Tuple[int, Task]]] = {}
        self._size = 0
        self._seq = count()
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[FilterStoreGet] = []

    def __len__(self) -> int:
        return self._size

    def put(self, task: Task) -> StorePut:
        return StorePut(self, task)

    def get(self, limit: Optional[Limit] = None) -> FilterStoreGet:
        return FilterStoreGet(self, limit)

    def remove(self, task: Task) -> bool:
        """Withdraw a queued *task*; False when it is not queued."""
        bucket = self._buckets.get(task.cores, ())
        for i, (_, queued) in enumerate(bucket):
            if queued is task:
                del bucket[i]
                self._size -= 1
                return True
        return False

    def clear(self) -> None:
        """Drop every queued task without granting any."""
        self._buckets.clear()
        self._size = 0

    def retrigger(self) -> None:
        """Re-run the grant loop after a waiting puller's limit changed."""
        self._trigger()

    def _take(self, limit: float) -> Optional[Task]:
        """Pop the oldest task with ``cores <= limit``, if any."""
        best = None
        for cores, bucket in self._buckets.items():
            if bucket and cores <= limit and (best is None or bucket[0][0] < best[0][0]):
                best = bucket
        if best is None:
            return None
        self._size -= 1
        return best.popleft()[1]

    def _trigger(self) -> None:
        # Each pass admits at most one blocked put, then offers the queue
        # to every waiting puller in arrival order; passes repeat while
        # anything moved.
        progress = True
        while progress:
            progress = False
            if self._put_waiters and self._size < self._capacity:
                put = self._put_waiters.pop(0)
                task = put.item
                bucket = self._buckets.setdefault(task.cores, deque())
                bucket.append((next(self._seq), task))
                self._size += 1
                put.succeed()
                progress = True
            for get in list(self._get_waiters) if self._size else ():
                limit = _ANY if get.limit is None else get.limit()
                if limit is None:
                    continue
                task = self._take(limit)
                if task is not None:
                    self._get_waiters.remove(get)
                    get.succeed(task)
                    progress = True
                    if not self._size:
                        break
