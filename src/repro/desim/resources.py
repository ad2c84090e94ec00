"""Shared-resource primitives: Resource, Container, Store and variants.

These follow the request/release (put/get) event pattern: a request is an
event that fires once the resource grants it.  Requests may be used as
context managers so that releases cannot be forgotten::

    with resource.request() as req:
        yield req
        ...  # resource held here
"""

from __future__ import annotations

from heapq import heappush, heappop
from itertools import count
from typing import Any, List

from .events import Event, PENDING

__all__ = [
    "Resource",
    "PriorityResource",
    "Preempted",
    "PreemptiveResource",
    "Container",
    "Store",
    "PriorityStore",
]


class _BaseRequest(Event):
    """Common machinery for resource request / put / get events."""

    __slots__ = ("resource", "proc")

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource
        self.proc = resource.env.active_process

    def cancel(self) -> None:
        """Withdraw an ungranted request from the waiting queue."""
        if self._value is PENDING:
            self.resource._remove_waiter(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        raise NotImplementedError


class Request(_BaseRequest):
    """A claim for one unit of a :class:`Resource`'s capacity."""

    __slots__ = ()

    def __exit__(self, exc_type, exc_value, traceback):
        if self._value is PENDING:
            self.cancel()
        elif self._ok:
            self.resource.release(self)
        return None


class Release(Event):
    """Event returning a previously granted :class:`Request`."""

    __slots__ = ("resource", "request")

    def __init__(self, resource, request: Request):
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        resource._do_release(self)
        self.succeed()


class Resource:
    """A resource with limited *capacity*, granted FIFO.

    ``count`` users hold the resource at any time; excess requests queue.
    """

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    def request(self) -> Request:
        req = Request(self)
        self.queue.append(req)
        self._trigger()
        return req

    def release(self, request: Request) -> Release:
        return Release(self, request)

    # -- internal -----------------------------------------------------------
    def _remove_waiter(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _do_release(self, release: Release) -> None:
        try:
            self.users.remove(release.request)
        except ValueError:
            pass
        self._trigger()

    def _trigger(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            req = self.queue.pop(0)
            self.users.append(req)
            req.succeed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} count={self.count}/{self._capacity} "
            f"queued={len(self.queue)}>"
        )


class PriorityRequest(Request):
    """Request with a priority (lower value served first) and FIFO ties."""

    __slots__ = ("priority", "time", "preempt", "_key")

    def __init__(self, resource, priority: int = 0, preempt: bool = False):
        self.priority = priority
        self.preempt = preempt
        self.time = resource.env.now
        self._key = (priority, self.time, not preempt)
        super().__init__(resource)

    def __lt__(self, other: "PriorityRequest") -> bool:
        return self._key < other._key


class PriorityResource(Resource):
    """Resource whose waiting queue is ordered by request priority."""

    def request(self, priority: int = 0, preempt: bool = False) -> PriorityRequest:  # type: ignore[override]
        req = PriorityRequest(self, priority, preempt)
        heappush(self.queue, req)  # type: ignore[arg-type]
        self._trigger()
        return req

    def _trigger(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            req = heappop(self.queue)  # type: ignore[arg-type]
            self.users.append(req)
            req.succeed()

    def _remove_waiter(self, request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass
        else:
            # restore heap invariant
            import heapq

            heapq.heapify(self.queue)


class Preempted:
    """Cause attached to the Interrupt thrown on preemption."""

    def __init__(self, by, usage_since: float, resource):
        self.by = by
        self.usage_since = usage_since
        self.resource = resource

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Preempted by={self.by!r} since={self.usage_since}>"


class PreemptiveResource(PriorityResource):
    """PriorityResource where higher-priority requests evict current users.

    Used to model opportunistic slots: the resource owner's workload
    arrives at higher priority and preempts the running glide-in worker.
    """

    def _trigger(self) -> None:
        # First, serve from the queue while capacity remains.
        super()._trigger()
        # Then consider preemption for the best queued request.
        while self.queue:
            req = self.queue[0]
            if len(self.users) < self._capacity:
                heappop(self.queue)
                self.users.append(req)
                req.succeed()
                continue
            if not getattr(req, "preempt", False):
                break
            victim = max(self.users, key=lambda u: (u.priority, u.time))
            if (victim.priority, victim.time) <= (req.priority, req.time):
                break  # nothing lower-priority to evict
            self.users.remove(victim)
            if victim.proc is not None and victim.proc.is_alive:
                victim.proc.interrupt(Preempted(req.proc, victim.time, self))
            heappop(self.queue)
            self.users.append(req)
            req.succeed()


class ContainerPut(Event):
    __slots__ = ("container", "amount")

    def __init__(self, container, amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.container = container
        self.amount = amount
        container._put_waiters.append(self)
        container._trigger()


class ContainerGet(Event):
    __slots__ = ("container", "amount")

    def __init__(self, container, amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.container = container
        self.amount = amount
        container._get_waiters.append(self)
        container._trigger()


class Container:
    """Holds a continuous amount (fuel-tank semantics) between 0 and capacity."""

    def __init__(self, env, capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie within [0, capacity]")
        self.env = env
        self._capacity = capacity
        self._level = init
        self._put_waiters: List[ContainerPut] = []
        self._get_waiters: List[ContainerGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._put_waiters:
                put = self._put_waiters[0]
                if self._level + put.amount <= self._capacity:
                    self._put_waiters.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progress = True
            if self._get_waiters:
                get = self._get_waiters[0]
                if self._level >= get.amount:
                    self._get_waiters.pop(0)
                    self._level -= get.amount
                    get.succeed()
                    progress = True


class StorePut(Event):
    __slots__ = ("store", "item")

    def __init__(self, store, item: Any):
        super().__init__(store.env)
        self.store = store
        self.item = item
        store._put_waiters.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw an ungranted put from the waiting queue."""
        if self._value is PENDING:
            try:
                self.store._put_waiters.remove(self)
            except ValueError:
                pass


class StoreGet(Event):
    __slots__ = ("store",)

    def __init__(self, store):
        super().__init__(store.env)
        self.store = store
        store._get_waiters.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw an ungranted get from the waiting queue.

        A get that was already granted cannot be cancelled; the caller is
        responsible for returning the received item if it no longer wants
        it (e.g. a worker evicted in the same instant a task arrived).
        """
        if self._value is PENDING:
            try:
                self.store._get_waiters.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO store of discrete items with bounded capacity."""

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._put_waiters and len(self.items) < self._capacity:
                put = self._put_waiters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            if self._get_waiters and self.items:
                got = self._do_get()
                if got:
                    progress = True

    def _do_get(self) -> bool:
        get = self._get_waiters.pop(0)
        get.succeed(self.items.pop(0))
        return True


class PriorityStore(Store):
    """Store that always yields its smallest item (heap order)."""

    def __init__(self, env, capacity: float = float("inf")):
        super().__init__(env, capacity)
        self._counter = count()

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._put_waiters and len(self.items) < self._capacity:
                put = self._put_waiters.pop(0)
                heappush(self.items, put.item)
                put.succeed()
                progress = True
            if self._get_waiters and self.items:
                get = self._get_waiters.pop(0)
                get.succeed(heappop(self.items))
                progress = True
