"""Shared-resource primitives: Resource and Store.

These follow the request/release (put/get) event pattern: a request is an
event that fires once the resource grants it.  Requests may be used as
context managers so that releases cannot be forgotten::

    with resource.request() as req:
        yield req
        ...  # resource held here
"""

from __future__ import annotations

from typing import Any, List

from .events import Event, PENDING

__all__ = ["Resource", "Store"]


class Request(Event):
    """A claim for one unit of a :class:`Resource`'s capacity."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw an ungranted request from the waiting queue."""
        if self._value is PENDING:
            self.resource._remove_waiter(self)

    def __enter__(self):
        return self

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
                self._get_waiters.pop(0).succeed(self.items.pop(0))
                progress = True
