"""The single-link bandwidth model the fabric replaced, kept as a reference.

Before every link moved onto :mod:`repro.net`, a point resource (a disk,
a NIC) was a ``FairShareLink`` that split its capacity with
:func:`allocate_max_min`.  Both are copied here from the removed
``repro.desim.bandwidth`` with only their imports changed (a cancel now
raises :class:`repro.net.TransferCancelled`); ``estimate_duration`` and
the utilization methods, which no test compares, are left out.  ``tests/test_desim_bandwidth.py``
checks that a :class:`~repro.net.Link` on a single-link fabric gives the
same outcomes, and ``tests/test_property_based.py`` that single-link
:func:`~repro.net.waterfill` gives the same rates.
"""

from __future__ import annotations

from itertools import count
from typing import List, Optional

from repro.desim import Environment
from repro.desim.events import Event, PENDING
from repro.net import TransferCancelled

__all__ = ["FairShareLink", "Transfer", "allocate_max_min"]

_EPS = 1e-9


def allocate_max_min(demands: List[Optional[float]], capacity: float) -> List[float]:
    """Max-min fair allocation of *capacity* across flows.

    *demands* holds each flow's rate cap (``None`` = uncapped).  Returns
    a rate per flow.  Uncapped flows split whatever remains equally.
    """
    n = len(demands)
    if n == 0:
        return []
    rates = [0.0] * n
    remaining = capacity
    # Serve capped flows in increasing cap order; each takes
    # min(cap, equal-share-of-remaining).
    order = sorted(range(n), key=lambda i: float("inf") if demands[i] is None else demands[i])
    left = n
    for i in order:
        share = remaining / left
        cap = demands[i]
        rate = share if cap is None else min(cap, share)
        rates[i] = rate
        remaining -= rate
        left -= 1
    return rates


class Transfer(Event):
    """Event representing an in-flight transfer on a :class:`FairShareLink`."""

    __slots__ = ("link", "nbytes", "remaining", "max_rate", "rate", "started", "_last")

    def __init__(self, link: "FairShareLink", nbytes: float, max_rate: Optional[float]):
        super().__init__(link.env)
        self.link = link
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.max_rate = max_rate
        self.rate = 0.0
        self.started = link.env.now
        self._last = link.env.now

    @property
    def elapsed(self) -> float:
        return self.env.now - self.started

    def cancel(self) -> None:
        """Abort the transfer; the event fails with TransferCancelled.

        Safe to call after completion (no-op).  The failure arrives
        pre-defused so a cancelled transfer nobody waits on does not
        crash the simulation.
        """
        if self._value is not PENDING:
            return
        self.link._remove(self)
        self._defused = True
        self.fail(TransferCancelled(f"{self.nbytes - self.remaining:.0f}/{self.nbytes:.0f} bytes moved"))


class FairShareLink:
    """A link of fixed *capacity* (bytes/second) shared by live transfers.

    Capacity may be changed at runtime (``set_capacity``), which models
    outages (capacity 0) and administrative re-provisioning.  The link
    accumulates usage statistics for the monitoring subsystem.
    """

    def __init__(self, env: Environment, capacity: float, name: str = "link"):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.env = env
        self.name = name
        self._capacity = float(capacity)
        self._flows: List[Transfer] = []
        self._generation = count()
        self._timer_gen = -1
        # statistics
        self.bytes_moved = 0.0
        self._busy_integral = 0.0  # ∫ (allocated rate) dt
        self._window_start = env.now
        self._last_stat = env.now

    # -- public API ----------------------------------------------------------
    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, nbytes: float, max_rate: Optional[float] = None) -> Transfer:
        """Begin moving *nbytes*; returns the completion event."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        flow = Transfer(self, nbytes, max_rate)
        if nbytes == 0:
            flow.succeed(flow)
            return flow
        self._advance()
        self._flows.append(flow)
        self._update()
        return flow

    def set_capacity(self, capacity: float) -> None:
        """Change the link capacity (0 = outage); live flows re-share."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._advance()
        self._capacity = float(capacity)
        self._update()

    # -- internals ------------------------------------------------------------
    def _advance(self) -> None:
        """Progress all flows to the current time at their last rates."""
        now = self.env.now
        dt = now - self._last_stat
        if dt > 0:
            moved = 0.0
            for f in self._flows:
                step = f.rate * (now - f._last)
                f.remaining = max(0.0, f.remaining - step)
                f._last = now
                moved += step
            self.bytes_moved += moved
            self._busy_integral += sum(f.rate for f in self._flows) * dt
            self._last_stat = now
        else:
            for f in self._flows:
                if f._last < now:
                    step = f.rate * (now - f._last)
                    f.remaining = max(0.0, f.remaining - step)
                    f._last = now
                    self.bytes_moved += step

    def _remove(self, flow: Transfer) -> None:
        self._advance()
        try:
            self._flows.remove(flow)
        except ValueError:
            return
        self._update()

    def _update(self) -> None:
        """Recompute rates and (re)arm the completion timer."""
        # Complete any flows that have drained.  The tolerance is
        # relative to the flow size: float error in rate*dt accumulation
        # is proportional to nbytes, and an absolute epsilon can leave a
        # residue too small to advance the simulation clock (infinite
        # zero-delay ticks).
        done = [f for f in self._flows if f.remaining <= _EPS * max(1.0, f.nbytes)]
        if done:
            for f in done:
                self._flows.remove(f)
            for f in done:
                if f._value is PENDING:
                    f.rate = 0.0
                    f.succeed(f)

        if self._flows and self._capacity > 0:
            rates = allocate_max_min([f.max_rate for f in self._flows], self._capacity)
            for f, r in zip(self._flows, rates):
                f.rate = r
        else:
            for f in self._flows:
                f.rate = 0.0

        # Schedule the next completion.
        gen = next(self._generation)
        self._timer_gen = gen
        horizon = float("inf")
        now = self.env.now
        for f in self._flows:
            if f.rate > 0:
                horizon = min(horizon, f.remaining / f.rate)
        if horizon < float("inf"):
            # Ensure the tick lands at a strictly later representable
            # time, or the link would spin at a frozen clock.
            while now + horizon == now:
                horizon = horizon * 2 if horizon > 0 else max(now * 1e-15, 1e-12)
            self.env.process(self._tick(gen, horizon), name=f"{self.name}-tick")

    def _tick(self, gen: int, delay: float):
        yield self.env.timeout(delay)
        if gen != self._timer_gen:
            return  # superseded by a later update
        self._advance()
        self._update()
