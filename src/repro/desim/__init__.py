"""``repro.desim`` — a small, fast discrete-event simulation kernel.

This package is the substrate on which all cluster components (Work Queue,
HTCondor pool, CVMFS caches, storage servers) are modelled.  It provides:

* :class:`Environment` — the simulation clock and event queue,
* generator-based processes with interrupts (used for evictions),
* :class:`Resource` and :class:`Store` synchronisation primitives,
* :class:`EventBus` — the structured event spine every layer publishes to.

Bandwidth sharing lives one layer up, in :mod:`repro.net`.

Example
-------
>>> from repro.desim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3)
...     return env.now
>>> p = env.process(hello(env))
>>> env.run()
>>> p.value
3.0
"""

from .bus import BusEvent, EventBus, MemorySink, Subscription, Topics
from .core import EmptySchedule, Environment, Process, simulate
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    StopProcess,
    Timeout,
)
from .resources import Resource, Store

__all__ = [
    "Environment",
    "Process",
    "EmptySchedule",
    "simulate",
    "Event",
    "Timeout",
    "Interrupt",
    "StopProcess",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
    "BusEvent",
    "EventBus",
    "MemorySink",
    "Subscription",
    "Topics",
]
