"""The simulation environment: clock, event queue, and process driver."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generator, Iterable, List, Optional, Tuple

from .bus import EventBus, Topics
from .events import (
    NORMAL,
    PENDING,
    URGENT,
    AllOf,
    AnyOf,
    Event,
    Initialize,
    Interruption,
    StopProcess,
    Timeout,
)

__all__ = ["Environment", "Process", "EmptySchedule", "simulate"]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class _StopSimulation(Exception):
    """Internal: raised to halt :meth:`Environment.run` at its until-event."""


class Process(Event):
    """A running simulation process wrapping a generator.

    A process is itself an event which fires when the generator returns
    (successfully, with the generator's return value) or raises
    (failed, with the exception).
    """

    __slots__ = ("_generator", "_target", "name", "span_ctx")

    def __init__(self, env: "Environment", generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Ambient trace context (monitor.tracing), inherited from the
        #: process that spawned this one so causal parentage crosses
        #: process boundaries without any signature changes.
        parent = env._active_proc
        self.span_ctx = parent.span_ctx if parent is not None else None
        #: The event the process currently waits for.
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        return self._target

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` with *cause* into this process."""
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_proc = self
        # ``_active_proc`` is cleared exactly once, in the finally below —
        # including the non-event-yield error path, which previously left
        # a second clear unreachable after its raise.
        try:
            while True:
                try:
                    if event._ok:
                        next_event = self._generator.send(event._value)
                    else:
                        # The event failed: propagate into the generator.
                        event._defused = True
                        exc = event._value
                        if not isinstance(exc, BaseException):  # pragma: no cover
                            exc = RuntimeError(repr(exc))
                        next_event = self._generator.throw(exc)
                except (StopIteration, StopProcess) as stop:
                    self._target = None
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self._target = None
                    self.fail(exc)
                    return

                if type(next_event) is not Timeout and not isinstance(next_event, Event):
                    raise RuntimeError(
                        f"process {self.name!r} yielded a non-event: {next_event!r}"
                    )

                if next_event.callbacks is not None:
                    # Not yet processed: wait for it.
                    next_event.callbacks.append(self._resume)
                    self._target = next_event
                    return
                # Already processed: continue immediately with its outcome.
                event = next_event
        finally:
            env._active_proc = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"


class Environment:
    """Execution environment for a discrete-event simulation.

    Time advances by processing scheduled events in (time, priority,
    insertion-order) order.  All events and processes belong to exactly
    one environment.

    Every environment carries an :class:`~repro.desim.bus.EventBus` at
    :attr:`bus`; substrate components publish structured events there and
    the monitoring layer subscribes.  The kernel itself only publishes
    ``kernel.step`` when someone actually listens: instrumentation state
    is folded into a single cached flag so the idle-bus hot path pays one
    boolean check per event.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_proc: Optional[Process] = None
        #: The structured event spine every layer publishes to.
        self.bus = EventBus(self)
        self._step_port = self.bus.port(Topics.KERNEL_STEP)
        #: Attach point for a :class:`repro.monitor.tracing.SpanTracer`;
        #: substrate layers reach it duck-typed (never importing monitor).
        self.spans = None
        #: Same-timestamp kernel.step compaction: kind -> [count, queued].
        #: One coalesced event per (timestamp, kind) is flushed when the
        #: clock advances (and at run end), so a kernel.step subscriber
        #: costs a dict update per step instead of a full publication.
        self._step_batch: dict = {}
        self._step_batch_time: float = 0.0
        self.bus.watch(self._refresh_instrumentation)
        self._refresh_instrumentation()

    # -- instrumentation ---------------------------------------------------
    def _refresh_instrumentation(self) -> None:
        was_subscribed = getattr(self, "_kernel_subscribed", False)
        # Cached: while set, run() takes step(), which batches kernel.step.
        self._kernel_subscribed = self._step_port.on
        if was_subscribed and not self._kernel_subscribed:
            # The last kernel.step subscriber left: flush what it is
            # still owed before the fast loop takes over.
            self._flush_steps()

    def _instrument_step(self, event: Event) -> None:
        batch = self._step_batch
        if batch and self._step_batch_time != self._now:
            self._flush_steps()
            batch = self._step_batch
        self._step_batch_time = self._now
        kind = type(event).__name__
        entry = batch.get(kind)
        if entry is None:
            batch[kind] = [1, len(self._queue)]
        else:
            entry[0] += 1
            entry[1] = len(self._queue)

    def _flush_steps(self) -> None:
        """Publish the coalesced kernel.step batch (one event per kind)."""
        batch = self._step_batch
        if not batch:
            return
        self._step_batch = {}
        t = self._step_batch_time
        emit_at = self._step_port.emit_at
        for kind, (n, queued) in batch.items():
            emit_at(t, kind=kind, queued=queued, count=n)

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Insert *event* into the queue after *delay* time units."""
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event; raise :class:`EmptySchedule` when done."""
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - double-processing guard
            return
        if self._kernel_subscribed:
            self._instrument_step(event)
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure: crash the simulation.
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run until *until* (a time, an event, or exhaustion when None).

        Returns the until-event's value if *until* is an event.  A time
        equal to the current instant returns immediately (simpy
        semantics); only a time strictly in the past is an error.
        """
        if until is not None:
            if isinstance(until, Event):
                at_event = until
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until={at} must not lie in the past (now={self._now})")
                if at == self._now:
                    return None
                at_event = Event(self)
                at_event._ok = True
                at_event._value = None
                self.schedule(at_event, priority=URGENT, delay=at - self._now)

            def stop(_event: Event) -> None:
                raise _StopSimulation()

            if at_event.callbacks is None:
                return at_event._value
            at_event.callbacks.append(stop)
        else:
            at_event = None

        # The dispatch loop below is step() inlined: one heappop, one
        # callbacks swap, and a batched callback sweep per event, with
        # the bound methods hoisted out of the loop.  With a kernel.step
        # subscriber the loop falls back to the full step() so the batch
        # keeps filling; the flag is re-read every iteration, so
        # subscribing mid-run takes effect.
        pop = heapq.heappop
        queue = self._queue
        step = self.step
        try:
            while True:
                if self._kernel_subscribed:
                    step()
                    continue
                try:
                    self._now, _, _, event = pop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except EmptySchedule:
            if self._step_batch:
                self._flush_steps()
            if at_event is not None and at_event._value is PENDING:
                raise RuntimeError(
                    "simulation ran out of events before the until-event fired"
                ) from None
            return None
        except _StopSimulation:
            if self._step_batch:
                self._flush_steps()
            if at_event is not None and not at_event._ok:
                raise at_event._value
            return at_event._value if at_event is not None else None

    # -- factories ----------------------------------------------------------
    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from *generator*."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after *delay* time units."""
        # Build the event inline and push it straight onto the queue,
        # skipping the Event/Timeout constructor chain and the schedule()
        # indirection.  Timeouts dominate big simulations, so this is the
        # kernel's single hottest allocation site.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = Timeout.__new__(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._defused = False
        ev.delay = delay
        heapq.heappush(self._queue, (self._now + delay, NORMAL, next(self._eid), ev))
        return ev

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Environment now={self._now} queued={len(self._queue)}>"


def simulate(processes, until: Optional[float] = None) -> Environment:
    """Convenience: run generator factories in a fresh environment.

    *processes* is an iterable of callables accepting the environment and
    returning a generator.
    """
    env = Environment()
    for factory in processes:
        env.process(factory(env))
    env.run(until=until)
    return env
