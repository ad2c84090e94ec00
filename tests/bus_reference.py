# Reference copy of the event bus as it stood before every emit went
# through a TopicPort: it still has publish(), publish_lazy(), the ring
# and the environment-less mode.  The code below is repro.desim.bus from
# that revision, unchanged (it imports nothing from the package).
# tests/test_bus_reference.py drives it and the current bus with the
# same subscribe/cancel/emit streams and compares every delivery.

"""The structured event bus: one instrumentation spine for every layer.

The paper's §5 thesis is that Lobster scaled *because* every segment of
every task was instrumented end-to-end.  This module is the simulated
equivalent: every substrate component (Work Queue, the batch pool, the
CVMFS/squid tier, the storage servers, Lobster's own control loop)
publishes typed, timestamped events onto the environment's
:class:`EventBus`; the monitoring layer subscribes instead of being
hand-threaded through each producer.

Design constraints, in order:

1. **Work scales with subscribed density, not emitted density.**  A
   publish site whose topic nobody wants must cost one truthiness check
   and build no payload.  Three tiers, cheapest first:

   * ``if bus:`` — the whole-bus guard (``__bool__`` is ``active``);
     free when nothing at all listens.
   * ``port = bus.port(topic)`` … ``if port: port.emit(**fields)`` —
     the per-topic fast path.  The port caches the compiled callback
     tuple for its topic; when the bus is live but the topic is
     unmatched the port is falsy and the site skips payload
     construction entirely.  Ports are refreshed on every subscription
     change, so late subscribers are never starved.
   * ``bus.publish_lazy(topic, thunk)`` — for sites where even the
     guard is awkward: the thunk builds the field dict and is invoked
     at most once, and only when a subscriber (or the ring) will see
     the event.

2. **Lazy event materialisation.**  A :class:`BusEvent` object is built
   only when something needs one — the ring, or a classic subscriber.
   Hot consumers subscribe with ``raw=True`` (exact topics only) and
   receive the flat *record* dict instead: the producer's field dict
   with the simulated time appended under ``"t"``.  When a topic has
   only raw subscribers, delivery allocates nothing beyond the field
   dict the producer was building anyway.
3. **Deterministic delivery.**  Subscribers run synchronously, in
   subscription order, at the simulated instant of publication; field
   dicts preserve insertion order.  Same seed → byte-identical event
   stream (see ``tests/test_determinism.py``).
4. **Bounded retention.**  An optional ring buffer keeps the last *N*
   events for post-mortem drill-down without unbounded memory growth.

Topics are dotted paths (``task.done``, ``cache.miss``, ``proxy.queue``)
and subscriptions filter by exact topic, by prefix (``task.*``), or
match everything (``*``).  Patterns are compiled into a per-topic
subscriber index at *subscribe* time (exact / prefix / wildcard
buckets); publication never scans the subscription list.  The canonical
topic names live on :class:`Topics` so publishers and subscribers cannot
drift apart — subscribing with a pattern that can never match the known
topic namespace warns once, so index-compilation typos surface instead
of silently dropping events.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = [
    "BusEvent",
    "EventBus",
    "MemorySink",
    "Subscription",
    "TopicPort",
    "Topics",
    "make_event",
]


class Topics:
    """Canonical topic names published by the substrate layers."""

    # Work Queue (wq.master / wq.worker / wq.foreman)
    TASK_SUBMIT = "task.submit"
    TASK_DISPATCH = "task.dispatch"
    TASK_START = "task.start"
    TASK_DONE = "task.done"
    TASK_REQUEUE = "task.requeue"
    TASK_ABORT = "task.abort"
    TASK_EXHAUSTED = "task.exhausted"  #: retry budget spent; task failed
    TASK_RESULT = "task.result"  #: full Lobster-level record (core.lobster)
    TASK_DUPLICATE = "task.duplicate"  #: late/duplicate result dropped
    WORKER_REGISTER = "worker.register"
    WORKER_UNREGISTER = "worker.unregister"
    FOREMAN_RELAY = "foreman.relay"
    # Batch system (batch.condor / batch.owner)
    EVICTION = "eviction"
    POOL_OCCUPANCY = "pool.occupancy"
    OWNER_PREEMPT = "owner.preempt"
    # Software delivery (cvmfs.parrot / cvmfs.squid)
    CACHE_HIT = "cache.hit"
    CACHE_MISS = "cache.miss"
    PROXY_QUEUE = "proxy.queue"
    PROXY_TIMEOUT = "proxy.timeout"
    # Storage (storage.xrootd / storage.chirp / storage.wan)
    LINK_TRANSFER = "link.transfer"
    CHIRP_QUEUE = "chirp.queue"
    XROOTD_ERROR = "xrootd.error"
    # Network fabric (repro.net.fabric)
    NET_FLOW = "net.flow"
    NET_FLOW_FAIL = "net.flow.fail"
    NET_OUTAGE = "net.outage"
    # Wrapper / merge (core.wrapper / core.merge)
    WRAPPER_SEGMENT = "wrapper.segment"
    MERGE_SUBMIT = "merge.submit"
    MERGE_DONE = "merge.done"
    MERGE_RETRY = "merge.retry"
    # Output integrity / exactly-once ledger (storage.se, core.lobster, core.merge)
    INTEGRITY_CORRUPT = "integrity.corrupt"  #: checksum mismatch at a read/commit hop
    INTEGRITY_QUARANTINE = "integrity.quarantine"  #: corrupt output pulled for re-derive
    INTEGRITY_COMMIT = "integrity.commit"  #: output verified + committed in the ledger
    INTEGRITY_ORPHAN = "integrity.orphan"  #: half-written output swept on recovery
    # Fault injection / active recovery (repro.faults, wq.master, core.wrapper)
    FAULT_INJECT = "fault.inject"
    FAULT_CLEAR = "fault.clear"
    HOST_BLACKLIST = "host.blacklist"
    RECOVERY_FALLBACK = "recovery.fallback"
    RECOVERY_RESUME = "recovery.resume"  #: a warm-restarted master re-attached state
    # Crash consistency (core.jobit_db): one event per durable DB transition,
    # the enumeration the repro.crashtest fuzzer snapshots at.
    DB_CHECKPOINT = "db.checkpoint"
    # Dataset publication (core.publish)
    PUBLISH_DATASET = "publish.dataset"  #: a workflow's outputs went public
    # Live run health (monitor.watch): typed, deduplicated detector
    # transitions with evidence span/trace ids (§5 operator heuristics)
    ALERT_RAISE = "alert.raise"
    ALERT_CLEAR = "alert.clear"
    # Causal tracing (monitor.tracing; published so recordings replay)
    SPAN_START = "span.start"
    SPAN_END = "span.end"
    # Kernel introspection (desim.core)
    KERNEL_STEP = "kernel.step"

    _extra: Set[str] = set()

    @classmethod
    def known(cls) -> Set[str]:
        """Every canonical topic name plus explicitly registered extras."""
        topics = {
            v
            for k, v in vars(Topics).items()
            if not k.startswith("_") and isinstance(v, str)
        }
        topics.update(cls._extra)
        return topics

    @classmethod
    def register(cls, *names: str) -> None:
        """Register ad-hoc topic names (benchmarks, experiments) so
        subscriptions against them pass the never-matches check."""
        cls._extra.update(names)


class BusEvent:
    """One published event: (simulated time, topic, ordered fields).

    Deliberately has no ``__init__``: a slots class with the default
    constructor allocates via the bare ``BusEvent()`` call roughly twice
    as fast as ``object.__new__`` (and ~3x faster than a Python-level
    ``__init__``), which is the difference between the compiled port
    emitters clearing the subscribed-overhead budget or not.  Use
    :func:`make_event` (or assign the three slots directly) to build one.
    """

    __slots__ = ("time", "topic", "fields")

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict view with ``t`` and ``topic`` leading (JSONL shape)."""
        out: Dict[str, Any] = {"t": self.time, "topic": self.topic}
        out.update(self.fields)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BusEvent {self.topic} t={self.time:.3f} {self.fields!r}>"


def make_event(time: float, topic: str, fields: Dict[str, Any]) -> BusEvent:
    """Build a :class:`BusEvent` (slow-path convenience constructor)."""
    event = BusEvent()
    event.time = time
    event.topic = topic
    event.fields = fields
    return event


def _matches(pattern: str, topic: str) -> bool:
    """The pattern semantics, in one place.

    Used when *compiling* subscriptions into the per-topic index —
    publication itself never pattern-matches (it reads the compiled
    index), so this stays the single definition both sides agree on.
    """
    if pattern == "*" or pattern == topic:
        return True
    if pattern.endswith(".*"):
        return topic.startswith(pattern[:-1])
    return False


class Subscription:
    """A live (pattern, callback) registration; cancel() detaches it."""

    __slots__ = ("pattern", "callback", "bus", "seq", "raw")

    def __init__(
        self,
        bus: "EventBus",
        pattern: str,
        callback: Callable[[BusEvent], None],
        raw: bool = False,
    ):
        self.bus: Optional["EventBus"] = bus
        self.pattern = pattern
        self.callback = callback
        #: Raw subscribers receive the flat record dict (fields plus a
        #: trailing ``"t"`` time key) instead of a BusEvent.
        self.raw = raw
        #: Subscription-order sequence number; delivery order is defined
        #: by it even though subscriptions live in per-shape index buckets.
        self.seq = 0

    def matches(self, topic: str) -> bool:
        return _matches(self.pattern, topic)

    def cancel(self) -> None:
        if self.bus is not None:
            self.bus.unsubscribe(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self.bus is not None else "cancelled"
        return f"<Subscription {self.pattern!r} ({state})>"


def _emit_dropped(**fields) -> None:
    """Compiled emit for a port nobody listens to: discard."""


class TopicPort:
    """The per-topic fast path: a pre-resolved emitter for one topic.

    A port caches the compiled callback tuple for its topic (and the
    ring, if any); the bus refreshes every port whenever the
    subscription set changes.  Producers cache the port once (usually in
    ``__init__``) and guard the hot path with ``if port.on:`` (or the
    equivalent ``if port:``) — false means *this topic* would be
    dropped, so the site skips building the payload even while other
    topics are subscribed.

    ``emit(**fields)`` stamps the owning environment's clock; it is a
    per-state compiled closure (recompiled on every subscription
    change), so always cache the *port*, never a bound ``port.emit``.
    Ports of an environment-less bus stamp 0.0 (use :meth:`emit_at` to
    override).

    Accounting: every *delivered* emit bumps a one-cell tally closed
    over by the compiled emitter; the subscriber count at compile time
    is fixed, so :attr:`EventBus.published` / :attr:`EventBus.delivered`
    recover exact totals as ``tally`` and ``tally × fan-out`` without
    any per-delivery bookkeeping beyond the single list-cell increment.
    The zero-subscriber fast path (:func:`_emit_dropped`) stays
    accounting-free — a dead port still costs nothing.
    """

    __slots__ = ("bus", "topic", "on", "emit", "_env", "_subs", "_ring", "_tally", "_fanout")

    def __init__(self, bus: "EventBus", topic: str):
        self.bus = bus
        self.topic = topic
        #: One-cell emit counter shared with the compiled closure.  The
        #: fan-out (subscriber count) is constant between refreshes, so
        #: delivered = tally * fan-out; _refresh() flushes both into the
        #: bus-level totals before recompiling.
        self._tally = [0]
        self._fanout = 0
        self._refresh()

    def _refresh(self) -> None:
        bus = self.bus
        n = self._tally[0]
        if n:
            bus._published += n
            bus._delivered += n * self._fanout
            self._tally[0] = 0
        subs = bus._cache.get(self.topic)
        if subs is None:
            subs = bus._resolve(self.topic)
        self._subs = subs
        self._ring = bus.ring
        self._env = bus.env
        self._fanout = len(subs)
        #: Hot-path guard: True when an emit would reach anything.
        self.on = bool(subs) or self._ring is not None
        self.emit = self._compile()

    def _compile(self):
        """Build the emit closure for the current subscription state.

        Everything the hot path touches is a closure cell — no ``self``
        attribute chasing per emit.  The single-subscriber, no-ring
        shapes (the common case for domain topics) skip the delivery
        loop entirely; the single-*raw*-subscriber shape materialises no
        event object at all — the producer's field dict, stamped with
        ``"t"``, is the delivered record.
        """
        subs, ring, env, topic = self._subs, self._ring, self._env, self.topic
        if not subs and ring is None:
            return _emit_dropped
        mk = BusEvent
        tally = self._tally
        if len(subs) == 1 and ring is None and env is not None:
            cb, raw = subs[0]
            if raw:
                # The hot shape: one raw subscriber, no ring.  Zero
                # allocation beyond the kwargs dict the call itself
                # builds — the dict is stamped in place and handed over.
                def emit(**fields) -> None:
                    tally[0] += 1
                    fields["t"] = env._now
                    cb(fields)

                return emit

            # One classic subscriber: materialise the event.  The bare
            # class call is the cheapest allocation CPython offers for
            # a slots instance (see BusEvent docstring).
            def emit(**fields) -> None:
                tally[0] += 1
                event = mk()
                event.time = env._now
                event.topic = topic
                event.fields = fields
                cb(event)

            return emit

        need_event = ring is not None or any(not raw for _, raw in subs)

        def emit(**fields) -> None:
            tally[0] += 1
            t = env._now if env is not None else 0.0
            event = None
            if need_event:
                event = mk()
                event.time = t
                event.topic = topic
                event.fields = fields
                if ring is not None:
                    ring.append(event)
            record = None
            for cb, raw in subs:
                if raw:
                    if record is None:
                        # Classic subscribers share ``fields`` through
                        # the event; give raw ones their own copy so
                        # the "t" stamp never leaks into event.fields.
                        record = dict(fields) if need_event else fields
                        record["t"] = t
                    cb(record)
                else:
                    cb(event)

        return emit

    def __bool__(self) -> bool:
        return self.on

    def emit_at(self, time: float, **fields) -> None:
        """Like :meth:`emit` with an explicit timestamp."""
        if not self.on:
            return
        self._tally[0] += 1
        subs = self._subs
        need_event = self._ring is not None or any(not raw for _, raw in subs)
        event = None
        if need_event:
            event = make_event(time, self.topic, fields)
            if self._ring is not None:
                self._ring.append(event)
        record = None
        for cb, raw in subs:
            if raw:
                if record is None:
                    record = dict(fields) if need_event else fields
                    record["t"] = time
                cb(record)
            else:
                cb(event)

    def emit_lazy(self, thunk: Callable[[], Dict[str, Any]]) -> None:
        """Build the payload via *thunk* only if delivery will happen.

        The thunk is invoked at most once per call, and never when the
        port is inactive.
        """
        if self.on:
            self.emit(**thunk())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TopicPort {self.topic!r} subs={len(self._subs)} on={self.on}>"


class EventBus:
    """Typed topic pub/sub with a compiled index, ports, and a ring.

    Subscriptions are compiled into a per-topic subscriber index at
    subscribe time (exact-topic, dotted-prefix, and wildcard buckets);
    ``publish`` resolves a topic with one dict lookup and never scans
    pattern lists.  Unsubscribing invalidates only the affected topics.
    """

    __slots__ = (
        "env",
        "ring",
        "active",
        "_published",
        "_delivered",
        "_subs",
        "_cache",
        "_watchers",
        "_ports",
        "_exact",
        "_prefix",
        "_wild",
        "_seq",
        "_warned",
    )

    def __init__(self, env=None, ring_size: int = 0):
        if ring_size < 0:
            raise ValueError("ring_size must be non-negative")
        #: The owning environment (stamps event times); may be None for
        #: standalone use, in which case publishers pass their own time.
        self.env = env
        self.ring: Optional[deque] = deque(maxlen=ring_size) if ring_size else None
        #: True once anything can observe a publication.  Publishers are
        #: expected to guard with ``if bus:`` so an idle bus costs one
        #: attribute check and nothing else.
        self.active: bool = self.ring is not None
        self._published = 0
        self._delivered = 0
        self._subs: List[Subscription] = []
        #: topic -> compiled tuple of (callback, raw) in subscription order.
        self._cache: Dict[str, Tuple[Tuple[Callable, bool], ...]] = {}
        #: Called (with no args) when the subscription set changes; the
        #: Environment uses this to refresh its kernel instrumentation flag.
        self._watchers: List[Callable[[], None]] = []
        #: topic -> the (single, shared) TopicPort for that topic.
        self._ports: Dict[str, TopicPort] = {}
        # -- the compiled subscription index --------------------------------
        #: exact topic -> subscriptions on exactly that topic.
        self._exact: Dict[str, List[Subscription]] = {}
        #: dotted prefix (with trailing dot) -> prefix subscriptions.
        self._prefix: Dict[str, List[Subscription]] = {}
        #: match-everything subscriptions.
        self._wild: List[Subscription] = []
        self._seq = 0
        #: Patterns already warned about (once per bus per pattern).
        self._warned: Set[str] = set()

    # -- counters ----------------------------------------------------------
    @property
    def published(self) -> int:
        """Events delivered, across every path: legacy ``publish`` /
        ``publish_lazy`` plus all compiled port emits (``emit``,
        ``emit_at``, ``emit_lazy``).  Emits nobody observes (the
        zero-subscriber fast path) are never counted — and never cost
        anything.  A batched flush narration (e.g. one ``net.flow``
        record carrying a ``flows`` list) counts as one event.
        """
        n = self._published
        for port in self._ports.values():
            n += port._tally[0]
        return n

    @property
    def delivered(self) -> int:
        """Total (event, subscriber) deliveries across every path.

        Port deliveries are recovered as ``tally × fan-out`` (the
        subscriber set is constant between port refreshes), so the hot
        path pays one list-cell increment, not one per subscriber.
        """
        n = self._delivered
        for port in self._ports.values():
            n += port._tally[0] * port._fanout
        return n

    def stats(self) -> Dict[str, int]:
        """Telemetry snapshot: true event/delivery totals plus wiring."""
        return {
            "published": self.published,
            "delivered": self.delivered,
            "subscriptions": len(self._subs),
            "ports": len(self._ports),
            "ring": len(self.ring) if self.ring is not None else 0,
        }

    # -- wiring ------------------------------------------------------------
    def subscribe(
        self,
        pattern: str,
        callback: Callable[[BusEvent], None],
        raw: bool = False,
    ) -> Subscription:
        """Register *callback* for every topic matching *pattern*.

        Patterns are an exact topic (``"task.done"``), a dotted prefix
        (``"task.*"``), or ``"*"`` for everything.  The pattern is
        compiled into the per-topic index immediately; a pattern that
        can never match the known topic namespace warns once (see
        :meth:`Topics.register` for ad-hoc topics).

        With ``raw=True`` (exact topics only) the callback receives the
        flat record dict — the producer's fields with the simulated
        time appended under ``"t"`` — instead of a :class:`BusEvent`.
        This is the zero-materialisation path for hot consumers; the
        record dict is owned by the delivery, and ``"t"`` is a reserved
        key producers must not use.
        """
        if not pattern:
            raise ValueError("pattern must be non-empty")
        if raw and (pattern == "*" or pattern.endswith(".*")):
            raise ValueError(
                "raw subscriptions require an exact topic (the record dict "
                "carries no topic; the subscriber is expected to know it)"
            )
        self._warn_if_unmatchable(pattern)
        sub = Subscription(self, pattern, callback, raw)
        self._seq += 1
        sub.seq = self._seq
        self._subs.append(sub)
        if pattern == "*":
            self._wild.append(sub)
        elif pattern.endswith(".*"):
            self._prefix.setdefault(pattern[:-1], []).append(sub)
        else:
            self._exact.setdefault(pattern, []).append(sub)
        # Incremental index update: already-compiled topics gain the new
        # callback in place (it has the highest seq, so appending keeps
        # subscription order); nothing is recompiled wholesale.
        for topic in self._cache:
            if _matches(pattern, topic):
                self._cache[topic] += ((callback, raw),)
        self._changed()
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        try:
            self._subs.remove(sub)
        except ValueError:
            return
        sub.bus = None
        pattern = sub.pattern
        if pattern == "*":
            self._wild.remove(sub)
        elif pattern.endswith(".*"):
            bucket = self._prefix.get(pattern[:-1])
            if bucket is not None:
                bucket.remove(sub)
                if not bucket:
                    del self._prefix[pattern[:-1]]
        else:
            bucket = self._exact.get(pattern)
            if bucket is not None:
                bucket.remove(sub)
                if not bucket:
                    del self._exact[pattern]
        # Invalidate only the topics the cancelled pattern touched; they
        # recompile from the index on next use (or port refresh below).
        for topic in [t for t in self._cache if _matches(pattern, t)]:
            del self._cache[topic]
        self._changed()

    def attach(self, sink, pattern: str = "*") -> Subscription:
        """Subscribe a sink: a callable or an object with ``on_event``."""
        callback = sink if callable(sink) else sink.on_event
        return self.subscribe(pattern, callback)

    def watch(self, callback: Callable[[], None]) -> None:
        """Run *callback* whenever the subscription set changes."""
        self._watchers.append(callback)

    def _changed(self) -> None:
        """Fan a subscription-set change out to ports and watchers."""
        self.active = bool(self._subs) or self.ring is not None
        for port in self._ports.values():
            port._refresh()
        for watcher in self._watchers:
            watcher()

    def _warn_if_unmatchable(self, pattern: str) -> None:
        if pattern == "*" or pattern in self._warned:
            return
        known = Topics.known()
        if pattern.endswith(".*"):
            prefix = pattern[:-1]
            ok = any(t.startswith(prefix) for t in known)
        else:
            ok = pattern in known
        if not ok:
            self._warned.add(pattern)
            warnings.warn(
                f"bus subscription pattern {pattern!r} matches no known topic; "
                "events will never be delivered to it "
                "(register ad-hoc topics via Topics.register)",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- queries -----------------------------------------------------------
    def wants(self, topic: str) -> bool:
        """True when some subscriber (or the ring) would see *topic*."""
        if self.ring is not None:
            return True
        subs = self._cache.get(topic)
        if subs is None:
            subs = self._resolve(topic)
        return bool(subs)

    def has_subscribers(self, topic: str) -> bool:
        """True when a *subscriber* matches *topic* (ring excluded)."""
        subs = self._cache.get(topic)
        if subs is None:
            subs = self._resolve(topic)
        return bool(subs)

    def port(self, topic: str) -> TopicPort:
        """The shared :class:`TopicPort` for *topic* (created on demand)."""
        port = self._ports.get(topic)
        if port is None:
            port = self._ports[topic] = TopicPort(self, topic)
        return port

    def _resolve(self, topic: str) -> Tuple[Tuple[Callable, bool], ...]:
        """Compile *topic*'s (callback, raw) tuple from the index."""
        matched: List[Subscription] = list(self._wild)
        exact = self._exact.get(topic)
        if exact:
            matched.extend(exact)
        if self._prefix:
            i = topic.find(".")
            while i != -1:
                bucket = self._prefix.get(topic[: i + 1])
                if bucket:
                    matched.extend(bucket)
                i = topic.find(".", i + 1)
        matched.sort(key=lambda s: s.seq)
        subs = tuple((s.callback, s.raw) for s in matched)
        self._cache[topic] = subs
        return subs

    # -- publication -------------------------------------------------------
    def publish(self, topic: str, _time: Optional[float] = None, **fields) -> None:
        """Deliver one event to every matching subscriber, synchronously.

        The event time is the environment clock unless *_time* overrides
        it.  When the bus is inactive this returns immediately — but
        callers on hot paths should guard with ``if bus:`` (or better, a
        cached :meth:`port`) and not pay for building ``fields`` at all.
        """
        if not self.active:
            return
        subs = self._cache.get(topic)
        if subs is None:
            subs = self._resolve(topic)
        if not subs and self.ring is None:
            return
        if _time is None:
            _time = self.env.now if self.env is not None else 0.0
        self._deliver(_time, topic, fields, subs)

    def _deliver(self, time, topic, fields, subs) -> None:
        """Shared slow-path delivery: materialise lazily, then fan out."""
        need_event = self.ring is not None or any(not raw for _, raw in subs)
        event = None
        if need_event:
            event = make_event(time, topic, fields)
            if self.ring is not None:
                self.ring.append(event)
        record = None
        self._published += 1
        for callback, raw in subs:
            if raw:
                if record is None:
                    record = dict(fields) if need_event else fields
                    record["t"] = time
                callback(record)
            else:
                callback(event)
        self._delivered += len(subs)

    def publish_lazy(
        self,
        topic: str,
        thunk: Callable[[], Dict[str, Any]],
        _time: Optional[float] = None,
    ) -> None:
        """Publish with a deferred payload: *thunk* builds the field dict.

        The thunk runs at most once per call, and only when a subscriber
        (or the ring) will actually see the event — an unmatched topic
        costs one dict lookup and zero payload construction.
        """
        if not self.active:
            return
        subs = self._cache.get(topic)
        if subs is None:
            subs = self._resolve(topic)
        if not subs and self.ring is None:
            return
        if _time is None:
            _time = self.env.now if self.env is not None else 0.0
        self._deliver(_time, topic, thunk(), subs)

    # -- dunder ------------------------------------------------------------
    def __bool__(self) -> bool:
        return self.active

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<EventBus subs={len(self._subs)} published={self.published} "
            f"delivered={self.delivered} "
            f"ring={len(self.ring) if self.ring is not None else 0}>"
        )


class MemorySink:
    """In-memory sink for tests: collects every matching event."""

    def __init__(self) -> None:
        self.events: List[BusEvent] = []

    def __call__(self, event: BusEvent) -> None:
        self.events.append(event)

    def topics(self) -> List[str]:
        return [e.topic for e in self.events]

    def of(self, topic: str) -> List[BusEvent]:
        return [e for e in self.events if e.topic == topic]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)
