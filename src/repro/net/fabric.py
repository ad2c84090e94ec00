"""The shared network fabric: named links, routes, end-to-end flows.

Every byte the simulator moves — CVMFS cold-cache fills, Frontier
lookups, XrootD streams, Chirp/WQ staging, sandbox shipping, merge
writes — crosses real shared infrastructure: the worker NIC, the machine
group switch, the campus core, the WAN uplink.  A :class:`Fabric` models
that infrastructure as a tree of named :class:`Link` edges between named
nodes.  One :class:`Flow` occupies *every* link along its route
simultaneously and receives the bottleneck max-min rate, so ~9000
streaming tasks saturating the 10 Gbit/s uplink (paper Fig 10) slow the
stage-out traffic sharing it, exactly as observed.

Allocation is incremental: changes (flow joins/leaves, capacity edits)
mark links dirty, all changes at one DES timestamp are coalesced into a
single recompute, and the recompute walks only the connected component
of links/flows actually touched — untouched flows keep their rates.
When one link at the component's lowest fair share carries every flow
of the component, the recompute settles it from the links' live flow
counts without calling :func:`~repro.net.allocator.waterfill`.

The fabric is the simulator's only bandwidth model.  A point resource
with no place in the tree (a disk, a request-rate budget) is a
standalone :class:`Link`, and a component built without a shared fabric
gets a private one; each HDFS DataNode's disk and NIC is a standalone
link alone on its own fabric.
"""

from __future__ import annotations

from itertools import accumulate, count, repeat
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..desim import Environment, Timeout, Topics
from ..desim.events import Event, PENDING
from .allocator import _REL_EPS, waterfill

__all__ = ["Fabric", "Flow", "Link", "LinkDown", "TrafficClass", "TransferCancelled"]

_EPS = 1e-9
_by_start = attrgetter("_seq")


class TrafficClass:
    """Canonical traffic-class tags for per-class accounting (Fig 10)."""

    CVMFS = "cvmfs"
    FRONTIER = "frontier"
    XROOTD = "xrootd"
    STAGING = "staging"
    OUTPUT = "output"
    MERGE = "merge"
    DEFAULT = "bulk"

    ALL = (CVMFS, FRONTIER, XROOTD, STAGING, OUTPUT, MERGE, DEFAULT)


class TransferCancelled(Exception):
    """A flow was cancelled (e.g. worker evicted mid-stream)."""


class LinkDown(TransferCancelled):
    """A flow was failed because a link on its route went down."""


class Flow(Event):
    """An in-flight transfer occupying every link along its route.

    A DES event: it succeeds (with itself as value) once ``remaining``
    reaches zero, and fails with :class:`TransferCancelled` on
    :meth:`cancel` or with :class:`LinkDown` when a link on the route
    goes down.
    """

    __slots__ = (
        "fabric",
        "route",
        "nbytes",
        "remaining",
        "max_rate",
        "rate",
        "cls",
        "src",
        "dst",
        "started",
        "span",
        "_seq",
        "_done_at",
    )

    def __init__(
        self,
        fabric: "Fabric",
        route: Tuple["Link", ...],
        nbytes: float,
        max_rate: Optional[float],
        cls: str,
        src: Optional[str],
        dst: Optional[str],
    ):
        super().__init__(fabric.env)
        self.fabric = fabric
        self.route = route
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.max_rate = max_rate
        self.rate = 0.0
        self.cls = cls
        self.src = src
        self.dst = dst
        self.started = fabric.env.now
        #: Start order; a flush completes its flows in this order.
        self._seq = next(fabric._flow_seq)
        #: The flow completes once ``remaining`` falls to this.
        self._done_at = _EPS * max(1.0, self.nbytes)
        #: Ambient trace context of the process that opened the flow, so
        #: net.flow events carry span attribution (monitor.tracing).
        proc = fabric.env._active_proc
        self.span = proc.span_ctx if proc is not None else None

    @property
    def elapsed(self) -> float:
        return self.env.now - self.started

    def cancel(self) -> None:
        """Abort the flow; it fails with :class:`TransferCancelled`.

        Safe after completion (no-op).  Pre-defused so a cancelled flow
        nobody waits on does not crash the simulation.
        """
        self.fabric._cancel(self, TransferCancelled, "cancelled")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Flow {self.cls} {self.nbytes:.0f}B remaining={self.remaining:.0f}B "
            f"rate={self.rate:.0f}B/s hops={len(self.route)}>"
        )


class Link:
    """One named edge of the fabric with max-min shared capacity.

    ``transfer`` moves bytes across just this link; ``set_capacity``
    re-shares live flows (0 = outage); ``active_flows``,
    ``bytes_moved``, ``bytes_by_class`` and ``utilization`` report its
    load; ``schedule_outages`` drives link-level outage windows.
    """

    def __init__(
        self,
        fabric: "Fabric",
        name: str,
        capacity: float,
        node: Optional[str] = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.fabric = fabric
        self.env: Environment = fabric.env
        self.name = name
        #: The tree node whose uplink edge this link is (None = standalone).
        self.node = node
        self._capacity = float(capacity)
        #: Insertion-ordered set of flows currently crossing this link.
        self._flows: Dict[Flow, None] = {}
        #: Cached aggregate rate across crossing flows (kept by Fabric).
        self._agg_rate = 0.0
        self._cls_rate: Dict[str, float] = {}
        #: Crossing flows per traffic class (kept by Fabric).
        self._cls_count: Dict[str, int] = {}
        # statistics
        self.bytes_moved = 0.0
        self.bytes_by_class: Dict[str, float] = {}
        self._busy_integral = 0.0
        self._window_start = fabric.env.now
        # outages
        self._outage = False
        self._fail_after = 0.0
        self._saved_capacity = self._capacity
        self.outages_seen = 0

    # -- capacity and load -------------------------------------------------
    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def is_down(self) -> bool:
        return self._outage

    def transfer(self, nbytes: float, max_rate: Optional[float] = None, cls: str = TrafficClass.DEFAULT) -> Flow:
        """Begin moving *nbytes* across just this link."""
        return self.fabric.transfer(nbytes, route=(self,), max_rate=max_rate, cls=cls)

    def set_capacity(self, capacity: float) -> None:
        """Change the link capacity (0 = outage); live flows re-share."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.fabric._advance()
        self._capacity = float(capacity)
        self.fabric._touch((self,))

    def utilization(self) -> float:
        """Mean fraction of capacity in use over the current window.

        The window starts at link creation (or the last call to
        :meth:`reset_utilization_window`) and ends now.
        """
        self.fabric._advance()
        window = self._capacity * (self.env.now - self._window_start)
        if window <= 0:  # no time, no capacity, or a product that underflows
            return 0.0
        return min(1.0, self._busy_integral / window)

    def reset_utilization_window(self) -> None:
        """Start a fresh utilization window at the current time."""
        self.fabric._advance()
        self._busy_integral = 0.0
        self._window_start = self.env.now

    # -- outage schedules --------------------------------------------------
    def schedule_outages(self, windows: Sequence, fail_after: Optional[float] = 30.0) -> None:
        """Drive this link's capacity from *windows* (objects with
        ``start``/``end``).  During a window capacity is 0; in-flight
        flows of every class crossing the link are failed with
        :class:`LinkDown` once *fail_after* seconds of stall have
        elapsed (``None`` = flows stall but survive)."""
        windows = sorted(windows, key=lambda w: w.start)
        if not windows:
            return
        self._fail_after = fail_after if fail_after is not None else float("inf")
        self.env.process(
            self._outage_proc(windows, fail_after), name=f"{self.name}-outages"
        )

    def fail_flows(self, reason: str = "link down") -> int:
        """Fail every flow currently crossing this link; returns count."""
        victims = [f for f in self._flows if f._value is PENDING]
        for f in victims:
            self.fabric._cancel(f, LinkDown, reason)
        return len(victims)

    def _outage_proc(self, windows, fail_after):
        env = self.env
        for w in windows:
            if w.end <= env.now:
                continue
            if w.start > env.now:
                yield env.timeout(w.start - env.now)
            self._outage = True
            self._saved_capacity = self._capacity
            self.set_capacity(0.0)
            self.outages_seen += 1
            port = self.fabric._outage_port
            if port.on:
                port.emit(link=self.name, up=False, until=w.end)
            remaining = w.end - env.now
            if fail_after is not None and fail_after < remaining:
                yield env.timeout(fail_after)
                self.fail_flows(f"{self.name} down")
                yield env.timeout(remaining - fail_after)
            else:
                yield env.timeout(remaining)
            self._outage = False
            self.set_capacity(self._saved_capacity)
            port = self.fabric._outage_port
            if port.on:
                port.emit(link=self.name, up=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Link {self.name!r} cap={self._capacity:.0f}B/s "
            f"flows={len(self._flows)}>"
        )


class Fabric:
    """A tree of named links between named nodes, with flow routing.

    Nodes form a tree rooted at *root* (the campus core by default);
    each non-root node has exactly one uplink edge.  Routes are the
    unique tree path between two nodes.  Links may also be standalone
    (no node) for point resources like disks or request-rate budgets.
    """

    def __init__(self, env: Environment, root: str = "campus-core"):
        self.env = env
        self.root = root
        #: All links by name (insertion-ordered).
        self.links: Dict[str, Link] = {}
        #: node -> (parent node, uplink Link); the root has (None, None).
        self._nodes: Dict[str, Tuple[Optional[str], Optional[Link]]] = {
            root: (None, None)
        }
        #: Insertion-ordered set of all live flows.
        self._flows: Dict[Flow, None] = {}
        #: Numbers flows in start order (``Flow._seq``).
        self._flow_seq = count()
        #: Live flows with their own rate cap.
        self._capped = 0
        #: Live flows whose ``remaining`` reached ``_done_at``; the next
        #: flush completes them.
        self._done: Dict[Flow, None] = {}
        #: Links whose flow set / capacity changed since the last flush.
        self._dirty: Dict[Link, None] = {}
        self._pending = False
        #: Links with non-zero aggregate rate (the only ones advanced).
        self._active_links: Dict[Link, None] = {}
        self._last = env.now
        self._timer_gen = 0
        self._route_cache: Dict[Tuple[str, str], Tuple[Link, ...]] = {}
        # Per-topic fast-path ports: the flush loop guards with
        # ``port.on`` and builds no payload when the topic is unmatched.
        bus = env.bus
        self._flow_port = bus.port(Topics.NET_FLOW)
        self._fail_port = bus.port(Topics.NET_FLOW_FAIL)
        self._outage_port = bus.port(Topics.NET_OUTAGE)
        # statistics
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_failed = 0

    # -- topology ---------------------------------------------------------
    def attach(
        self,
        name: str,
        capacity: float,
        node: Optional[str] = None,
        parent: Optional[str] = None,
    ) -> Link:
        """Create a link.  With *node*, the link becomes that node's
        uplink edge toward *parent* (default: the root); without, the
        link is standalone (reachable only by direct ``transfer``)."""
        if name in self.links:
            raise ValueError(f"link {name!r} already attached")
        link = Link(self, name, capacity, node=node)
        if node is not None:
            if node in self._nodes:
                raise ValueError(f"node {node!r} already attached")
            parent = parent if parent is not None else self.root
            if parent not in self._nodes:
                raise ValueError(f"unknown parent node {parent!r}")
            self._nodes[node] = (parent, link)
            self._route_cache.clear()
        self.links[name] = link
        return link

    def has_node(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    def parent(self, node: str) -> Optional[str]:
        return self._nodes[node][0]

    def uplink(self, node: str) -> Optional[Link]:
        return self._nodes[node][1]

    def route(self, src: str, dst: str) -> Tuple[Link, ...]:
        """The unique tree path between two nodes, as a link tuple."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src not in self._nodes:
            raise ValueError(f"unknown node {src!r}")
        if dst not in self._nodes:
            raise ValueError(f"unknown node {dst!r}")
        up: List[Link] = []
        ancestors: Dict[str, int] = {}
        n: Optional[str] = src
        while n is not None:
            ancestors[n] = len(up)
            parent, link = self._nodes[n]
            if parent is None:
                break
            up.append(link)
            n = parent
        down: List[Link] = []
        n = dst
        while n is not None and n not in ancestors:
            parent, link = self._nodes[n]
            down.append(link)
            n = parent
        # n is now the lowest common ancestor.
        route = tuple(up[: ancestors[n]] + list(reversed(down)))
        self._route_cache[key] = route
        return route

    # -- flows ------------------------------------------------------------
    def transfer(
        self,
        nbytes: float,
        route: Optional[Iterable[Link]] = None,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        cls: str = TrafficClass.DEFAULT,
        max_rate: Optional[float] = None,
    ) -> Flow:
        """Begin moving *nbytes* along *route* (or the ``src → dst``
        tree path); returns the completion event."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if route is None:
            if src is None or dst is None:
                raise ValueError("transfer needs a route or src and dst nodes")
            route = self.route(src, dst)
        links: Tuple[Link, ...] = tuple(dict.fromkeys(route))
        flow = Flow(self, links, nbytes, max_rate, cls, src, dst)
        if nbytes == 0 or not links:
            flow.succeed(flow)
            return flow
        self._advance()
        self._flows[flow] = None
        if max_rate is not None:
            self._capped += 1
        if flow.remaining <= flow._done_at:  # at most _EPS bytes: done at once
            self._done[flow] = None
        down_after = None
        for link in links:
            link._flows[flow] = None
            counts = link._cls_count
            counts[cls] = counts.get(cls, 0) + 1
            if link._outage:
                fa = link._fail_after
                down_after = fa if down_after is None else min(down_after, fa)
        self.flows_started += 1
        if down_after is not None and down_after < float("inf"):
            t = Timeout(self.env, down_after)
            t.callbacks.append(lambda ev, f=flow: self._kill_if_down(f))
        self._touch(links)
        return flow

    def _kill_if_down(self, flow: Flow) -> None:
        if flow._value is PENDING and any(l._outage for l in flow.route):
            self._cancel(flow, LinkDown, "joined a link that stayed down")

    def _cancel(self, flow: Flow, exc_type, reason: str) -> None:
        if flow._value is not PENDING:
            return
        self._advance()
        self._detach(flow)
        self._touch(flow.route)
        flow._defused = True
        moved = flow.nbytes - flow.remaining
        flow.fail(
            exc_type(f"{reason}: {moved:.0f}/{flow.nbytes:.0f} bytes moved")
        )
        if exc_type is LinkDown:
            self.flows_failed += 1
            port = self._fail_port
            if port.on:
                extra = {}
                if flow.span is not None:
                    extra["trace_id"] = flow.span.trace_id
                    extra["parent_span"] = flow.span.span_id
                port.emit(
                    cls=flow.cls,
                    nbytes=flow.nbytes,
                    moved=moved,
                    started=flow.started,
                    src=flow.src,
                    dst=flow.dst,
                    reason=reason,
                    **extra,
                )

    # -- incremental allocation -------------------------------------------
    def _touch(self, links: Iterable[Link]) -> None:
        """Mark links dirty; coalesce all changes at this timestamp into
        one recompute via a zero-delay flush event."""
        for link in links:
            self._dirty[link] = None
        if not self._pending:
            self._pending = True
            ev = Event(self.env)
            ev._ok = True
            ev._value = None
            ev.callbacks.append(self._flush_cb)
            self.env.schedule(ev)

    def _flush_cb(self, _event) -> None:
        self._flush()

    def _flush(self) -> None:
        self._pending = False
        self._advance()
        done = sorted(self._done, key=_by_start)
        for f in done:
            self._detach(f)
        if self._dirty:
            links, flows = self._component()
            self._dirty.clear()
            share = self._one_round_share(links, flows) if flows else None
            if share is None:
                self._settle_by_waterfill(links, flows)
            else:
                self._settle_one_round(links, flows, share)
            active = self._active_links
            for link in links:
                if link._agg_rate > 0:
                    active[link] = None
                else:
                    active.pop(link, None)
        now = self.env.now
        # Flush narration is batched: one net.flow event per coalesced
        # timestamp carrying every flow completed in this flush (a
        # ``flows`` list of per-flow records), instead of one event per
        # flow.  Consumers (collector, tracer, records) expand the list.
        narrate = self._flow_port.on
        records: List[Dict] = []
        for f in done:
            self.flows_completed += 1
            f.rate = 0.0
            if f._value is PENDING:
                f.succeed(f)
            if narrate:
                rec: Dict = {
                    "cls": f.cls,
                    "nbytes": f.nbytes,
                    "started": f.started,
                    "elapsed": now - f.started,
                    "src": f.src,
                    "dst": f.dst,
                    "hops": len(f.route),
                }
                if f.span is not None:
                    rec["trace_id"] = f.span.trace_id
                    rec["parent_span"] = f.span.span_id
                records.append(rec)
        if records:
            self._flow_port.emit(count=len(records), flows=records)
        self._arm_timer()

    def _component(self) -> Tuple[List[Link], List[Flow]]:
        """The closure of dirty links under "shares a flow with"."""
        links: Dict[Link, None] = dict(self._dirty)
        flows: Dict[Flow, None] = {}
        frontier: List[Link] = list(links)
        while frontier:
            nxt: List[Link] = []
            for link in frontier:
                for f in link._flows:
                    if f not in flows:
                        flows[f] = None
                        for other in f.route:
                            if other not in links:
                                links[other] = None
                                nxt.append(other)
            frontier = nxt
        return list(links), list(flows)

    def _one_round_share(self, links: List[Link], flows: List[Flow]) -> Optional[float]:
        """The rate of every flow when :func:`waterfill`'s first round
        freezes the whole component at one share, else None.

        That happens exactly when every link within ``_REL_EPS`` of the
        lowest fair share carries every flow of the component and no
        flow's own cap is at or below that tolerance.
        """
        n = len(flows)
        low = float("inf")
        for link in links:
            c = len(link._flows)
            if c and link._capacity / c < low:
                low = link._capacity / c
        tol = low + _REL_EPS * max(1.0, abs(low))
        for link in links:
            c = len(link._flows)
            if c and c < n and link._capacity / c <= tol:
                return None
        if self._capped:
            for f in flows:
                if f.max_rate is not None and f.max_rate <= tol:
                    return None
        # Every tight link is on every route, so the first flow's route
        # meets the minimum first, as waterfill's link order does.
        return min(link._capacity / len(link._flows) for link in flows[0].route)

    def _settle_by_waterfill(self, links: List[Link], flows: List[Flow]) -> None:
        """Allocate a component by water-filling; sum each link's rates
        flow by flow."""
        if flows:
            rates = waterfill(
                {l: l._capacity for l in links},
                [f.route for f in flows],
                [f.max_rate for f in flows],
            )
            for f, r in zip(flows, rates):
                f.rate = r
        for link in links:
            agg = 0.0
            cls_rate: Dict[str, float] = {}
            for f in link._flows:
                r = f.rate
                agg += r
                if r:
                    cls_rate[f.cls] = cls_rate.get(f.cls, 0.0) + r
            link._agg_rate = agg
            link._cls_rate = cls_rate

    def _settle_one_round(self, links: List[Link], flows: List[Flow], share: float) -> None:
        """Give every flow *share*; build link aggregates from counts."""
        for f in flows:
            f.rate = share
        # sums[k] is share added k times in order: the same float as
        # summing k flows' rates one by one.
        sums = list(accumulate(repeat(share, len(flows)), initial=0.0))
        for link in links:
            link._agg_rate = sums[len(link._flows)]
            cls_rate: Dict[str, float] = {}
            if share:
                counts = link._cls_count
                for f in link._flows:  # classes in order of their oldest flow
                    if f.cls not in cls_rate:
                        cls_rate[f.cls] = sums[counts[f.cls]]
                        if len(cls_rate) == len(counts):
                            break
            link._cls_rate = cls_rate

    def _detach(self, flow: Flow) -> None:
        for link in flow.route:
            if flow not in link._flows:
                continue
            del link._flows[flow]
            counts = link._cls_count
            left = counts[flow.cls] - 1
            if left:
                counts[flow.cls] = left
            else:
                del counts[flow.cls]
            self._dirty[link] = None
        if flow in self._flows:
            del self._flows[flow]
            if flow.max_rate is not None:
                self._capped -= 1
            self._done.pop(flow, None)

    def _advance(self) -> None:
        """Progress all flows and link statistics to the current time."""
        now = self.env.now
        dt = now - self._last
        if dt <= 0:
            return
        done = self._done
        for f in self._flows:
            r = f.rate
            if r:
                left = f.remaining - r * dt
                left = left if left > 0.0 else 0.0  # max(0.0, left), without the call
                f.remaining = left
                if left <= f._done_at:
                    done[f] = None
        for link in self._active_links:
            moved = link._agg_rate * dt
            link.bytes_moved += moved
            link._busy_integral += moved
            by_cls = link.bytes_by_class
            for cls, r in link._cls_rate.items():
                by_cls[cls] = by_cls.get(cls, 0.0) + r * dt
        self._last = now

    def _arm_timer(self) -> None:
        """(Re)arm the single fabric-wide completion timer."""
        self._timer_gen += 1
        gen = self._timer_gen
        horizon = float("inf")
        for f in self._flows:
            if f.rate > 0:
                h = f.remaining / f.rate
                if h < horizon:
                    horizon = h
        if horizon == float("inf"):
            return
        now = self.env.now
        # Land at a strictly later representable time, or the fabric
        # would spin at a frozen clock.
        while now + horizon == now:
            horizon = horizon * 2 if horizon > 0 else max(now * 1e-15, 1e-12)
        t = Timeout(self.env, horizon)
        t.callbacks.append(lambda ev, gen=gen: self._on_tick(gen))

    def _on_tick(self, gen: int) -> None:
        if gen != self._timer_gen:
            return  # superseded by a later change
        self._flush()

    # -- introspection ----------------------------------------------------
    def describe(self) -> str:
        """Human-readable dump of the topology tree and link statistics."""
        children: Dict[str, List[str]] = {}
        for node, (parent, _link) in self._nodes.items():
            if parent is not None:
                children.setdefault(parent, []).append(node)
        lines: List[str] = []

        def render(node: str, depth: int) -> None:
            _parent, link = self._nodes[node]
            if link is None:
                lines.append(node)
            else:
                lines.append(
                    f"{'  ' * depth}└─ {node}  [{link.name}: "
                    f"{link.capacity / 125_000_000.0:.2f} Gbit/s, "
                    f"{link.active_flows} flows, "
                    f"{link.bytes_moved / 1e9:.2f} GB moved]"
                )
            for child in children.get(node, []):
                render(child, depth + 1)

        render(self.root, 0)
        standalone = [l for l in self.links.values() if l.node is None]
        if standalone:
            lines.append("standalone links:")
            for link in standalone:
                lines.append(
                    f"  - {link.name}: {link.capacity:.3g} /s, "
                    f"{link.active_flows} flows, {link.bytes_moved:.3g} moved"
                )
        return "\n".join(lines)

    def utilization_table(self) -> List[Tuple[str, float, float]]:
        """(link name, utilization, GB moved) for every link, tree order."""
        out = []
        for link in self.links.values():
            out.append((link.name, link.utilization(), link.bytes_moved / 1e9))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Fabric root={self.root!r} links={len(self.links)} "
            f"flows={len(self._flows)}>"
        )
