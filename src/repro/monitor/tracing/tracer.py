"""The span tracer: builds causal span trees from a live run.

:class:`SpanTracer` attaches to an :class:`~repro.desim.Environment` as
``env.spans``.  The substrate layers never import this module — they
reach the tracer duck-typed through that attribute (``tr = env.spans;
if tr is not None: ...``), mirroring how they publish to the bus, so the
monitor-independence invariant holds in both directions.

Context propagation rides the DES itself: every
:class:`~repro.desim.Process` carries a ``span_ctx`` inherited from the
process that created it, and :meth:`SpanTracer.start` with
``activate=True`` re-points the running process's context at the new
span.  Anything that happens inside a process frame — a fabric flow, a
Chirp request, a CVMFS fill — can therefore discover its causal parent
without a single signature changing.

Two event streams complete the picture:

* the tracer *publishes* ``span.start`` / ``span.end`` bus events for
  every span it creates, so a JSONL recording of a traced run contains
  the full span stream (:class:`SpanStreamBuilder` rebuilds it
  offline);
* the tracer *subscribes* to substrate topics that carry trace fields
  (``net.flow``, ``chirp.queue``, ``cache.miss``, ``integrity.*``,
  ``fault.*``, ...) and materialises child spans or annotations from
  them, so layers that only publish still show up in the tree.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, Optional, Tuple

from ...desim.bus import BusEvent, Topics
from .context import Span, TraceContext

__all__ = ["SpanTracer", "SpanStreamBuilder", "ROOT_NAMES"]

#: Span names allowed to have no parent (the roots of span trees).
ROOT_NAMES = ("unit", "run")

#: Keys of a ``span.start`` event dict that are not span attributes.
_CORE_KEYS = frozenset(
    ("t", "topic", "span", "trace", "parent", "name", "start", "links", "status", "end")
)


class SpanTracer:
    """Collects a run's spans; attach one per environment before running."""

    def __init__(self, env, subscribe: bool = True):
        if getattr(env, "spans", None) is not None:
            raise RuntimeError("environment already has a span tracer attached")
        self.env = env
        env.spans = self
        #: Finished spans, in close order (deterministic under a seed).
        self.spans: List[Span] = []
        self._open: Dict[int, Span] = {}
        self._roots: Dict[str, Span] = {}
        #: span_id -> parent_id for every span ever created (orphan check).
        self._parent: Dict[int, Optional[int]] = {}
        #: trace_id -> latest closed attempt span id (retry linking).
        self._last_attempt: Dict[str, int] = {}
        #: task_id -> most recent attempt span (bus-event parenting).
        self._task_attempt: Dict[int, Span] = {}
        #: trace_id -> latest span end time (root extents at finalize).
        self._extent: Dict[str, float] = {}
        self._ids = count(1)
        self.finalized = False
        self._span_start = env.bus.port(Topics.SPAN_START)
        self._span_end = env.bus.port(Topics.SPAN_END)
        self._subs = []
        if subscribe:
            bus = env.bus
            # The per-transfer topics (flows, chirp queue, cache misses)
            # are the hot ones: subscribe raw so delivery hands us the
            # record dict without materialising a BusEvent.  The rare
            # control-flow topics stay classic.
            self._subs = [
                bus.subscribe(Topics.NET_FLOW, self._on_flow, raw=True),
                bus.subscribe(Topics.NET_FLOW_FAIL, self._on_flow_fail, raw=True),
                bus.subscribe(Topics.CHIRP_QUEUE, self._on_chirp, raw=True),
                bus.subscribe(Topics.CACHE_MISS, self._on_cache_miss, raw=True),
                bus.subscribe("fault.*", self._on_fault),
                bus.subscribe("integrity.*", self._on_integrity),
                bus.subscribe(Topics.TASK_EXHAUSTED, self._on_exhausted),
                bus.subscribe(Topics.RECOVERY_FALLBACK, self._on_fallback),
                bus.subscribe(Topics.PUBLISH_DATASET, self._on_publish),
            ]

    # -- core span lifecycle ----------------------------------------------
    def current(self) -> Optional[TraceContext]:
        """The ambient trace context of the running process, if any."""
        proc = self.env._active_proc
        return proc.span_ctx if proc is not None else None

    def start(
        self,
        name: str,
        parent=None,
        links: Tuple[int, ...] = (),
        activate: bool = False,
        at: Optional[float] = None,
        **attrs,
    ) -> Span:
        """Open a span.  *parent* is a :class:`TraceContext`, a
        :class:`Span`, or None (ambient context, else a fresh trace)."""
        if isinstance(parent, Span):
            parent = parent.ctx
        if parent is None:
            parent = self.current()
        span_id = next(self._ids)
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = f"anon:{span_id}", None
        now = self.env.now if at is None else at
        span = Span(span_id, trace_id, parent_id, name, now, links=links, attrs=dict(attrs))
        self._open[span_id] = span
        self._parent[span_id] = parent_id
        if activate:
            proc = self.env._active_proc
            if proc is not None:
                proc.span_ctx = span.ctx
        port = self._span_start
        if port:
            fields = dict(
                span=span_id, trace=trace_id, parent=parent_id, name=name
            )
            if at is not None:
                fields["start"] = now
            if links:
                fields["links"] = list(links)
            fields.update(span.attrs)
            port.emit(**fields)
        return span

    def end(self, span: Span, status: str = "ok", at: Optional[float] = None, **attrs) -> None:
        """Close *span* (and any open descendants, deepest first)."""
        if span.end is not None:
            return
        for child in self._open_descendants(span.span_id):
            self._close(child, "aborted", at)
        self._close(span, status, at, attrs)
        proc = self.env._active_proc
        if proc is not None and proc.span_ctx == span.ctx:
            proc.span_ctx = (
                TraceContext(span.trace_id, span.parent_id)
                if span.parent_id is not None
                else None
            )
        if span.name == "attempt":
            self._last_attempt[span.trace_id] = span.span_id

    def _close(self, span: Span, status: str, at: Optional[float], attrs=None) -> None:
        span.end = self.env.now if at is None else at
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._open.pop(span.span_id, None)
        self.spans.append(span)
        prev = self._extent.get(span.trace_id)
        if prev is None or span.end > prev:
            self._extent[span.trace_id] = span.end
        port = self._span_end
        if port:
            fields = dict(span=span.span_id, status=status)
            if at is not None:
                fields["end"] = span.end
            # Publish the full final attrs, not just the close-time ones:
            # annotations added while the span was open (worker/host,
            # fault markers, backoff) must survive an offline replay.
            if span.attrs:
                fields.update(span.attrs)
            port.emit(**fields)

    def _open_descendants(self, root_id: int) -> List[Span]:
        """Open spans below *root_id*, deepest first."""
        found = []
        for span in self._open.values():
            depth, pid = 0, span.parent_id
            while pid is not None:
                depth += 1
                if pid == root_id:
                    found.append((depth, span))
                    break
                pid = self._parent.get(pid)
        found.sort(key=lambda d_s: (-d_s[0], -d_s[1].span_id))
        return [s for _, s in found]

    def annotate(self, span: Span, **attrs) -> None:
        span.attrs.update(attrs)

    def instant(self, name: str, parent=None, **attrs) -> Span:
        """A zero-duration span (ledger commits, quarantines, ...)."""
        span = self.start(name, parent=parent, **attrs)
        self.end(span)
        return span

    # -- work-unit plumbing (called duck-typed by the substrate) -----------
    def unit_root(self, trace_id: str, name: str = "unit", **attrs) -> Span:
        """Get or create the root span of a trace.

        Roots stay open across retries and quarantine reopens; they are
        closed by :meth:`finalize` at their last descendant's end."""
        root = self._roots.get(trace_id)
        if root is None:
            span_id = next(self._ids)
            root = Span(span_id, trace_id, None, name, self.env.now, attrs=dict(attrs))
            self._roots[trace_id] = root
            self._open[span_id] = root
            self._parent[span_id] = None
            port = self._span_start
            if port:
                fields = dict(span=span_id, trace=trace_id, parent=None, name=name)
                fields.update(attrs)
                port.emit(**fields)
        return root

    def attempt(self, trace: TraceContext, **attrs) -> Span:
        """Open an attempt span under *trace*, linked to the previous
        attempt of the same trace (retries become linked siblings)."""
        prev = self._last_attempt.get(trace.trace_id)
        links = (prev,) if prev is not None else ()
        span = self.start("attempt", parent=trace, links=links, **attrs)
        task_id = attrs.get("task_id")
        if task_id is not None:
            self._task_attempt[task_id] = span
        return span

    # -- bus-materialised spans -------------------------------------------
    def _ctx_from_fields(self, fields: dict) -> Optional[TraceContext]:
        trace_id = fields.get("trace_id")
        parent = fields.get("parent_span")
        if trace_id is None or parent is None:
            return None
        return TraceContext(trace_id, parent)

    def _task_parent(self, fields: dict) -> Optional[TraceContext]:
        span = self._task_attempt.get(fields.get("task_id"))
        return span.ctx if span is not None else None

    def _run_root(self, workflow: Optional[str]) -> Span:
        return self.unit_root(f"run:{workflow or 'cluster'}", name="run")

    def _on_flow(self, record: dict) -> None:
        # A net.flow record is either one flow or a fabric flush batch
        # carrying a ``flows`` list; both shapes materialise one span
        # per flow, in batch order.
        flows = record.get("flows")
        if flows is None:
            self._flow_span(Topics.NET_FLOW, record["t"], record)
        else:
            t = record["t"]
            for rec in flows:
                self._flow_span(Topics.NET_FLOW, t, rec)

    def _on_flow_fail(self, record: dict) -> None:
        # Flow failures are emitted per flow, never batched.
        self._flow_span(Topics.NET_FLOW_FAIL, record["t"], record)

    def _flow_span(self, topic: str, time: float, f: dict) -> None:
        ctx = self._ctx_from_fields(f)
        if ctx is None:
            return
        failed = topic == Topics.NET_FLOW_FAIL
        span = self.start(
            "net.flow",
            parent=ctx,
            at=f.get("started", time),
            cls=f.get("cls"),
            nbytes=f.get("nbytes"),
            src=f.get("src"),
            dst=f.get("dst"),
        )
        self.end(span, status="failed" if failed else "ok", at=time)

    def _on_chirp(self, record: dict) -> None:
        ctx = self._ctx_from_fields(record)
        if ctx is None:
            return
        self.instant(
            "chirp.queue",
            parent=ctx,
            server=record.get("server"),
            depth=record.get("depth"),
        )

    def _on_cache_miss(self, record: dict) -> None:
        ctx = self._ctx_from_fields(record)
        if ctx is None:
            return
        t = record["t"]
        elapsed = float(record.get("elapsed", 0.0))
        span = self.start(
            "cvmfs.fill",
            parent=ctx,
            at=t - elapsed,
            cache=record.get("cache"),
            waited=record.get("waited"),
        )
        self.end(span, at=t)

    def _on_fault(self, event: BusEvent) -> None:
        if event.topic != Topics.FAULT_INJECT:
            return
        kind = event.fields.get("kind")
        for span in self._open.values():
            if span.name == "attempt":
                span.attrs.setdefault("faults", []).append(kind)

    def _on_integrity(self, event: BusEvent) -> None:
        parent = self._task_parent(event.fields) or self._run_root(
            event.fields.get("workflow")
        ).ctx
        self.instant(
            event.topic,
            parent=parent,
            name_=event.fields.get("name"),
            kind=event.fields.get("kind"),
        )

    def _on_exhausted(self, event: BusEvent) -> None:
        parent = self._task_parent(event.fields)
        if parent is None:
            return
        self.instant(
            "task.exhausted",
            parent=parent,
            attempts=event.fields.get("attempts"),
            reason=event.fields.get("reason"),
        )

    def _on_fallback(self, event: BusEvent) -> None:
        self.instant(
            "recovery.fallback",
            parent=self._run_root(event.fields.get("workflow")).ctx,
            frm=event.fields.get("frm"),
            to=event.fields.get("to"),
        )

    def _on_publish(self, event: BusEvent) -> None:
        self.instant(
            "publish.dataset",
            parent=self._run_root(event.fields.get("workflow")).ctx,
            files=event.fields.get("files"),
            events=event.fields.get("events"),
        )

    # -- wind-down ---------------------------------------------------------
    def finalize(self) -> List[Span]:
        """Close everything still open and return the orphan spans.

        Non-root spans still open (a run stopped mid-flight) close with
        status ``unfinished``; roots close at their last descendant's
        end.  Safe to call more than once."""
        if not self.finalized:
            stragglers = [
                s for s in self._open.values() if s.name not in ROOT_NAMES
            ]
            # Deepest first so parents close after their children.
            for span in sorted(
                stragglers, key=lambda s: (-self._depth(s), -s.span_id)
            ):
                if span.end is None:
                    self._close(span, "unfinished", None)
            for root in self._roots.values():
                if root.end is None:
                    at = max(self._extent.get(root.trace_id, root.start), root.start)
                    self._close(root, "ok", at)
            self.finalized = True
        return self.orphans()

    def _depth(self, span: Span) -> int:
        depth, pid = 0, span.parent_id
        while pid is not None:
            depth += 1
            pid = self._parent.get(pid)
        return depth

    def orphans(self) -> List[Span]:
        """Spans with no parent that are not roots, or a dangling parent."""
        known = self._parent.keys()
        out = []
        for span in self.spans + list(self._open.values()):
            if span.parent_id is None:
                if span.name not in ROOT_NAMES:
                    out.append(span)
            elif span.parent_id not in known:
                out.append(span)
        return out

    def finished(self, name: Optional[str] = None) -> List[Span]:
        """Closed spans, optionally filtered by name."""
        if name is None:
            return list(self.spans)
        return [s for s in self.spans if s.name == name]

    def close(self) -> None:
        """Detach from the bus and the environment."""
        for sub in self._subs:
            sub.cancel()
        self._subs = []
        if getattr(self.env, "spans", None) is self:
            self.env.spans = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SpanTracer spans={len(self.spans)} open={len(self._open)} "
            f"traces={len(self._roots)}>"
        )


class SpanStreamBuilder:
    """Incremental span materialisation from the ``span.*`` event stream.

    A monitor fold: attach it live through a ``BusCollector`` or feed a
    JSONL recording with ``replay``.  Only ``span.start`` /
    ``span.end`` events are needed — the tracer publishes those for
    every span it creates, so the rebuilt list matches the live
    ``tracer.spans`` exactly: same spans, same ids, same order.  It
    keeps only the spans still open plus the finished list — never a
    raw-event buffer — so memory is proportional to spans, not kernel
    events.
    """

    __slots__ = ("_open", "done")

    TOPICS = (Topics.SPAN_START, Topics.SPAN_END)

    def __init__(self) -> None:
        self._open: Dict[int, Span] = {}
        #: Finished spans in close order (matches the live tracer).
        self.done: List[Span] = []

    def ingest(self, topic: str, t: float, fields: dict) -> None:
        """Consume one ``span.start`` / ``span.end`` event."""
        if topic == Topics.SPAN_START:
            attrs = {k: v for k, v in fields.items() if k not in _CORE_KEYS}
            span = Span(
                fields["span"],
                fields["trace"],
                fields.get("parent"),
                fields["name"],
                float(fields.get("start", t)),
                links=tuple(fields.get("links", ())),
                attrs=attrs,
            )
            self._open[span.span_id] = span
        elif topic == Topics.SPAN_END:
            span = self._open.pop(fields.get("span"), None)
            if span is None:
                return
            span.end = float(fields.get("end", t))
            span.status = fields.get("status", "ok")
            span.attrs.update(
                {k: v for k, v in fields.items() if k not in _CORE_KEYS}
            )
            self.done.append(span)

    @property
    def open_count(self) -> int:
        return len(self._open)

    def result(self) -> List[Span]:
        """The span list so far: finished spans, then any never closed
        (a recording cut mid-run), ordered by span id."""
        return self.done + sorted(self._open.values(), key=lambda s: s.span_id)
