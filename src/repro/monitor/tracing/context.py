"""Trace contexts and spans: the vocabulary of causal tracing.

A *trace* is one unit of work end to end — in Lobster terms, the set of
tasklets packed into a task, followed through every retry, eviction,
fallback, and quarantine-reopen until its output is committed.  A *span*
is one timed operation inside a trace (an attempt, a wrapper segment, a
network flow, a ledger commit), linked to its parent span so the whole
run reconstructs as a forest of span trees.

The identifiers are deliberately simple: the trace id is a stable string
derived from the work itself (``"<workflow>:u<first tasklet>"``), so a
re-packaged retry of the same tasklets re-enters the same trace; span
ids are small integers from a per-tracer counter, so two identically
seeded runs emit identical ids.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

__all__ = ["TraceContext", "Span"]


class TraceContext(NamedTuple):
    """What is carried across layer boundaries: (which work, which span)."""

    trace_id: str
    span_id: int


class Span:
    """One timed operation within a trace.

    ``end is None`` while the operation is in flight; :class:`SpanTracer`
    fills it in (and the final ``status``) when the span closes.
    """

    __slots__ = (
        "span_id",
        "trace_id",
        "parent_id",
        "name",
        "start",
        "end",
        "status",
        "attrs",
        "links",
    )

    def __init__(
        self,
        span_id: int,
        trace_id: str,
        parent_id: Optional[int],
        name: str,
        start: float,
        end: Optional[float] = None,
        status: str = "open",
        attrs: Optional[Dict[str, Any]] = None,
        links: Tuple[int, ...] = (),
    ):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.status = status
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        #: Span ids of causally linked siblings (a retry links to the
        #: attempt it replaces).
        self.links: Tuple[int, ...] = tuple(links)

    @property
    def ctx(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSONL-friendly view with stable key order."""
        out: Dict[str, Any] = {
            "span": self.span_id,
            "trace": self.trace_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.links:
            out["links"] = list(self.links)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        when = f"{self.start:.1f}"
        if self.end is not None:
            when += f"-{self.end:.1f}"
        return f"<Span {self.span_id} {self.name!r} [{self.trace_id}] {when} {self.status}>"
