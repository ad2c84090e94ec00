"""The monitor's one ingest path: live (:class:`BusCollector`) or
recorded (:func:`replay`).

The substrate layers *publish* typed events and the monitor
*subscribes*.  Every monitor view is a *fold*: an object that reduces
the event stream into one view —
:class:`~repro.monitor.records.RunMetrics`,
:class:`~repro.monitor.rollup.Rollup`,
:class:`~repro.monitor.watch.WatchEngine`,
:class:`~repro.monitor.tracing.SpanStreamBuilder`.  A fold names the
subscription patterns it reduces in a ``TOPICS`` tuple and takes one
event at a time through ``ingest(topic, t, fields)``.  Two drivers feed
folds, and nothing else does:

* :class:`BusCollector` attaches one fold to a live bus.  It owns the
  multi-run workflow filter and the expansion of batched ``net.flow``
  records, so every fold sees the same events.
* :func:`replay` routes each event of a recorded stream (JSONL-shaped
  dicts) to every fold that subscribes to its topic, in a single pass,
  with the same batch expansion.

Nothing in this module (or anywhere under ``repro.monitor``) imports
from the scheduler, batch, CVMFS, or storage layers; the bus event
vocabulary in :class:`repro.desim.bus.Topics` is the entire contract.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..desim.bus import BusEvent, EventBus, Topics, _matches

__all__ = ["BusCollector", "replay"]


def _accepts(workflows: FrozenSet[str], fields: dict) -> bool:
    """The multi-run filter, applied uniformly to every event.

    Producers stamp either ``workflow`` (a single label) or
    ``workflows`` (a pool-level label list, e.g. evictions).  Events
    carrying neither are unattributed and accepted — a filtered
    collector must not silently drop legacy streams.
    """
    workflow = fields.get("workflow")
    if workflow is not None:
        return workflow in workflows
    labels = fields.get("workflows")
    if labels is not None:
        return any(w in workflows for w in labels)
    return True


class BusCollector:
    """Subscribes one fold to a live bus.

    Each pattern in ``fold.TOPICS`` becomes one subscription, in order.
    Exact topics subscribe raw (the flat record dict, no event object);
    prefix patterns (``fault.*``, ``integrity.*``, ``alert.*``) stay
    classic, because a raw subscription needs an exact topic.
    """

    def __init__(
        self,
        bus: EventBus,
        fold,
        workflows: Optional[Sequence[str]] = None,
    ):
        """*workflows*, when given, restricts ingestion to events
        attributed to those labels (several runs may share one bus).
        Unattributed events (no ``workflow``/``workflows`` field) are
        always accepted."""
        self.bus = bus
        self.fold = fold
        self._workflows = frozenset(workflows) if workflows else None
        self._subs = [
            bus.subscribe(pattern, self._classic())
            if pattern.endswith(".*")
            else bus.subscribe(pattern, self._raw(pattern), raw=True)
            for pattern in fold.TOPICS
        ]

    def _raw(self, topic: str) -> Callable[[dict], None]:
        ingest, workflows = self.fold.ingest, self._workflows
        if topic != Topics.NET_FLOW:

            def deliver(record: dict) -> None:
                if workflows is None or _accepts(workflows, record):
                    ingest(topic, record["t"], record)

            return deliver

        # The fabric batches flush narration: one net.flow record may
        # carry a ``flows`` list of per-flow records.
        def deliver_flows(record: dict) -> None:
            if workflows is None or _accepts(workflows, record):
                t = record["t"]
                flows = record.get("flows")
                if flows is None:
                    ingest(topic, t, record)
                else:
                    for rec in flows:
                        ingest(topic, t, rec)

        return deliver_flows

    def _classic(self) -> Callable[[BusEvent], None]:
        ingest, workflows = self.fold.ingest, self._workflows

        def deliver(event: BusEvent) -> None:
            if workflows is None or _accepts(workflows, event.fields):
                ingest(event.topic, event.time, event.fields)

        return deliver

    def close(self) -> None:
        """Detach from the bus (the fold remains usable)."""
        for sub in self._subs:
            sub.cancel()
        self._subs = []


def replay(events: Iterable[dict], *folds) -> None:
    """Feed a recorded event stream to every fold, in one pass.

    *events* are ``BusEvent.as_dict()``-shaped mappings (e.g. loaded
    from a JSONL sink); each goes to every fold whose ``TOPICS`` match
    its topic, in the order the folds are given — the offline twin of
    attaching each fold through a :class:`BusCollector`.  A batched
    ``net.flow`` record is expanded into its flows.  An event missing a
    field a fold needs raises :class:`ValueError` naming the event's
    index, topic and key.
    """
    routes: Dict[Optional[str], List[Callable]] = {}
    for index, ev in enumerate(events):
        topic = ev.get("topic")
        targets = routes.get(topic)
        if targets is None:
            targets = routes[topic] = [
                fold.ingest
                for fold in folds
                if topic is not None
                and any(_matches(pattern, topic) for pattern in fold.TOPICS)
            ]
        if not targets:
            continue
        t = float(ev.get("t", 0.0))
        flows = ev.get("flows") if topic == Topics.NET_FLOW else None
        records = (ev,) if flows is None else flows
        for ingest in targets:
            for rec in records:
                try:
                    ingest(topic, t, rec)
                except KeyError as exc:
                    key = exc.args[0] if exc.args else None
                    if key in rec:
                        raise
                    raise ValueError(
                        f"event {index} ({topic}): missing field {key!r}"
                    ) from None
