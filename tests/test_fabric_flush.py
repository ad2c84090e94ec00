"""Equivalence of the fabric's flush with the one it replaced.

``ReferenceFabric`` carries the flush the fabric used before the
one-round path: every recompute called :func:`waterfill`, link
aggregates were re-summed flow by flow, and completions were found by
scanning every live flow.  Its ``_flush``, ``_advance``, ``_detach`` and
``_arm_timer`` are copied here unchanged.  Random operation streams,
pinned edge cases and a whole outage recording must come out identical
under both, compared with ``==``.
"""

import io
from math import copysign
from types import SimpleNamespace
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.fabric
from repro.cli import main
from repro.desim import Environment, Timeout
from repro.desim.events import PENDING
from repro.net import Fabric, waterfill
from repro.net.fabric import _EPS, Flow
from repro.testing import reset_id_counters


# -- the reference ---------------------------------------------------------
class ReferenceFabric(Fabric):
    def _flush(self) -> None:
        self._pending = False
        self._advance()
        eps = _EPS
        done = [
            f for f in self._flows if f.remaining <= eps * max(1.0, f.nbytes)
        ]
        for f in done:
            self._detach(f)
        if self._dirty:
            links, flows = self._component()
            self._dirty.clear()
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
                if agg > 0:
                    self._active_links[link] = None
                else:
                    self._active_links.pop(link, None)
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

    def _detach(self, flow: Flow) -> None:
        for link in flow.route:
            if flow not in link._flows:
                continue
            del link._flows[flow]
            link._agg_rate = max(0.0, link._agg_rate - flow.rate)
            if flow.rate and flow.cls in link._cls_rate:
                link._cls_rate[flow.cls] = max(
                    0.0, link._cls_rate[flow.cls] - flow.rate
                )
            self._dirty[link] = None
        self._flows.pop(flow, None)

    def _advance(self) -> None:
        """Progress all flows and link statistics to the current time."""
        now = self.env.now
        dt = now - self._last
        if dt <= 0:
            return
        for f in self._flows:
            if f.rate:
                f.remaining = max(0.0, f.remaining - f.rate * dt)
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


REFERENCE_METHODS = ("_flush", "_advance", "_detach", "_arm_timer")


# -- a driver for both -----------------------------------------------------
def _drive(fabric_cls, tree, standalone, ops, outages=()):
    """Run *ops* on a fresh fabric of *fabric_cls*; return everything a
    flush decides, in the order it happened.

    *tree* lists ``(parent, capacity)`` per node: node ``i + 1`` hangs
    off node ``parent`` (node 0 is the root).  *standalone* lists the
    capacities of links outside the tree.  Link ``k`` of an op is
    ``links[k % len(links)]``, tree uplinks first.  Ops:

    * ``("start", route, nbytes, max_rate, cls, copies)`` with route
      ``("path", a, b)`` (tree nodes) or ``("links", (k, ...))``;
    * ``("cancel", i)``: cancel the i-th started flow;
    * ``("capacity", k, capacity)``;
    * ``("probe", k)``: ``utilization()``, which advances the fabric
      without a flush;
    * ``("wait", dt)``, followed by a snapshot.

    *outages* lists ``(k, start, end, fail_after)`` link windows.
    """
    env = Environment()
    fabric = fabric_cls(env)
    names = ["campus-core"]
    for i, (parent, capacity) in enumerate(tree):
        above = names[parent % len(names)]
        names.append(f"n{i + 1}")
        fabric.attach(f"up{i + 1}", capacity, node=names[-1], parent=above)
    for i, capacity in enumerate(standalone):
        fabric.attach(f"s{i}", capacity)
    links = list(fabric.links.values())
    for k, start, end, fail_after in outages:
        links[k % len(links)].schedule_outages(
            [SimpleNamespace(start=start, end=end)], fail_after=fail_after
        )
    log: List = []
    flows: List[Flow] = []

    def on_end(i, flow):
        def record(ev):
            err = None if ev._ok else type(ev._value).__name__
            log.append(("end", env.now, i, err, flow.remaining, flow.rate))

        flow.callbacks.append(record)

    def snapshot():
        log.append(("flows", env.now, [
            (i, f.rate, copysign(1.0, f.rate), f.remaining)
            for i, f in enumerate(flows)
            if f in fabric._flows
        ]))
        log.append(("links", [
            (link.bytes_moved, link._busy_integral, list(link.bytes_by_class.items()))
            for link in links
        ]))
        # Between a detach and its flush the aggregates are stale by
        # design; compare them once the flush has run.
        if not fabric._pending:
            log.append(("rates", [
                (link._agg_rate, list(link._cls_rate.items()), link in fabric._active_links)
                for link in links
            ]))

    def script():
        for op in ops:
            kind = op[0]
            if kind == "start":
                _, route, nbytes, max_rate, cls, copies = op
                if route[0] == "path":
                    ends = {"src": names[route[1] % len(names)], "dst": names[route[2] % len(names)]}
                else:
                    ends = {"route": [links[k % len(links)] for k in route[1]]}
                for _ in range(copies):
                    flow = fabric.transfer(nbytes, cls=cls, max_rate=max_rate, **ends)
                    on_end(len(flows), flow)
                    flows.append(flow)
            elif kind == "cancel" and flows:
                flows[op[1] % len(flows)].cancel()
            elif kind == "capacity":
                links[op[1] % len(links)].set_capacity(op[2])
            elif kind == "probe":
                links[op[1] % len(links)].utilization()
            elif kind == "wait":
                yield env.timeout(op[1])
                snapshot()

    env.process(script())
    env.run()
    snapshot()
    log.append(("counts", fabric.flows_started, fabric.flows_completed, fabric.flows_failed))
    return log


def _same(tree, standalone, ops, outages=()):
    new = _drive(Fabric, tree, standalone, ops, outages)
    assert new == _drive(ReferenceFabric, tree, standalone, ops, outages)
    return new


@pytest.fixture
def waterfill_calls(monkeypatch):
    """Count the fabric's general-path allocations."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return waterfill(*args)

    monkeypatch.setattr(repro.net.fabric, "waterfill", counting)
    return calls


# -- random streams --------------------------------------------------------
#: Exact ties (2/2 == 1/1), down links (either sign of zero), and
#: near-ties inside waterfill's 1e-12 tolerance.
CAPACITIES = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 0.7, 10.0, 1.0 + 4e-13, 2.0 * (1 - 3e-13), 3.0 * (1 + 6e-13)]
)
ROUTES = st.one_of(
    st.tuples(st.just("path"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("links"), st.lists(st.integers(0, 9), min_size=1, max_size=4).map(tuple)),
)
OPS = st.one_of(
    st.tuples(
        st.just("start"),
        ROUTES,
        st.sampled_from([0.0, 5e-10, 0.3, 1.0, 2.5, 7.0, 40.0]),
        st.one_of(st.none(), st.none(), st.sampled_from([0.0, 0.2, 0.5, 1.0, 1.5])),
        st.sampled_from(["xrootd", "output", "cvmfs"]),
        # Six or more flows at one share tell repeated sums from k * share.
        st.sampled_from([1, 1, 3, 7]),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 60)),
    st.tuples(st.just("capacity"), st.integers(0, 9), CAPACITIES),
    st.tuples(st.just("probe"), st.integers(0, 9)),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.0])),
)
OUTAGES = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.sampled_from([0.0, 0.5, 1.5]),
        st.sampled_from([1.0, 2.0, 5.0]),
        st.sampled_from([None, 0.25, 30.0]),
    ),
    max_size=2,
)


@settings(max_examples=300, deadline=None)
@given(
    tree=st.lists(st.tuples(st.integers(0, 7), CAPACITIES), min_size=1, max_size=6),
    standalone=st.lists(CAPACITIES, max_size=2),
    ops=st.lists(OPS, max_size=50),
    outages=OUTAGES,
)
def test_flush_matches_the_reference(tree, standalone, ops, outages):
    outages = [(k, start, start + length, fa) for k, start, length, fa in outages]
    _same(tree, standalone, ops, outages)


# -- pinned cases ----------------------------------------------------------
def _start(route, nbytes=10.0, max_rate=None, cls="xrootd"):
    return ("start", ("links", route), nbytes, max_rate, cls, 1)


def _rates(log):
    """The flow rates of the first snapshot."""
    return [rate for _, rate, _, _ in next(e for e in log if e[0] == "flows")[2]]


def test_two_tied_links_carrying_every_flow_settle_in_one_round(waterfill_calls):
    # Links 0 and 1 carry all four flows at share 1.0; 2 and 3 are NICs.
    ops = [_start((2, 0, 1)), _start((2, 0, 1)), _start((3, 0, 1), cls="output"),
           _start((3, 0, 1)), ("wait", 1.0)]
    log = _same([], [4.0, 4.0, 10.0, 10.0], ops)
    assert _rates(log) == [1.0] * 4
    assert waterfill_calls[0] == 0


def test_a_tight_link_missing_one_flow_takes_the_general_path(waterfill_calls):
    # Link 0 (share 1.0) is tight but carries only flows 0 and 1, so flow
    # 2 gets what link 1 has left.
    ops = [_start((0, 1)), _start((0, 1)), _start((1,)), ("wait", 1.0)]
    log = _same([], [2.0, 4.0], ops)
    assert _rates(log) == [1.0, 1.0, 2.0]
    assert waterfill_calls[0] > 0


def test_a_down_link_carrying_every_flow_gives_share_zero(waterfill_calls):
    ops = [_start((0, 1)), _start((0, 2), cls="output"), ("wait", 1.0),
           ("capacity", 0, 0.0), ("wait", 2.0), ("capacity", 0, 2.0), ("wait", 1.0)]
    log = _same([], [2.0, 5.0, 5.0], ops)
    down = [e for e in log if e[0] == "flows"][1]
    assert [rate for _, rate, _, _ in down[2]] == [0.0, 0.0]
    assert [e for e in log if e[0] == "rates"][1][1][0] == (0.0, [], False)
    assert waterfill_calls[0] == 0


def test_a_zero_share_takes_the_sign_waterfill_would():
    # Links 0 (+0.0) and 1 (-0.0) carry both flows.  The second join
    # dirties link 0 first, but waterfill meets link 1 first, on the
    # oldest flow's route, so the share is -0.0.
    ops = [_start((1, 0)), ("wait", 1.0), _start((0, 1)), ("wait", 1.0)]
    log = _same([], [0.0, -0.0], ops)
    snapshot = [e for e in log if e[0] == "flows"][1]
    assert [sign for _, _, sign, _ in snapshot[2]] == [-1.0, -1.0]


@pytest.mark.parametrize(
    "cap, general",
    [
        (1.0 - 2.2e-16, True),  # below the share: the cap binds
        (1.0 + 5e-13, True),  # above the share, inside the tolerance
        (1.0 + 2e-12, False),  # above the tolerance: one round
    ],
)
def test_a_cap_next_to_the_share(waterfill_calls, cap, general):
    ops = [_start((0,)), _start((0,), max_rate=cap), _start((0,)), ("wait", 1.0)]
    log = _same([], [3.0], ops)
    assert (waterfill_calls[0] > 0) == general
    if not general:
        assert _rates(log) == [1.0] * 3


def _repeated(x, k):
    total = 0.0
    for _ in range(k):
        total += x
    return total


def test_link_aggregates_are_repeated_sums():
    # Ten flows at 0.1: adding 0.1 ten times is not 10 * 0.1.
    assert _repeated(0.1, 10) != 10 * 0.1
    ops = [_start((0,), cls=c) for c in ["xrootd", "output"] * 5] + [("wait", 1.0)]
    log = _same([], [1.0], ops)
    agg, cls_rate, _ = next(e for e in log if e[0] == "rates")[1][0]
    assert agg == _repeated(0.1, 10)
    assert cls_rate == [("xrootd", _repeated(0.1, 5)), ("output", _repeated(0.1, 5))]


def test_class_rates_follow_the_oldest_live_flow_of_each_class():
    # After flow 0 leaves, the link's oldest flow is flow 1 (output),
    # although xrootd was counted on the link first.
    ops = [_start((0,), nbytes=1.0), _start((0,), cls="output"), _start((0,)), ("wait", 2.0)]
    log = _same([], [3.0], ops)
    _, cls_rate, _ = [e for e in log if e[0] == "rates"][-2][1][0]
    assert cls_rate == [("output", 1.5), ("xrootd", 1.5)]


def test_flows_crossing_between_flushes_complete_in_start_order():
    # Flow 1 ends first and arms the tick, but a probe finds it within
    # _EPS of the end before flow 0; a later probe finds flow 0.  One
    # flush at the tick completes both, flow 0 first.
    ops = [_start((0,), nbytes=1e6 + 5e-4), _start((1,), nbytes=1e6),
           ("wait", 1e6 - 9e-4), ("probe", 0), ("wait", 7e-4), ("probe", 0)]
    log = _same([], [1.0, 1.0], ops)
    ends = [e for e in log if e[0] == "end"]
    assert [(t, i) for _, t, i, *_ in ends] == [(1e6, 0), (1e6, 1)]


# -- a whole run -----------------------------------------------------------
def _record(path, monkeypatch, reference):
    if reference:
        for name in REFERENCE_METHODS:
            monkeypatch.setattr(Fabric, name, ReferenceFabric.__dict__[name])
    reset_id_counters()
    out = io.StringIO()
    argv = ["process", "--files", "10", "--outage-hours", "1", "--seed", "1",
            "--events-out", str(path)]
    assert main(argv, out=out) == 0
    monkeypatch.undo()
    return out.getvalue(), path.read_bytes()


def test_outage_recording_matches_the_reference(tmp_path, monkeypatch):
    path = tmp_path / "run.jsonl"
    reference = _record(path, monkeypatch, reference=True)
    new = _record(path, monkeypatch, reference=False)
    assert b'"topic":"kernel.step"' in new[1]
    assert b'"topic":"net.outage"' in new[1]
    assert new == reference
