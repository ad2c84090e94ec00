"""Bandwidth sharing on one link: a :class:`~repro.net.Link` alone on its
fabric, and single-link :func:`~repro.net.waterfill`.

A point resource (an HDFS disk or NIC, a component built without a
shared fabric) is such a link.  The link cases below pin its dynamics;
the stream test checks it against ``FairShareLink``, the single-link
model it replaced, kept in ``tests/fair_share_reference.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.desim import Environment
from repro.net import Fabric, TransferCancelled, waterfill

from .fair_share_reference import FairShareLink


def single_link(demands, capacity):
    """Max-min rates of flows with caps *demands* on one link."""
    return waterfill({0: capacity}, [(0,)] * len(demands), demands)


def make_link(env, capacity):
    return Fabric(env).attach("l", capacity)


# ------------------------------------------------------------ allocation
def test_allocate_equal_split_uncapped():
    assert single_link([None, None], 100.0) == [50.0, 50.0]


def test_allocate_empty():
    assert single_link([], 100.0) == []


def test_allocate_capped_flow_releases_spare():
    rates = single_link([10.0, None], 100.0)
    assert rates == [10.0, 90.0]


def test_allocate_all_capped_below_capacity():
    rates = single_link([10.0, 20.0], 100.0)
    assert rates == [10.0, 20.0]


def test_allocate_three_way_waterfill():
    # cap 30 flow limited; other two split remaining 90 equally.
    rates = single_link([30.0, None, None], 120.0)
    assert rates == [30.0, 45.0, 45.0]


def test_allocate_never_exceeds_capacity():
    rates = single_link([None] * 7, 100.0)
    assert sum(rates) == pytest.approx(100.0)


# ------------------------------------------------------------ link behaviour
def test_single_transfer_duration():
    env = Environment()
    link = make_link(env, 100.0)
    done = []

    def proc(env):
        yield link.transfer(1000.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [pytest.approx(10.0)]


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    link = make_link(env, 100.0)
    done = []

    def proc(env):
        yield link.transfer(0.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


def test_two_transfers_share_bandwidth():
    env = Environment()
    link = make_link(env, 100.0)
    done = {}

    def proc(env, tag, nbytes):
        yield link.transfer(nbytes)
        done[tag] = env.now

    env.process(proc(env, "a", 1000.0))
    env.process(proc(env, "b", 1000.0))
    env.run()
    # Both share 100 B/s: each gets 50 B/s → both finish at t=20.
    assert done["a"] == pytest.approx(20.0)
    assert done["b"] == pytest.approx(20.0)


def test_late_joiner_slows_existing_flow():
    env = Environment()
    link = make_link(env, 100.0)
    done = {}

    def early(env):
        yield link.transfer(1000.0)
        done["early"] = env.now

    def late(env):
        yield env.timeout(5)
        yield link.transfer(250.0)
        done["late"] = env.now

    env.process(early(env))
    env.process(late(env))
    env.run()
    # Early: 500 B in first 5 s at 100 B/s, then 50 B/s shared.
    # Late: 250 B at 50 B/s = 5s → finishes at t=10; early's remaining
    # 500-250=250 B... careful: from t=5..10 early moves 250 B (50 B/s),
    # leaving 250 B at full 100 B/s → 2.5 s → t=12.5.
    assert done["late"] == pytest.approx(10.0)
    assert done["early"] == pytest.approx(12.5)


def test_max_rate_caps_flow():
    env = Environment()
    link = make_link(env, 1000.0)
    done = []

    def proc(env):
        yield link.transfer(100.0, max_rate=10.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [pytest.approx(10.0)]


def test_cancel_mid_transfer():
    env = Environment()
    link = make_link(env, 100.0)
    outcome = []

    def proc(env):
        t = link.transfer(1000.0)

        def axe(env, t):
            yield env.timeout(3)
            t.cancel()

        env.process(axe(env, t))
        try:
            yield t
        except TransferCancelled:
            outcome.append(("cancelled", env.now))

    env.process(proc(env))
    env.run()
    assert outcome == [("cancelled", 3.0)]
    assert link.active_flows == 0


def test_cancel_frees_bandwidth_for_others():
    env = Environment()
    link = make_link(env, 100.0)
    done = {}

    def victim(env):
        t = link.transfer(10000.0)
        try:
            yield t
        except TransferCancelled:
            done["victim"] = env.now

    def killer(env, victim_proc):
        yield env.timeout(10)
        # Find the victim's transfer and cancel it.
        for f in list(link._flows):
            if f.nbytes == 10000.0:
                f.cancel()

    def survivor(env):
        yield link.transfer(1000.0)
        done["survivor"] = env.now

    vp = env.process(victim(env))
    env.process(killer(env, vp))
    env.process(survivor(env))
    env.run()
    # Survivor: 10 s at 50 B/s = 500 B, then 500 B at 100 B/s = 5 s → 15.
    assert done["survivor"] == pytest.approx(15.0)


def test_outage_stalls_transfers():
    env = Environment()
    link = make_link(env, 100.0)
    done = []

    def proc(env):
        yield link.transfer(1000.0)
        done.append(env.now)

    def outage(env):
        yield env.timeout(5)
        link.set_capacity(0.0)
        yield env.timeout(20)
        link.set_capacity(100.0)

    env.process(proc(env))
    env.process(outage(env))
    env.run()
    # 500 B before outage, 20 s stall, 5 s more → t=30.
    assert done == [pytest.approx(30.0)]


def test_bytes_moved_accounting():
    env = Environment()
    link = make_link(env, 100.0)

    def proc(env):
        yield link.transfer(500.0)
        yield link.transfer(250.0)

    env.process(proc(env))
    env.run()
    assert link.bytes_moved == pytest.approx(750.0)


def test_many_concurrent_flows_complete():
    env = Environment()
    link = make_link(env, 1000.0)
    done = []

    def proc(env, nbytes):
        yield link.transfer(nbytes)
        done.append(env.now)

    for i in range(50):
        env.process(proc(env, 100.0 * (i + 1)))
    env.run()
    assert len(done) == 50
    # Largest flow transfers 5000 B; total = 127500 B at 1000 B/s
    # aggregate → last completion is total/capacity.
    assert max(done) == pytest.approx(127.5)


def test_utilization_of_an_underflowing_window_is_zero():
    # capacity * window underflows to 0.0: there is no window to divide by.
    env = Environment()
    link = make_link(env, 0.5)
    env.run(until=5e-324)
    assert link.utilization() == 0.0


def test_negative_bytes_rejected():
    env = Environment()
    link = make_link(env, 100.0)
    with pytest.raises(ValueError):
        link.transfer(-1.0)
    with pytest.raises(ValueError):
        link.set_capacity(-5.0)


# ------------------------------------------------- the replaced model
REL = 1e-12

ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0),  # gap before the op
        st.one_of(
            st.tuples(
                st.just("start"),
                st.floats(min_value=0.0, max_value=1e4),
                st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e3)),
            ),
            st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
            st.tuples(
                st.just("capacity"),
                st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=1e4)),
            ),
        ),
    ),
    max_size=30,
)


def _drive(make, capacity, stream):
    """Apply *stream* to a fresh link; returns how and when each flow
    ended, and the bytes moved."""
    env = Environment()
    link = make(env, capacity)
    flows = []
    ends = {}

    def watch(i, flow):
        try:
            yield flow
            ends[i] = ("done", env.now)
        except TransferCancelled:
            ends[i] = ("cancelled", env.now)

    def apply_ops(env):
        for gap, op in stream:
            yield env.timeout(gap)
            if op[0] == "start":
                flow = link.transfer(op[1], max_rate=op[2])
                env.process(watch(len(flows), flow))
                flows.append(flow)
            elif op[0] == "cancel" and flows:
                flows[op[1] % len(flows)].cancel()
            elif op[0] == "capacity":
                link.set_capacity(op[1])

    env.process(apply_ops(env))
    env.run()
    return ends, link.bytes_moved


def _close(a, b):
    return a == pytest.approx(b, rel=REL, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(capacity=st.floats(min_value=0.1, max_value=1e4), stream=ops)
def test_link_matches_the_fair_share_reference(capacity, stream):
    """Uncapped and capped flows, cancels and capacity changes end the
    same on a single-link fabric as on ``FairShareLink``: the same flows
    finish or are cancelled, at times within 1e-12 relative, and the
    link moves the same bytes within 1e-12 relative.  The rates are not
    bit-identical: one link splits its capacity as ``capacity / n``,
    the reference in sequence."""
    ref_ends, ref_moved = _drive(FairShareLink, capacity, stream)
    ends, moved = _drive(make_link, capacity, stream)
    assert ends.keys() == ref_ends.keys()  # the rest stalled at capacity 0
    for i, (kind, t) in ends.items():
        ref_kind, ref_t = ref_ends[i]
        assert _close(t, ref_t), (i, kind, t, ref_kind, ref_t)
        assert kind == ref_kind, (i, kind, ref_kind)
    assert _close(moved, ref_moved)
