"""The port-only bus delivers exactly what the old ``publish()`` bus did.

``tests/bus_reference.py`` keeps the bus as it was when producers still
called ``bus.publish(topic, _time=t, **fields)``.  A hypothesis stream
drives it and the current bus with the same exact, prefix and wildcard
subscriptions (raw and classic), the same cancels (some made from inside
a delivery) and the same emits, and compares every delivery and the
``published`` / ``delivered`` / ``subscriptions`` totals.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.desim import Environment, Topics

from . import bus_reference as ref

TOPICS = (
    Topics.TASK_DONE,
    Topics.TASK_REQUEUE,
    Topics.CACHE_MISS,
    Topics.NET_FLOW,
    Topics.NET_FLOW_FAIL,
    Topics.KERNEL_STEP,
)
PATTERNS = TOPICS + ("task.*", "net.*", "net.flow.*", "cache.*", "*")
FIELD_NAMES = ("task_id", "n", "nbytes", "host")

_exact = st.sampled_from(TOPICS)
_subscribe = st.one_of(
    st.tuples(st.just("sub"), st.sampled_from(PATTERNS), st.just(False),
              st.none() | st.integers(0, 15)),
    st.tuples(st.just("sub"), _exact, st.just(True),
              st.none() | st.integers(0, 15)),
)
_cancel = st.tuples(st.just("cancel"), st.integers(0, 15))
_fields = st.dictionaries(
    st.sampled_from(FIELD_NAMES),
    st.integers(-5, 5) | st.floats(0.0, 1e6, allow_nan=False) | st.text("abc", max_size=3),
    max_size=3,
)
_emit = st.tuples(
    st.just("emit"), _exact, st.floats(0.0, 50.0, allow_nan=False), st.booleans(), _fields
)
STREAMS = st.lists(st.one_of(_subscribe, _cancel, _emit, _emit), max_size=60)


class _Side:
    """One bus plus its subscriptions and the deliveries they logged."""

    def __init__(self, bus, emit):
        self.bus = bus
        self.emit = emit
        self.subs = []
        self.log = []

    def subscribe(self, pattern, raw, cancels):
        k = len(self.subs)

        def record(topic, time, fields):
            self.log.append((k, time, topic, fields))
            # A callback may cancel a subscription mid-delivery (itself
            # or another one, possibly one later in this fan-out).
            if cancels is not None and self.subs:
                self.subs[cancels % len(self.subs)].cancel()

        if raw:
            def callback(rec):
                record(pattern, rec["t"], dict(rec))
        else:
            def callback(event):
                record(event.topic, event.time, dict(event.fields))

        self.subs.append(self.bus.subscribe(pattern, callback, raw=raw))

    def totals(self):
        return (
            self.bus.published,
            self.bus.delivered,
            self.bus.stats()["subscriptions"],
            bool(self.bus),
        )


@settings(max_examples=300, deadline=None)
@given(STREAMS)
@example(
    [
        ("sub", "*", False, None),
        ("sub", Topics.NET_FLOW, True, 0),
        ("sub", "net.*", False, None),
        ("sub", Topics.NET_FLOW, True, None),
        ("emit", Topics.NET_FLOW, 1.5, False, {"nbytes": 10.0}),
        ("emit", Topics.NET_FLOW, 2.5, True, {"nbytes": 20.0, "host": "a"}),
        ("cancel", 2),
        ("emit", Topics.NET_FLOW, 3.0, True, {}),
        ("emit", Topics.TASK_DONE, 3.0, False, {"task_id": 1}),
    ]
)
@example(
    [
        ("sub", Topics.CACHE_MISS, True, None),
        ("emit", Topics.CACHE_MISS, 4.0, True, {"host": "b", "n": 2}),
        ("emit", Topics.CACHE_MISS, 5.0, False, {"n": 3}),
    ]
)
def test_stream_matches_reference(stream):
    reference = _Side(
        ref.EventBus(), lambda bus, topic, t, clock, f: bus.publish(topic, _time=t, **f)
    )
    env = Environment()

    def port_emit(bus, topic, t, clock, f):
        port = bus.port(topic)
        if clock:
            env._now = t  # emit() stamps the environment clock
            port.emit(**f)
        else:
            port.emit_at(t, **f)

    current = _Side(env.bus, port_emit)
    for op in stream:
        for side in (reference, current):
            if op[0] == "sub":
                side.subscribe(*op[1:])
            elif op[0] == "cancel":
                if side.subs:
                    side.subs[op[1] % len(side.subs)].cancel()
            else:
                _, topic, t, clock, fields = op
                side.emit(side.bus, topic, t, clock, dict(fields))
        assert current.totals() == reference.totals()
    assert current.log == reference.log
    for topic in TOPICS:
        assert current.bus.port(topic).on == reference.bus.has_subscribers(topic)
