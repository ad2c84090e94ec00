"""Unit tests for the structured event bus (`repro.desim.bus`)."""

import pytest

from repro.desim import Environment, MemorySink, Topics
from repro.desim.bus import _matches


# ---------------------------------------------------------------------------
# pattern matching
# ---------------------------------------------------------------------------
def test_pattern_matching():
    assert _matches("*", "task.done")
    assert _matches("task.done", "task.done")
    assert _matches("task.*", "task.done")
    assert _matches("task.*", "task.requeue")
    assert not _matches("task.*", "cache.miss")
    assert not _matches("task.done", "task.dispatch")
    # Prefix patterns require the dot boundary in the pattern itself.
    assert not _matches("task", "task.done")


def test_empty_pattern_rejected():
    bus = Environment().bus
    with pytest.raises(ValueError):
        bus.subscribe("", lambda e: None)


# ---------------------------------------------------------------------------
# idle / active semantics
# ---------------------------------------------------------------------------
def test_idle_bus_is_falsy_and_counts_nothing():
    bus = Environment().bus
    assert not bus
    bus.port("task.done").emit(task_id=1)
    assert bus.published == 0 and bus.delivered == 0


def test_subscription_activates_and_cancel_deactivates():
    bus = Environment().bus
    sub = bus.subscribe("task.*", lambda e: None)
    assert bus
    sub.cancel()
    assert not bus
    # Double-cancel is harmless.
    sub.cancel()


def test_publish_with_unmatched_topic_is_not_delivered():
    bus = Environment().bus
    seen = []
    bus.subscribe("cache.*", seen.append)
    bus.port("task.done").emit(task_id=1)
    bus.port("cache.miss").emit(cache="c0")
    assert [e.topic for e in seen] == ["cache.miss"]
    # The unmatched emit is not even counted as published.
    assert bus.published == 1


# ---------------------------------------------------------------------------
# filtering and delivery
# ---------------------------------------------------------------------------
def test_subscription_filtering_and_order():
    bus = Environment().bus
    order = []
    bus.subscribe("*", lambda e: order.append(("star", e.topic)))
    bus.subscribe("task.done", lambda e: order.append(("exact", e.topic)))
    bus.port("task.done").emit_at(1.0, task_id=7)
    assert order == [("star", "task.done"), ("exact", "task.done")]
    assert bus.delivered == 2


def test_event_fields_and_as_dict_order():
    bus = Environment().bus
    sink = MemorySink()
    bus.attach(sink)
    bus.port("task.done").emit_at(2.5, task_id=3, ok=True)
    (event,) = sink.events
    assert event.time == 2.5
    assert event.fields == {"task_id": 3, "ok": True}
    assert list(event.as_dict()) == ["t", "topic", "task_id", "ok"]


def test_environment_clock_stamps_events():
    env = Environment()
    sink = MemorySink()
    env.bus.attach(sink, pattern="task.*")
    env.process(_pub_after(env, 5.0))
    env.run()
    assert sink.events[0].time == 5.0


def _pub_after(env, delay):
    yield env.timeout(delay)
    env.bus.port(Topics.TASK_DONE).emit(task_id=1)


def test_cache_invalidation_on_subscription_change():
    bus = Environment().bus
    first, second = [], []
    bus.subscribe("task.done", first.append)
    bus.port("task.done").emit_at(0.0, n=1)  # caches the callback tuple
    bus.subscribe("task.*", second.append)
    bus.port("task.done").emit_at(0.0, n=2)
    assert len(first) == 2 and len(second) == 1


# ---------------------------------------------------------------------------
# late-subscriber cache staleness (regression suite)
#
# The per-topic callback cache must be invalidated on every subscription
# change; a stale cache would silently drop events for subscribers added
# after the first emit on a topic.  These tests pin down the correct
# behavior for each subscription shape.
# ---------------------------------------------------------------------------
def test_late_exact_subscriber_sees_subsequent_events():
    bus = Environment().bus
    early, late = [], []
    bus.subscribe("task.done", early.append)
    for _ in range(3):
        bus.port("task.done").emit_at(0.0)  # topic cache now warm
    bus.subscribe("task.done", late.append)
    bus.port("task.done").emit_at(1.0)
    assert len(early) == 4
    assert len(late) == 1  # not starved by the pre-warmed cache


def test_late_prefix_subscriber_sees_subsequent_events():
    bus = Environment().bus
    early, late = [], []
    bus.subscribe("task.done", early.append)
    bus.port("task.done").emit_at(0.0)
    bus.subscribe("task.*", late.append)
    bus.port("task.done").emit_at(1.0)
    bus.port("task.requeue").emit_at(2.0)
    assert len(early) == 2
    assert [e.topic for e in late] == ["task.done", "task.requeue"]


def test_late_wildcard_subscriber_sees_all_warm_topics():
    bus = Environment().bus
    seen = []
    bus.subscribe("task.done", lambda e: None)
    bus.subscribe("cache.miss", lambda e: None)
    bus.port("task.done").emit_at(0.0)  # warm both topic caches
    bus.port("cache.miss").emit_at(0.0)
    bus.subscribe("*", seen.append)
    bus.port("task.done").emit_at(1.0)
    bus.port("cache.miss").emit_at(1.0)
    assert [e.topic for e in seen] == ["task.done", "cache.miss"]


def test_resubscribe_after_cancel_is_delivered():
    bus = Environment().bus
    seen = []
    sub = bus.subscribe("task.done", seen.append)
    bus.port("task.done").emit_at(0.0)
    sub.cancel()
    bus.port("task.done").emit_at(1.0)  # cancelled: not delivered
    bus.subscribe("task.done", seen.append)
    bus.port("task.done").emit_at(2.0)
    assert [e.time for e in seen] == [0.0, 2.0]


def test_subscribe_from_inside_handler_sees_next_publish():
    bus = Environment().bus
    late = []
    subscribed = []

    def handler(event):
        if not subscribed:
            subscribed.append(bus.subscribe("task.done", late.append))

    bus.subscribe("task.done", handler)
    bus.port("task.done").emit_at(0.0)  # subscribes `late` mid-delivery
    bus.port("task.done").emit_at(1.0)
    assert [e.time for e in late] == [1.0]  # live for the next event


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------
def test_memory_sink_helpers():
    bus = Environment().bus
    sink = MemorySink()
    bus.attach(sink)
    bus.port("task.done").emit_at(0.0, n=1)
    bus.port("cache.miss").emit_at(0.0, n=2)
    assert sink.topics() == ["task.done", "cache.miss"]
    assert len(sink.of("cache.miss")) == 1
    assert len(sink) == 2
    sink.clear()
    assert len(sink) == 0


# ---------------------------------------------------------------------------
# kernel.step integration
# ---------------------------------------------------------------------------
def test_kernel_step_events_only_when_subscribed():
    env = Environment()
    # No subscriber: the kernel emits nothing.
    env.process(_ticks(env, 3))
    env.run()
    assert env.bus.published == 0

    env2 = Environment()
    sink = MemorySink()
    env2.bus.subscribe(Topics.KERNEL_STEP, sink)
    env2.process(_ticks(env2, 3))
    env2.run()
    steps = sink.of(Topics.KERNEL_STEP)
    assert len(steps) >= 3
    assert all("kind" in e.fields and "queued" in e.fields for e in steps)


def _ticks(env, n):
    for _ in range(n):
        yield env.timeout(1.0)


def test_kernel_instrumentation_flag_follows_subscription():
    env = Environment()
    assert not env._kernel_subscribed
    sub = env.bus.subscribe(Topics.KERNEL_STEP, lambda e: None)
    assert env._kernel_subscribed
    sub.cancel()
    assert not env._kernel_subscribed


def test_non_kernel_subscription_keeps_fast_path():
    env = Environment()
    env.bus.subscribe("task.*", lambda e: None)
    assert not env._kernel_subscribed  # hot loop untouched by domain topics
