"""Tests for the DES kernel: environment, processes, events, interrupts."""

import pytest

from repro.desim import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    Interrupt,
    StopProcess,
)


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(42.5).now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(5)
        seen.append(env.now)
        yield env.timeout(2.5)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [5.0, 7.5]


def test_timeout_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    result = []

    def proc(env):
        v = yield env.timeout(1, value="payload")
        result.append(v)

    env.process(proc(env))
    env.run()
    assert result == ["payload"]


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert p.value == "done"
    assert not p.is_alive


def test_process_is_waitable_event():
    env = Environment()

    def child(env):
        yield env.timeout(4)
        return 99

    def parent(env):
        value = yield env.process(child(env))
        return (env.now, value)

    p = env.process(parent(env))
    env.run()
    assert p.value == (4.0, 99)


def test_run_until_time_stops_early():
    env = Environment()
    ticks = []

    def clock(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(clock(env))
    env.run(until=5)
    assert env.now == 5.0
    assert ticks == [1.0, 2.0, 3.0, 4.0]


def test_run_until_past_time_raises():
    env = Environment()
    env.process(iter([]).__iter__() if False else _noop(env))
    env.run(until=2)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_until_now_returns_immediately():
    # simpy semantics: until == now is a no-op, not an error.
    env = Environment()
    env.process(_noop(env))
    assert env.run(until=0) is None
    assert env.now == 0.0
    env.run(until=1)
    assert env.run(until=1) is None
    assert env.now == 1.0
    # The pending timeout-at-1 work was not consumed by the no-op runs.
    env.run()
    assert env.now == 1.0


def _noop(env):
    yield env.timeout(1)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "finished"

    p = env.process(proc(env))
    assert env.run(until=p) == "finished"


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    def opener(env):
        yield env.timeout(7)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert log == [(7.0, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer(env):
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_crashes_simulation():
    env = Environment()

    def failer(env):
        yield env.timeout(1)
        raise RuntimeError("explode")

    env.process(failer(env))
    with pytest.raises(RuntimeError, match="explode"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def attacker(env, proc):
        yield env.timeout(3)
        proc.interrupt("eviction")

    p = env.process(victim(env))
    env.process(attacker(env, p))
    env.run()
    assert log == [(3.0, "eviction")]


def test_interrupt_self_forbidden():
    env = Environment()
    errors = []

    def proc(env):
        try:
            env.active_process.interrupt()
        except RuntimeError:
            errors.append(True)
        yield env.timeout(0)

    env.process(proc(env))
    env.run()
    assert errors == [True]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_can_resume_waiting():
    """After an interrupt the process can wait on new events normally."""
    env = Environment()
    trace = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            trace.append(("interrupted", env.now))
        yield env.timeout(5)
        trace.append(("resumed", env.now))

    def attacker(env, proc):
        yield env.timeout(10)
        proc.interrupt()

    p = env.process(victim(env))
    env.process(attacker(env, p))
    env.run()
    assert trace == [("interrupted", 10.0), ("resumed", 15.0)]


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(2, value="a")
        t2 = env.timeout(5, value="b")
        results = yield AllOf(env, [t1, t2])
        times.append(env.now)
        assert results[t1] == "a"
        assert results[t2] == "b"

    env.process(proc(env))
    env.run()
    assert times == [5.0]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(2, value="fast")
        t2 = env.timeout(9, value="slow")
        results = yield AnyOf(env, [t1, t2])
        times.append(env.now)
        assert t1 in results
        assert t2 not in results

    env.process(proc(env))
    env.run()
    assert times == [2.0]


def test_and_or_operators():
    env = Environment()
    done = []

    def proc(env):
        a = env.timeout(1)
        b = env.timeout(2)
        yield a & b
        done.append(env.now)
        c = env.timeout(1)
        d = env.timeout(10)
        yield c | d
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2.0, 3.0]


def test_empty_all_of_fires_immediately():
    env = Environment()
    fired = []

    def proc(env):
        yield AllOf(env, [])
        fired.append(env.now)

    env.process(proc(env))
    env.run()
    assert fired == [0.0]


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(12)
    assert env.peek() == 12.0


def test_event_ordering_is_fifo_within_same_time():
    env = Environment()
    order = []

    def maker(env, tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in range(6):
        env.process(maker(env, tag))
    env.run()
    assert order == list(range(6))


def test_stop_process_exception_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise StopProcess("early")

    p = env.process(proc(env))
    env.run()
    assert p.value == "early"


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_nested_process_failure_propagates():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1)
        raise KeyError("inner")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError:
            caught.append(env.now)

    env.process(parent(env))
    env.run()
    assert caught == [1.0]


def test_simulate_helper_runs_factories():
    from repro.desim import simulate

    log = []

    def factory(env):
        yield env.timeout(2)
        log.append(env.now)

    env = simulate([factory, factory])
    assert log == [2.0, 2.0]
    assert env.now == 2.0
