"""Additional DES kernel corner cases."""

import pytest

from repro.desim import Environment, Interrupt, Resource, Store


# ---------------------------------------------------------------- conditions
def test_condition_value_iteration_and_dict():
    env = Environment()
    seen = {}

    def proc(env):
        a = env.timeout(1, value="A")
        b = env.timeout(2, value="B")
        result = yield a & b
        seen["keys"] = list(result.keys())
        seen["values"] = list(result.values())
        seen["dict"] = result.todict()
        seen["eq"] = result == {a: "A", b: "B"}

    env.process(proc(env))
    env.run()
    assert seen["values"] == ["A", "B"]
    assert len(seen["keys"]) == 2
    assert seen["eq"] is True


def test_nested_conditions_flatten_to_leaves():
    env = Environment()
    out = {}

    def proc(env):
        a = env.timeout(1, value=1)
        b = env.timeout(2, value=2)
        c = env.timeout(3, value=3)
        result = yield (a & b) & c
        out["n"] = len(list(result.keys()))
        out["has_all"] = all(e in result for e in (a, b, c))

    env.process(proc(env))
    env.run()
    assert out["n"] == 3
    assert out["has_all"]


def test_any_of_mixed_with_all_of():
    env = Environment()
    out = {}

    def proc(env):
        fast = env.timeout(1, value="fast")
        s1 = env.timeout(10)
        s2 = env.timeout(20)
        result = yield fast | (s1 & s2)
        out["time"] = env.now
        out["fast_in"] = fast in result

    env.process(proc(env))
    env.run(until=100)
    assert out["time"] == 1.0
    assert out["fast_in"]


def test_interrupt_while_waiting_on_all_of():
    env = Environment()
    out = {}

    def victim(env):
        try:
            yield env.timeout(50) & env.timeout(60)
        except Interrupt as i:
            out["interrupted_at"] = env.now
            out["cause"] = i.cause

    def attacker(env, p):
        yield env.timeout(5)
        p.interrupt("stop")

    p = env.process(victim(env))
    env.process(attacker(env, p))
    env.run(until=100)
    assert out["interrupted_at"] == 5.0
    assert out["cause"] == "stop"


def test_event_trigger_copies_outcome():
    env = Environment()
    out = {}

    def proc(env):
        src = env.timeout(3, value="payload")
        dst = env.event()

        def copy(event):
            dst.trigger(event)

        src.callbacks.append(copy)
        value = yield dst
        out["value"] = value
        out["time"] = env.now

    env.process(proc(env))
    env.run()
    assert out == {"value": "payload", "time": 3.0}


# ---------------------------------------------------------------- resources
def test_store_put_cancel():
    env = Environment()
    store = Store(env, capacity=1)
    outcomes = []

    def filler(env):
        yield store.put("x")  # fills the store

    def impatient(env):
        put = store.put("y")
        result = yield put | env.timeout(5)
        if put not in result:
            put.cancel()
            outcomes.append("gave-up")

    env.process(filler(env))
    env.process(impatient(env))
    env.run(until=20)
    assert outcomes == ["gave-up"]
    assert store.items == ["x"]
    assert store._put_waiters == []


def test_resource_queue_survives_cancelled_holder():
    env = Environment()
    res = Resource(env, capacity=1)
    done = []

    def holder(env):
        with res.request() as req:
            yield req
            try:
                yield env.timeout(100)
            except Interrupt:
                pass  # context manager releases on exit

    def waiter(env):
        with res.request() as req:
            yield req
            done.append(env.now)

    p = env.process(holder(env))
    env.process(waiter(env))

    def interrupter(env):
        yield env.timeout(10)
        p.interrupt()

    env.process(interrupter(env))
    env.run()
    assert done == [10.0]


# ---------------------------------------------------------------- environment
def test_run_until_event_that_fails():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        raise ValueError("bad")

    p = env.process(proc(env))
    with pytest.raises(ValueError, match="bad"):
        env.run(until=p)


def test_run_out_of_events_before_until_time():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    # The until-event itself is scheduled, so the run reaches t=100.
    env.run(until=100)
    assert env.now == 100.0


def test_active_process_visible_during_execution():
    env = Environment()
    seen = {}

    def proc(env):
        seen["active"] = env.active_process
        yield env.timeout(1)

    p = env.process(proc(env))
    env.run()
    assert seen["active"] is p
    assert env.active_process is None
