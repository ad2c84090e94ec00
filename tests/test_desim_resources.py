"""Tests for Resource, Container, Store primitives."""

import pytest

from repro.desim import (
    Container,
    Environment,
    Interrupt,
    Preempted,
    PreemptiveResource,
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
)


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    holders = []

    def user(env, tag):
        with res.request() as req:
            yield req
            holders.append((tag, env.now))
            yield env.timeout(10)

    for tag in range(3):
        env.process(user(env, tag))
    env.run()
    # Two enter at t=0, the third only once a slot frees at t=10.
    assert holders == [(0, 0.0), (1, 0.0), (2, 10.0)]


def test_resource_release_via_context_manager():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(user(env))
    env.run()
    assert res.count == 0
    assert res.queue == []


def test_resource_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_cancel_removes_from_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(100)

    def impatient(env):
        req = res.request()
        result = yield req | env.timeout(5)
        if req not in result:
            req.cancel()
            got.append("gave-up")

    env.process(holder(env))
    env.process(impatient(env))
    env.run(until=50)
    assert got == ["gave-up"]
    assert len(res.queue) == 0


def test_priority_resource_orders_waiters():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env):
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(10)

    def waiter(env, prio, tag):
        yield env.timeout(1)  # ensure holder got it first
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    env.process(holder(env))
    env.process(waiter(env, 5, "low"))
    env.process(waiter(env, 1, "high"))
    env.run()
    assert order == ["high", "low"]


def test_preemptive_resource_evicts_lower_priority():
    env = Environment()
    res = PreemptiveResource(env, capacity=1)
    log = []

    def victim(env):
        with res.request(priority=10) as req:
            yield req
            try:
                yield env.timeout(100)
                log.append("victim-finished")
            except Interrupt as i:
                assert isinstance(i.cause, Preempted)
                log.append(("victim-preempted", env.now))

    def bully(env):
        yield env.timeout(5)
        with res.request(priority=0, preempt=True) as req:
            yield req
            log.append(("bully-running", env.now))
            yield env.timeout(1)

    env.process(victim(env))
    env.process(bully(env))
    env.run()
    assert ("victim-preempted", 5.0) in log
    assert ("bully-running", 5.0) in log
    assert "victim-finished" not in log


def test_preemptive_resource_no_preempt_flag_waits():
    env = Environment()
    res = PreemptiveResource(env, capacity=1)
    log = []

    def victim(env):
        with res.request(priority=10) as req:
            yield req
            yield env.timeout(20)
            log.append("victim-finished")

    def polite(env):
        yield env.timeout(5)
        with res.request(priority=0, preempt=False) as req:
            yield req
            log.append(("polite-running", env.now))

    env.process(victim(env))
    env.process(polite(env))
    env.run()
    assert log == ["victim-finished", ("polite-running", 20.0)]


# ---------------------------------------------------------------- Container
def test_container_put_get():
    env = Environment()
    tank = Container(env, capacity=100, init=10)
    levels = []

    def producer(env):
        yield env.timeout(1)
        yield tank.put(50)
        levels.append(("after-put", tank.level))

    def consumer(env):
        yield tank.get(40)  # must wait for producer
        levels.append(("after-get", tank.level, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("after-get", 20.0, 1.0) in levels


def test_container_blocks_put_over_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    done = []

    def producer(env):
        yield tank.put(5)
        done.append(env.now)

    def consumer(env):
        yield env.timeout(3)
        yield tank.get(5)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert done == [3.0]


def test_container_rejects_bad_amounts():
    env = Environment()
    tank = Container(env, capacity=10)
    with pytest.raises(ValueError):
        tank.put(0)
    with pytest.raises(ValueError):
        tank.get(-1)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=9)


# ---------------------------------------------------------------- Store
def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for item in "abc":
            yield store.put(item)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [g[0] for g in got] == ["a", "b", "c"]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("x")
        log.append(("put-x", env.now))
        yield store.put("y")
        log.append(("put-y", env.now))

    def consumer(env):
        yield env.timeout(5)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put-y", 5.0) in log


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(4)
        yield store.put(123)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(123, 4.0)]


def test_priority_store_yields_smallest():
    env = Environment()
    store = PriorityStore(env)
    got = []

    def producer(env):
        for v in [5, 1, 3]:
            yield store.put(v)

    def consumer(env):
        yield env.timeout(1)
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [1, 3, 5]
