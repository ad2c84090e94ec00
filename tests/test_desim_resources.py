"""Tests for Resource and Store primitives."""

import pytest

from repro.desim import Environment, Resource, Store


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
