"""Equivalence of the indexed ready queue with the predicate-scanning store
it replaced.

``FilterStore`` and the ``_fits_predicate`` below are the implementation
the master and foremen used before :class:`repro.wq.ReadyQueue`, copied
here unchanged as the reference.  Random put/pull streams and whole
scenario recordings must come out identical under both.
"""

from types import SimpleNamespace
from typing import Any, Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.wq.foreman
import repro.wq.master
from repro.desim import Environment, Store
from repro.desim.resources import StoreGet
from repro.monitor import JsonlSink
from repro.testing import reset_id_counters
from repro.wq import ReadyQueue, Worker


# -- the reference ---------------------------------------------------------
class FilterStoreGet(StoreGet):
    __slots__ = ("filter",)

    def __init__(self, store, filter: Callable[[Any], bool]):
        self.filter = filter
        super().__init__(store)


class FilterStore(Store):
    """Store whose getters may select items with a predicate."""

    def get(self, filter: Callable[[Any], bool] = lambda item: True) -> FilterStoreGet:  # type: ignore[override]
        return FilterStoreGet(self, filter)

    def retrigger(self) -> None:
        """Re-evaluate waiting getters whose external predicates may have
        changed (e.g. a FilterStore filter closing over mutable state)."""
        self._trigger()

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._put_waiters and len(self.items) < self._capacity:
                put = self._put_waiters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Try every waiting getter against available items.
            for get in list(self._get_waiters):
                for idx, item in enumerate(self.items):
                    if get.filter(item):
                        del self.items[idx]
                        self._get_waiters.remove(get)
                        get.succeed(item)
                        progress = True
                        break


def _fits_predicate(self, task) -> bool:
    """The boolean ``Worker._fits`` the store filtered with, body unchanged."""
    return (
        not self._dying
        and task.cores <= self._free
        and not self.master.is_blacklisted(self.machine.name)
    )


class ReferenceQueue(FilterStore):
    """The reference behind :class:`ReadyQueue`'s surface: a worker's
    limit becomes ``_fits_predicate`` over the worker that passed it."""

    def get(self, limit=None):
        if limit is None:
            return super().get()
        worker = limit.__self__
        return super().get(lambda task: _fits_predicate(worker, task))

    def __len__(self):
        return len(self.items)

    def remove(self, task) -> bool:
        try:
            self.items.remove(task)
        except ValueError:
            return False
        return True

    def clear(self) -> None:
        self.items.clear()


def test_filter_store_selects_matching():
    env = Environment()
    store = FilterStore(env)
    got = []

    def consumer(env):
        item = yield store.get(lambda x: x % 2 == 0)
        got.append(item)

    def producer(env):
        yield store.put(1)
        yield store.put(3)
        yield env.timeout(1)
        yield store.put(4)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [4]
    assert store.items == [1, 3]


# -- unit streams ----------------------------------------------------------
class _Master:
    def __init__(self):
        self.blacklisted = set()

    def is_blacklisted(self, host) -> bool:
        return host in self.blacklisted


class _Worker:
    """The state ``Worker._fits`` (and ``_fits_predicate``) reads."""

    _fits = Worker._fits

    def __init__(self, master, host: str, free: int = 8):
        self.master = master
        self.machine = SimpleNamespace(name=host)
        self._free = free
        self._dying = False


def test_worker_skips_a_head_task_too_big_for_its_free_cores():
    env = Environment()
    queue = ReadyQueue(env)
    big = SimpleNamespace(name="big", cores=4)
    small = SimpleNamespace(name="small", cores=1)
    queue.put(big)
    queue.put(small)
    worker = _Worker(_Master(), "h0", free=2)
    get = queue.get(worker._fits)
    assert get.triggered and get.value is small
    assert len(queue) == 1
    # The 4-core task kept its place: it is the next task of any size.
    assert queue.get().value is big


def test_dying_or_blacklisted_worker_takes_nothing():
    env = Environment()
    queue = ReadyQueue(env)
    queue.put(SimpleNamespace(name="t", cores=1))
    master = _Master()
    dying, condemned = _Worker(master, "h0"), _Worker(master, "h1")
    dying._dying = True
    master.blacklisted.add("h1")
    assert not queue.get(dying._fits).triggered
    assert not queue.get(condemned._fits).triggered
    master.blacklisted.clear()
    queue.retrigger()
    assert len(queue) == 0


N_WORKERS = 3

OPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from([1, 2, 4, 8])),
    st.tuples(st.just("get"), st.integers(0, N_WORKERS - 1)),
    st.tuples(st.just("pump")),
    st.tuples(
        st.just("state"),
        st.integers(0, N_WORKERS - 1),
        st.integers(0, 8),
        st.booleans(),
        st.booleans(),
    ),
    st.tuples(st.just("retrigger")),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("tick")),
)


def _drive(queue_cls, capacity, frees, ops):
    """Apply *ops* to a fresh queue and workers with *frees* free cores;
    return everything it did, in order: put admissions, grants as (time,
    getter, task), ``remove`` answers, and the leftover tasks oldest
    first."""
    env = Environment()
    queue = queue_cls(env, capacity=capacity)
    master = _Master()
    workers = [_Worker(master, f"h{i}", free) for i, free in enumerate(frees)]
    log, tasks, gets = [], [], []

    def on_grant(name):
        return lambda ev: log.append((env.now, name, ev.value.name))

    def pull(limit, name):
        get = queue.get(limit)
        get.callbacks.append(on_grant(name))
        gets.append(get)

    def script():
        for op in ops:
            kind = op[0]
            if kind == "tick":
                yield env.timeout(1)
            elif kind == "put":
                task = SimpleNamespace(name=f"t{len(tasks)}", cores=op[1])
                tasks.append(task)
                put = queue.put(task)
                put.callbacks.append(lambda ev, n=task.name: log.append((env.now, "put", n)))
            elif kind == "get":
                pull(workers[op[1]]._fits, f"g{len(gets)}:w{op[1]}")
            elif kind == "pump":
                pull(None, f"g{len(gets)}:pump")
            elif kind == "state":
                _, w, free, dying, condemned = op
                workers[w]._free, workers[w]._dying = free, dying
                host = workers[w].machine.name
                if condemned:
                    master.blacklisted.add(host)
                else:
                    master.blacklisted.discard(host)
            elif kind == "retrigger":
                queue.retrigger()
            elif kind == "remove" and tasks:
                task = tasks[op[1] % len(tasks)]
                log.append((env.now, "remove", task.name, queue.remove(task)))
            elif kind == "clear":
                queue.clear()
            elif kind == "cancel" and gets:
                gets[op[1] % len(gets)].cancel()
        yield env.timeout(1)
        for get in gets:
            get.cancel()
        leftover = []
        while len(queue):
            get = queue.get()
            yield get
            leftover.append(get.value.name)
        log.append(("leftover", leftover))

    env.process(script())
    env.run()
    return log


@settings(max_examples=400, deadline=None)
# A full queue with two blocked puts and two waiting pulls that a
# retrigger lets fit: one pass grants both pulls before either put is
# admitted.
@example(
    capacity=2,
    frees=[0, 0, 0],
    ops=[("put", 1)] * 4
    + [("get", 0), ("get", 1), ("state", 0, 1, False, False), ("state", 1, 1, False, False)]
    + [("retrigger",)],
)
@given(
    capacity=st.sampled_from([float("inf"), 1, 2, 3, 5]),
    frees=st.lists(st.integers(0, 8), min_size=N_WORKERS, max_size=N_WORKERS),
    ops=st.lists(OPS, max_size=60),
)
def test_ready_queue_grants_like_the_reference(capacity, frees, ops):
    assert _drive(ReadyQueue, capacity, frees, ops) == _drive(
        ReferenceQueue, capacity, frees, ops
    )


# -- whole scenarios -------------------------------------------------------
def _record(path, monkeypatch, queue_cls, scenario):
    """Run *scenario* with *queue_cls* as every ready queue, recording
    all topics (``kernel.step`` included) to *path*."""
    monkeypatch.setattr(repro.wq.master, "ReadyQueue", queue_cls)
    monkeypatch.setattr(repro.wq.foreman, "ReadyQueue", queue_cls)
    reset_id_counters()
    env = Environment()
    sink = JsonlSink(str(path))
    env.bus.attach(sink)
    scenario(env)
    sink.close()
    return path.read_bytes()


def _chaos(env):
    """Evictions, blacklisting with parole, backoff requeues, and a master
    crash that clears the ready queue before a warm restart."""
    from repro.scenarios import execute_prepared, prepare_chaos, warm_restart

    prepared = prepare_chaos(files=60, seed=0, master_crash_at=3000.0, env=env)
    execute_prepared(prepared, settle=60.0)
    assert prepared.run.crashed
    execute_prepared(warm_restart(prepared))


def _foremen(env):
    from repro.scenarios import data_processing_scenario

    data_processing_scenario(n_machines=6, cores=4, n_files=40, foremen=2, env=env)


@pytest.mark.parametrize("scenario", [_chaos, _foremen], ids=["chaos", "foremen"])
def test_scenario_recordings_match_the_reference(tmp_path, monkeypatch, scenario):
    reference = _record(tmp_path / "ref.jsonl", monkeypatch, ReferenceQueue, scenario)
    indexed = _record(tmp_path / "new.jsonl", monkeypatch, ReadyQueue, scenario)
    assert b'"topic":"kernel.step"' in indexed
    assert b'"kind":"FilterStoreGet"' in indexed
    assert indexed == reference
