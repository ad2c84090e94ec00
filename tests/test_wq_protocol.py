"""Deeper Work Queue protocol tests: sandboxes, backpressure, dispatch."""

import pytest

from repro.analysis.report import ExitCode
from repro.batch.machines import Machine
from repro.desim import Environment
from repro.wq import Foreman, Master, Task, TaskState, Worker

MB = 1_000_000.0
GBIT = 125_000_000.0


def sleep_executor(duration, exit_code=ExitCode.SUCCESS):
    def executor(worker, task):
        yield worker.env.timeout(duration)
        return exit_code, {"cpu": duration}, None

    return executor


def collect(env, master, n):
    results = []

    def collector(env):
        for _ in range(n):
            results.append((yield master.wait()))
        master.drain()

    env.process(collector(env))
    return results


# ---------------------------------------------------------------- sandboxes
def test_sandbox_reshipped_to_new_worker_after_eviction():
    """Each worker pays the sandbox once; a replacement pays it again."""
    env = Environment()
    master = Master(env, nic_bandwidth=100 * MB)
    master.submit(Task(sleep_executor(500.0), sandbox_bytes=100 * MB))
    m0 = Machine(env, "m0", cores=1, nic_bandwidth=100 * MB)
    w0 = Worker(env, m0, master, cores=1, connect_latency=0.0)
    p0 = env.process(w0.run())

    def evict(env):
        yield env.timeout(100.0)
        p0.interrupt("evicted")

    env.process(evict(env))

    def replacement(env):
        yield env.timeout(150.0)
        m1 = Machine(env, "m1", cores=1, nic_bandwidth=100 * MB)
        w1 = Worker(env, m1, master, cores=1, connect_latency=0.0)
        yield env.process(w1.run())

    env.process(replacement(env))
    results = collect(env, master, 1)
    env.run()
    r = results[0]
    assert r.succeeded
    # The second worker paid the 1-second sandbox transfer again.
    assert r.wq_stage_in == pytest.approx(1.0)
    assert r.task.attempts == 1


def test_different_sandboxes_both_shipped():
    env = Environment()
    master = Master(env, nic_bandwidth=100 * MB)
    master.submit(Task(sleep_executor(5.0), sandbox_bytes=100 * MB, sandbox_id="A"))
    master.submit(Task(sleep_executor(5.0), sandbox_bytes=100 * MB, sandbox_id="B"))
    machine = Machine(env, "m0", cores=1, nic_bandwidth=100 * MB)
    worker = Worker(env, machine, master, cores=1, connect_latency=0.0)
    env.process(worker.run())
    results = collect(env, master, 2)
    env.run()
    # Both tasks paid a full sandbox transfer (different sandbox ids).
    assert all(r.wq_stage_in == pytest.approx(1.0) for r in results)


# ---------------------------------------------------------------- foreman flow
def test_foreman_buffer_backpressure():
    """A full foreman buffer blocks the pump, not the master queue."""
    env = Environment()
    master = Master(env)
    foreman = Foreman(env, master, buffer_depth=2)
    for _ in range(10):
        master.submit(Task(sleep_executor(1000.0), sandbox_bytes=0.0))
    env.run(until=50.0)
    # The pump moved exactly buffer_depth tasks (no worker drains them).
    assert len(foreman.ready) == 2
    assert master.ready_count == 10 - 2 - 1  # one more in the pump's hands
    assert foreman.tasks_relayed <= 3


def test_foreman_does_not_lose_tasks_on_drain():
    env = Environment()
    master = Master(env)
    foreman = Foreman(env, master, buffer_depth=4)
    for _ in range(4):
        master.submit(Task(sleep_executor(10.0), sandbox_bytes=0.0))
    machine = Machine(env, "m0", cores=2)
    worker = Worker(env, machine, foreman, cores=2, connect_latency=0.0)
    env.process(worker.run())
    results = collect(env, master, 4)
    env.run()
    assert len(results) == 4
    assert len(foreman.ready) == 0


# ---------------------------------------------------------------- states
def test_task_state_progression():
    env = Environment()
    master = Master(env)
    task = Task(sleep_executor(10.0))
    assert task.state == TaskState.READY
    master.submit(task)
    machine = Machine(env, "m0", cores=1)
    env.process(Worker(env, machine, master, cores=1, connect_latency=0.0).run())
    states = []

    def watcher(env):
        last = None
        while task.state != TaskState.DONE:
            if task.state != last:
                states.append(task.state)
                last = task.state
            yield env.timeout(0.5)
        states.append(task.state)

    env.process(watcher(env))
    results = collect(env, master, 1)
    env.run()
    assert TaskState.RUNNING in states
    assert states[-1] == TaskState.DONE


def test_turnaround_vs_wall_time():
    env = Environment()
    master = Master(env)
    # Two tasks, one core: the second queues for ~first task's duration.
    master.submit(Task(sleep_executor(100.0)))
    master.submit(Task(sleep_executor(100.0)))
    machine = Machine(env, "m0", cores=1)
    env.process(Worker(env, machine, master, cores=1, connect_latency=0.0).run())
    results = collect(env, master, 2)
    env.run()
    second = max(results, key=lambda r: r.finished)
    assert second.turnaround > second.wall_time
    assert second.turnaround >= 200.0


def test_dispatch_latency_applied_by_foreman():
    env = Environment()
    master = Master(env, dispatch_latency=5.0)
    foreman = Foreman(env, master, buffer_depth=2)
    master.submit(Task(sleep_executor(1.0), sandbox_bytes=0.0))
    machine = Machine(env, "m0", cores=1)
    env.process(Worker(env, machine, foreman, cores=1, connect_latency=0.0).run())
    results = collect(env, master, 1)
    env.run()
    # The relay paid the master's dispatch latency.
    assert results[0].finished >= 6.0


# ---------------------------------------------------------------- misc
def test_worker_tasks_done_counter():
    env = Environment()
    master = Master(env)
    for _ in range(5):
        master.submit(Task(sleep_executor(1.0)))
    machine = Machine(env, "m0", cores=1)
    worker = Worker(env, machine, master, cores=1, connect_latency=0.0)
    env.process(worker.run())
    collect(env, master, 5)
    env.run()
    assert worker.tasks_done == 5


def test_master_counters_consistent_after_mixed_run():
    env = Environment()
    master = Master(env)
    for i in range(6):
        code = ExitCode.SUCCESS if i % 2 == 0 else ExitCode.APPLICATION_FAILED
        master.submit(Task(sleep_executor(5.0, exit_code=code)))
    machine = Machine(env, "m0", cores=2)
    env.process(Worker(env, machine, master, cores=2, connect_latency=0.0).run())
    results = collect(env, master, 6)
    env.run()
    assert master.tasks_submitted == 6
    assert master.tasks_returned == 6
    assert master.tasks_running == 0
    assert sum(1 for r in results if r.succeeded) == 3


# ---------------------------------------------------------------- multicore
def test_multicore_task_occupies_cores():
    """A 4-core task runs alone on a 4-core worker; 1-core tasks pack."""
    env = Environment()
    master = Master(env)
    big = Task(sleep_executor(100.0), cores=4, sandbox_bytes=0.0)
    smalls = [Task(sleep_executor(100.0), cores=1, sandbox_bytes=0.0) for _ in range(4)]
    master.submit(big)
    for t in smalls:
        master.submit(t)
    machine = Machine(env, "m0", cores=4)
    worker = Worker(env, machine, master, cores=4, connect_latency=0.0)
    env.process(worker.run())
    results = collect(env, master, 5)
    env.run()
    big_result = next(r for r in results if r.task is big)
    small_results = [r for r in results if r.task is not big]
    # The big task ran first, alone (finished at ~100 s).
    assert big_result.finished == pytest.approx(100.0, abs=1.0)
    # The four small tasks then ran concurrently (~200 s).
    for r in small_results:
        assert r.finished == pytest.approx(200.0, abs=1.0)


def test_small_tasks_pack_around_multicore():
    """With 2 free cores left, 1-core tasks run beside a 2-core task."""
    env = Environment()
    master = Master(env)
    master.submit(Task(sleep_executor(100.0), cores=2, sandbox_bytes=0.0))
    master.submit(Task(sleep_executor(100.0), cores=1, sandbox_bytes=0.0))
    master.submit(Task(sleep_executor(100.0), cores=1, sandbox_bytes=0.0))
    machine = Machine(env, "m0", cores=4)
    worker = Worker(env, machine, master, cores=4, connect_latency=0.0)
    env.process(worker.run())
    results = collect(env, master, 3)
    env.run()
    # All three fit simultaneously in 4 cores: everyone done at ~100 s.
    for r in results:
        assert r.finished == pytest.approx(100.0, abs=1.0)


def test_oversized_task_waits_for_bigger_worker():
    """A task needing more cores than a worker has is never dispatched
    to it; a big-enough worker eventually takes it."""
    env = Environment()
    master = Master(env)
    master.submit(Task(sleep_executor(10.0), cores=8, sandbox_bytes=0.0))
    small = Worker(env, Machine(env, "m0", cores=2), master, cores=2, connect_latency=0.0)
    env.process(small.run())

    def big_worker(env):
        yield env.timeout(50.0)
        w = Worker(env, Machine(env, "m1", cores=8), master, cores=8, connect_latency=0.0)
        yield env.process(w.run())

    env.process(big_worker(env))
    results = collect(env, master, 1)
    env.run()
    assert results[0].succeeded
    assert results[0].started >= 50.0
    assert small.tasks_done == 0


def test_multicore_eviction_requeues():
    env = Environment()
    master = Master(env)
    master.submit(Task(sleep_executor(1000.0), cores=3, sandbox_bytes=0.0))
    machine = Machine(env, "m0", cores=4)
    worker = Worker(env, machine, master, cores=4, connect_latency=0.0)
    proc = env.process(worker.run())

    def evictor(env):
        yield env.timeout(100.0)
        proc.interrupt("preempted")

    env.process(evictor(env))

    def replacement(env):
        yield env.timeout(200.0)
        w = Worker(env, Machine(env, "m1", cores=4), master, cores=4, connect_latency=0.0)
        yield env.process(w.run())

    env.process(replacement(env))
    results = collect(env, master, 1)
    env.run()
    assert master.tasks_requeued == 1
    assert results[0].succeeded
    assert results[0].task.cores == 3


def test_free_cores_accounting():
    env = Environment()
    master = Master(env)
    master.submit(Task(sleep_executor(50.0), cores=3, sandbox_bytes=0.0))
    machine = Machine(env, "m0", cores=4)
    worker = Worker(env, machine, master, cores=4, connect_latency=0.0)
    env.process(worker.run())
    probes = []

    def prober(env):
        yield env.timeout(10.0)
        probes.append(worker.free_cores)
        yield env.timeout(100.0)
        probes.append(worker.free_cores)

    env.process(prober(env))
    results = collect(env, master, 1)
    env.run()
    assert probes == [1, 4]
