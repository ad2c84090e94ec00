"""Active recovery: retry budgets, backoff, blacklisting, fallback."""

import pytest

from repro.analysis import data_processing_code
from repro.analysis.report import ExitCode
from repro.batch.machines import Machine
from repro.core import DataAccess, LobsterConfig, Services, WorkflowConfig, Wrapper
from repro.desim import Environment, MemorySink, Topics
from repro.wq import Master, RecoveryPolicy, Task, TaskResult, TaskState, Worker


def sleep_executor(duration, exit_code=ExitCode.SUCCESS):
    def executor(worker, task):
        yield worker.env.timeout(duration)
        return exit_code, {"cpu": duration}, None

    return executor


# ---------------------------------------------------------------------------
# RecoveryPolicy itself
# ---------------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        RecoveryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RecoveryPolicy(backoff_base=-1.0)
    with pytest.raises(ValueError):
        RecoveryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RecoveryPolicy(blacklist_threshold=0.0)
    with pytest.raises(ValueError):
        RecoveryPolicy(blacklist_threshold=1.5)
    with pytest.raises(ValueError):
        RecoveryPolicy(blacklist_min_samples=0)
    with pytest.raises(ValueError):
        RecoveryPolicy(blacklist_duration=0.0)


def test_policy_backoff_progression():
    p = RecoveryPolicy(backoff_base=5.0, backoff_factor=2.0, backoff_cap=30.0)
    assert p.requeue_delay(1) == 5.0
    assert p.requeue_delay(2) == 10.0
    assert p.requeue_delay(3) == 20.0
    assert p.requeue_delay(4) == 30.0  # capped
    assert p.requeue_delay(10) == 30.0
    assert p.requeue_delay(0) == 0.0
    assert RecoveryPolicy(backoff_base=0.0).requeue_delay(3) == 0.0


def test_policy_retry_budget():
    p = RecoveryPolicy(max_attempts=3)
    assert not p.exhausted(2)
    assert p.exhausted(3)
    assert p.exhausted(4)
    assert not RecoveryPolicy(max_attempts=None).exhausted(10_000)


# ---------------------------------------------------------------------------
# Master: cancellation, backoff requeue, exhaustion
# ---------------------------------------------------------------------------

def test_cancel_uses_cancelled_state():
    env = Environment()
    master = Master(env)
    task = Task(sleep_executor(1.0))
    master.submit(task)
    assert master.cancel(task) is True
    assert task.state == TaskState.CANCELLED


def test_requeue_applies_exponential_backoff():
    env = Environment()
    master = Master(
        env,
        recovery=RecoveryPolicy(
            backoff_base=10.0, backoff_factor=2.0, backoff_cap=300.0
        ),
    )
    sink = MemorySink()
    env.bus.attach(sink, Topics.TASK_REQUEUE)
    task = Task(sleep_executor(1.0))
    master.submit(task)
    assert master.ready.remove(task)  # "dispatched"

    master.requeue(task, lost_after=7.0)
    assert task.state == TaskState.LOST
    assert master.ready_count == 0
    env.run(until=9.0)
    assert master.ready_count == 0  # still backing off
    env.run(until=11.0)
    assert master.ready_count == 1  # 10 s backoff elapsed
    assert task.state == TaskState.READY

    # Second loss doubles the delay.
    assert master.ready.remove(task)
    master.requeue(task)
    env.run(until=env.now + 19.0)
    assert master.ready_count == 0
    env.run(until=env.now + 2.0)
    assert master.ready_count == 1

    delays = [e.fields["delay"] for e in sink.events]
    assert delays == [10.0, 20.0]
    assert sink.events[0].fields["lost_after"] == 7.0
    assert sink.events[0].fields["reason"] == "eviction"


def test_retry_budget_exhaustion_fails_task():
    env = Environment()
    master = Master(
        env, recovery=RecoveryPolicy(max_attempts=2, backoff_base=0.0)
    )
    sink = MemorySink()
    env.bus.attach(sink, Topics.TASK_EXHAUSTED)
    task = Task(sleep_executor(1.0))
    master.submit(task)

    assert master.ready.remove(task)
    master.requeue(task, lost_after=50.0)  # attempt 1: requeued
    assert master.tasks_requeued == 1
    assert master.ready_count == 1

    assert master.ready.remove(task)
    master.requeue(task, lost_after=60.0)  # attempt 2: budget spent
    assert master.tasks_requeued == 1  # not requeued again
    assert master.tasks_exhausted == 1
    assert master.ready_count == 0
    assert task.state == TaskState.FAILED

    [event] = sink.events
    assert event.fields["attempts"] == 2
    assert event.fields["lost_time"] == pytest.approx(110.0)

    # The exhausted task surfaces as a normal failed result.
    results = []

    def collector(env):
        results.append((yield master.wait()))

    env.process(collector(env))
    env.run()
    assert len(results) == 1
    assert not results[0].succeeded
    assert results[0].exit_code == ExitCode.EVICTED
    assert results[0].task is task


def test_fast_abort_requeue_carries_backoff():
    """A fast-aborted straggler re-enters the queue after the backoff."""
    env = Environment()
    master = Master(env, recovery=RecoveryPolicy(backoff_base=50.0))
    sink = MemorySink()
    env.bus.attach(sink, Topics.TASK_REQUEUE)
    calls = []

    def recording_executor(worker, task):
        calls.append(env.now)
        yield worker.env.timeout(1000.0 if len(calls) == 1 else 10.0)
        return ExitCode.SUCCESS, {"cpu": 10.0}, None

    master.submit(Task(recording_executor))
    machine = Machine(env, "m0", cores=1)
    env.process(Worker(env, machine, master, cores=1, connect_latency=0.0).run())

    def aborter(env):
        yield env.timeout(100.0)
        for task, (started, abort) in list(master._running_registry.items()):
            abort.succeed()

    env.process(aborter(env))
    results = []

    def collector(env):
        results.append((yield master.wait()))
        master.drain()

    env.process(collector(env))
    env.run()
    [event] = sink.events
    assert event.fields["reason"] == "fast-abort"
    assert event.fields["delay"] == 50.0
    # Second attempt started only after the 50 s backoff.
    assert len(calls) == 2
    assert calls[1] >= 150.0
    assert results[0].succeeded


# ---------------------------------------------------------------------------
# Host blacklisting
# ---------------------------------------------------------------------------

def _finish(master, host, ok):
    task = Task(sleep_executor(1.0))
    task.submitted = master.env.now
    master.task_started()
    master.task_finished(
        TaskResult(
            task=task,
            exit_code=ExitCode.SUCCESS if ok else ExitCode.EVICTED,
            worker_id="w",
            submitted=0.0,
            started=0.0,
            finished=master.env.now,
        ),
        host=host,
    )


def test_blacklist_engages_at_failure_threshold():
    env = Environment()
    master = Master(
        env,
        recovery=RecoveryPolicy(
            blacklist_threshold=0.5, blacklist_min_samples=4
        ),
    )
    sink = MemorySink()
    env.bus.attach(sink, Topics.HOST_BLACKLIST)
    _finish(master, "good", True)
    for _ in range(3):
        _finish(master, "bad", False)
    assert not master.is_blacklisted("bad")  # below min_samples
    _finish(master, "bad", False)
    assert master.is_blacklisted("bad")
    assert not master.is_blacklisted("good")
    assert master.hosts_blacklisted == 1
    [event] = sink.events
    assert event.fields["host"] == "bad"
    assert event.fields["active"] is True
    assert event.fields["failure_rate"] == 1.0


def test_blacklist_disabled_by_default():
    env = Environment()
    master = Master(env)  # default policy: no blacklisting
    for _ in range(20):
        _finish(master, "bad", False)
    assert not master.is_blacklisted("bad")
    assert master.hosts_blacklisted == 0


def test_blacklist_expires_after_duration():
    env = Environment()
    master = Master(
        env,
        recovery=RecoveryPolicy(
            blacklist_threshold=0.5,
            blacklist_min_samples=2,
            blacklist_duration=100.0,
        ),
    )
    sink = MemorySink()
    env.bus.attach(sink, Topics.HOST_BLACKLIST)
    _finish(master, "bad", False)
    _finish(master, "bad", False)
    assert master.is_blacklisted("bad")
    env.run(until=99.0)
    assert master.is_blacklisted("bad")
    env.run(until=101.0)
    assert not master.is_blacklisted("bad")
    assert [e.fields["active"] for e in sink.events] == [True, False]
    # Fresh slate: one more failure must not instantly re-blacklist.
    _finish(master, "bad", False)
    assert not master.is_blacklisted("bad")


def test_blacklisted_host_receives_no_tasks():
    env = Environment()
    master = Master(
        env,
        recovery=RecoveryPolicy(
            blacklist_threshold=0.5,
            blacklist_min_samples=2,
            blacklist_duration=100.0,
        ),
    )
    master.blacklisted["m0"] = 0.0
    master.submit(Task(sleep_executor(10.0)))
    machine = Machine(env, "m0", cores=1)
    worker = Worker(env, machine, master, cores=1, connect_latency=0.0)
    env.process(worker.run())
    env.process(master._unblacklist_later("m0", 100.0))
    results = []

    def collector(env):
        results.append((yield master.wait()))
        master.drain()

    env.process(collector(env))
    env.run(until=50.0)
    # Blacklisted: the worker's filtered get must not match.
    assert worker.tasks_done == 0
    assert master.ready_count == 1
    env.run()
    # After expiry the same worker picks the task up.
    assert worker.tasks_done == 1
    assert results and results[0].succeeded


# ---------------------------------------------------------------------------
# Streaming -> staging fallback
# ---------------------------------------------------------------------------

def test_wrapper_falls_back_after_threshold_failures():
    env = Environment()
    services = Services.default(env)
    wf = WorkflowConfig(
        label="wf",
        code=data_processing_code(),
        dataset="/d",
        stream_fallback_threshold=3,
    )
    cfg = LobsterConfig(workflows=[wf])
    wrapper = Wrapper(cfg, wf, services)
    sink = MemorySink()
    env.bus.attach(sink, Topics.RECOVERY_FALLBACK)

    wrapper._note_stream_failure(env)
    wrapper._note_stream_failure(env)
    assert not wrapper.fallback_active
    wrapper._note_stream_failure(env)
    assert wrapper.fallback_active
    [event] = sink.events
    assert event.fields["workflow"] == "wf"
    assert event.fields["failures"] == 3
    assert event.fields["frm"] == DataAccess.XROOTD
    assert event.fields["to"] == DataAccess.CHIRP
    # Further failures do not re-announce the fallback.
    wrapper._note_stream_failure(env)
    assert len(sink.events) == 1


def test_wrapper_fallback_disabled_without_threshold():
    env = Environment()
    services = Services.default(env)
    wf = WorkflowConfig(label="wf", code=data_processing_code(), dataset="/d")
    wrapper = Wrapper(LobsterConfig(workflows=[wf]), wf, services)
    for _ in range(10):
        wrapper._note_stream_failure(env)
    assert not wrapper.fallback_active


def test_stream_fallback_threshold_validation():
    with pytest.raises(ValueError):
        WorkflowConfig(
            label="wf",
            code=data_processing_code(),
            dataset="/d",
            stream_fallback_threshold=0,
        )
