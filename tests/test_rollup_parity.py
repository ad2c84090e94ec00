"""Streaming rollup vs. exact reduction: bit-for-bit parity (DESIGN.md §13).

The :class:`~repro.monitor.Rollup` mirrors every accumulation the exact
:class:`~repro.monitor.RunMetrics` path performs, expression for
expression and in arrival order, so its windowed timelines and float
totals must be *bit* identical — not approximately equal — on real
runs.  These tests drive both folds off the same bus for the
quickstart, chaos, and corruption scenarios and compare bin-for-bin,
check that every fold fed from a recording by ``replay()`` equals the
same fold attached live, then pin down the degenerate cases (empty
run, single event) where off-by-one window arithmetic likes to hide.
"""

from collections import deque

import numpy as np
import pytest

from repro.desim import Environment, EventBus, Topics
from repro.monitor import (
    BusCollector,
    JsonlSink,
    Rollup,
    RunMetrics,
    RunWatcher,
    SpanStreamBuilder,
    SpanTracer,
    WatchEngine,
    load_events,
    replay,
    verify_parity,
)
from repro.scenarios import execute_prepared, prepare_chaos, prepare_quickstart


def _run_with_both_collectors(prepare, **kwargs):
    """Execute a scenario with the streaming and exact folds attached
    to the same bus; returns (rollup, metrics)."""
    env = Environment()
    rollup = Rollup()
    BusCollector(env.bus, rollup)
    prepared = prepare(env=env, **kwargs)
    execute_prepared(prepared, settle=300.0)
    return rollup, prepared.run.metrics


@pytest.fixture(scope="module")
def quickstart_pair():
    return _run_with_both_collectors(
        prepare_quickstart, events=20_000, workers=4, seed=11
    )


@pytest.fixture(scope="module")
def chaos_pair():
    return _run_with_both_collectors(
        prepare_chaos, files=20, machines=6, cores=4, seed=5
    )


@pytest.fixture(scope="module")
def corruption_pair():
    return _run_with_both_collectors(
        prepare_chaos,
        files=20,
        machines=6,
        cores=4,
        seed=9,
        bit_rot=2,
        truncate=2,
        duplicates=2,
    )


# --------------------------------------------------------------- full runs
def test_quickstart_parity(quickstart_pair):
    rollup, metrics = quickstart_pair
    assert metrics.n_tasks > 0  # the run actually ran
    assert verify_parity(rollup, metrics) == []


def test_chaos_parity(chaos_pair):
    rollup, metrics = chaos_pair
    assert metrics.evictions_seen + metrics.n_faults_injected > 0
    assert verify_parity(rollup, metrics) == []


def test_corruption_parity(corruption_pair):
    rollup, metrics = corruption_pair
    assert metrics.has_integrity_data()
    assert len(metrics.duplicates_dropped) > 0
    assert verify_parity(rollup, metrics) == []


def test_efficiency_timeline_bit_identical(quickstart_pair):
    """Spot-check the headline timeline beyond verify_parity: same dtype,
    same edges, same bits."""
    rollup, metrics = quickstart_pair
    r_starts, r_values = rollup.efficiency_timeline()
    m_starts, m_values = metrics.efficiency_timeline(
        bin_width=rollup.bin_width
    )
    assert r_starts.dtype == m_starts.dtype
    assert np.array_equal(r_starts, m_starts)
    assert np.array_equal(r_values, m_values)  # exact, not allclose


def test_bandwidth_timeline_bit_identical_per_class(chaos_pair):
    rollup, metrics = chaos_pair
    assert rollup.flow_bytes  # the run moved data
    r_starts, r_by_class = rollup.bandwidth_timeline()
    m_starts, m_by_class = metrics.bandwidth_timeline(rollup.bin_width)
    assert np.array_equal(r_starts, m_starts)
    assert set(r_by_class) == set(m_by_class)
    for klass in m_by_class:
        assert np.array_equal(r_by_class[klass], m_by_class[klass]), klass


def test_rollup_memory_is_windows_not_events():
    """Piling events into the same windows must not grow the cell
    population — retention is O(occupied windows), never O(events)."""
    def fill(n_tasks):
        bus = EventBus()
        rollup = Rollup()
        BusCollector(bus, rollup)
        for task_id in range(n_tasks):
            finished = 100.0 + (task_id % 7)  # all within window 0
            bus.publish(
                Topics.TASK_RESULT,
                _time=finished,
                workflow="wf",
                task_id=task_id,
                category="analysis",
                exit_code=0,
                submitted=0.0,
                started=finished - 50.0,
                finished=finished,
                segments={"cpu": 40.0},
                wq_stage_in=0.0,
                wq_stage_out=0.0,
                lost_time=0.0,
                output_bytes=1e6,
            )
            bus.publish(
                Topics.NET_FLOW,
                _time=finished,
                klass="stage-out",
                nbytes=1e6,
                elapsed=10.0,
                src="w",
                dst="se",
            )
        return rollup

    sparse, dense = fill(10), fill(500)
    assert dense.events_seen == 50 * sparse.events_seen
    assert dense.retained_cells() == sparse.retained_cells()


# ------------------------------------------------------------- replay twin
def _state(x, envelope=()):
    """A comparable snapshot of a fold's state (callbacks excluded).

    *envelope* keys are dropped from stored field dicts: a live raw
    record carries its ``t`` stamp, a recorded event also its topic.
    """
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.tolist())
    if isinstance(x, dict):
        return {k: _state(v, envelope) for k, v in x.items() if k not in envelope}
    if isinstance(x, (list, tuple, deque)):
        return [_state(v, envelope) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if x is None or isinstance(x, (str, int, float)):
        return x
    if callable(x):
        return None
    if hasattr(x, "__dict__"):
        return (type(x).__name__, _state(vars(x), envelope))
    slots = type(x).__slots__
    return (type(x).__name__, _state({s: getattr(x, s) for s in slots}, envelope))


@pytest.fixture(scope="module")
def recorded_chaos(tmp_path_factory):
    """One chaos run with every fold attached live, plus its recording."""
    path = tmp_path_factory.mktemp("chaos") / "events.jsonl"
    env = Environment()
    sink = JsonlSink(str(path))
    env.bus.attach(sink)
    live = [RunMetrics(), Rollup(), SpanStreamBuilder()]
    for fold in live:
        BusCollector(env.bus, fold)
    live.append(RunWatcher(env.bus).engine)
    tracer = SpanTracer(env)
    prepared = prepare_chaos(files=20, machines=6, cores=4, seed=5, env=env)
    execute_prepared(prepared, settle=300.0)
    tracer.finalize()
    sink.close()
    return {type(fold): fold for fold in live}, load_events(sink.path)


@pytest.mark.parametrize(
    "fold_cls",
    [RunMetrics, Rollup, WatchEngine, SpanStreamBuilder],
    ids=lambda cls: cls.__name__,
)
def test_replayed_fold_matches_live(recorded_chaos, fold_cls):
    """replay() over a JSONL recording == the same fold attached live
    through BusCollector."""
    live_folds, events = recorded_chaos
    live = live_folds[fold_cls]
    replayed = fold_cls()
    replay(events, replayed)
    envelope = ("t", "topic") if fold_cls is RunMetrics else ()
    assert _state(live, envelope) != _state(fold_cls(), envelope)  # it folded
    assert _state(replayed, envelope) == _state(live, envelope)
    if fold_cls is Rollup:
        assert replayed.events_seen == live.events_seen
        assert verify_parity(replayed, live_folds[RunMetrics]) == []


def test_rollup_collector_workflow_filter_matches_buscollector():
    """The one workflow filter: both folds behind a filtered collector
    accept exactly the same events, and unattributed events pass."""
    bus = EventBus()
    exact, streaming = RunMetrics(), Rollup()
    BusCollector(bus, exact, workflows=["wf-a"])
    BusCollector(bus, streaming, workflows=["wf-a"])
    fields = dict(
        category="analysis",
        exit_code=0,
        submitted=0.0,
        started=0.0,
        finished=100.0,
        segments={"cpu": 80.0},
        wq_stage_in=0.0,
        wq_stage_out=0.0,
        lost_time=0.0,
        output_bytes=1e6,
    )
    bus.publish(Topics.TASK_RESULT, _time=100.0, workflow="wf-a", task_id=1,
                **fields)
    bus.publish(Topics.TASK_RESULT, _time=100.0, workflow="wf-b", task_id=2,
                **fields)
    bus.publish(Topics.EVICTION, _time=5.0, workflows=["wf-b"], slot="s")
    assert exact.n_tasks == streaming.n_tasks == 1
    assert exact.evictions_seen == streaming.evictions == 0
    bus.publish(Topics.EVICTION, _time=6.0, slot="s")  # unattributed
    assert exact.evictions_seen == streaming.evictions == 1
    assert verify_parity(streaming, exact) == []


# ------------------------------------------------------------- degenerates
def test_empty_run_parity():
    """No events at all: every timeline is empty/degenerate on both paths
    and parity still holds."""
    rollup = Rollup()
    metrics = RunMetrics()
    assert verify_parity(rollup, metrics) == []
    starts, values = rollup.efficiency_timeline()
    m_starts, m_values = metrics.efficiency_timeline(bin_width=1800.0)
    assert np.array_equal(starts, m_starts)
    assert np.array_equal(values, m_values)


def test_single_event_parity():
    """One task result: a single occupied window, still bit-identical."""
    bus = EventBus()
    exact, streaming = RunMetrics(), Rollup()
    BusCollector(bus, exact)
    BusCollector(bus, streaming)
    bus.publish(
        Topics.TASK_RESULT,
        _time=90.0,
        workflow="wf",
        task_id=1,
        category="analysis",
        exit_code=0,
        submitted=0.0,
        started=10.0,
        finished=90.0,
        segments={"cpu": 60.0, "setup": 5.0},
        wq_stage_in=2.0,
        wq_stage_out=1.0,
        lost_time=0.0,
        output_bytes=5e6,
    )
    assert streaming.n_tasks == 1
    assert verify_parity(streaming, exact) == []


def test_single_instantaneous_flow_parity():
    """A zero-duration flow lands its full volume in one bin on both
    paths (the rate*overlap spread degenerates to nbytes/bw)."""
    bus = EventBus()
    exact, streaming = RunMetrics(), Rollup()
    BusCollector(bus, exact)
    BusCollector(bus, streaming)
    bus.publish(
        Topics.NET_FLOW,
        _time=42.0,
        klass="stage-out",
        nbytes=1e9,
        elapsed=0.0,
        src="worker",
        dst="se",
    )
    assert streaming.n_flows == 1
    assert verify_parity(streaming, exact) == []


def test_event_at_exact_bin_boundary_parity():
    """A task finishing exactly at a bin edge exercises the final-bin
    clamp (min(int(t/bw), n-1)) that the rollup replays via overflow
    folding."""
    bus = EventBus()
    exact, streaming = RunMetrics(), Rollup()
    BusCollector(bus, exact)
    BusCollector(bus, streaming)
    for task_id, finished in enumerate((1800.0, 3600.0), start=1):
        bus.publish(
            Topics.TASK_RESULT,
            _time=finished,
            workflow="wf",
            task_id=task_id,
            category="analysis",
            exit_code=0,
            submitted=0.0,
            started=finished - 600.0,
            finished=finished,
            segments={"cpu": 500.0},
            wq_stage_in=0.0,
            wq_stage_out=0.0,
            lost_time=0.0,
            output_bytes=0.0,
        )
    assert verify_parity(streaming, exact) == []
