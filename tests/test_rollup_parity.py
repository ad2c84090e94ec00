"""Dashboard views from RunMetrics vs. the windowed Rollup they replaced.

The dashboard renders every panel from one
:class:`~repro.monitor.RunMetrics` fold.  Until it did, the strips and
counters came from a ``Rollup``, a second fold of the same events into
per-window cells; that fold is kept in ``tests/rollup_reference.py``.
These tests feed both folds the same events and require every view the
dashboard shows to be equal to the reference, bit for bit: arrays with
``np.array_equal`` and the same dtype, everything else with ``==``.
Scenario runs cover quickstart, chaos, corruption and a master crash
with warm restart; a hypothesis stream covers bin edges, zero-length
and zero-byte flows, and ``now`` before or after the end.  The last
tests check that every fold fed from a recording by ``replay()`` equals
the same fold attached live.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.desim import Environment, Topics
from repro.monitor import (
    BusCollector,
    JsonlSink,
    RunMetrics,
    RunWatcher,
    SpanStreamBuilder,
    SpanTracer,
    WatchEngine,
    load_events,
    replay,
)
from repro.monitor import dash
from repro.scenarios import (
    execute_prepared,
    prepare_chaos,
    prepare_quickstart,
    warm_restart,
)
from .rollup_reference import Rollup

#: Bin widths the scenario folds are built with.
BIN_WIDTHS = (1800.0, 37.0)


# ------------------------------------------------------------------ views
def _digest(d):
    return (d.counts, d.n, d.total, d.min, d.max)


def dashboard_views(metrics: RunMetrics, bin_width: float, now=None) -> dict:
    """Every value the dashboard reads, as ``dash.py`` computes it."""
    injected = metrics.n_faults_injected
    return {
        "efficiency": metrics.efficiency_timeline(bin_width, now=now),
        "bandwidth": metrics.bandwidth_timeline(bin_width, now=now),
        "running": dash._running_peaks(metrics, bin_width, now),
        "completions": dash._completion_counts(metrics, bin_width, now),
        "failure_codes": dash._failure_codes(metrics),
        "segments": {
            seg: _digest(d) for seg, d in dash._segment_digests(metrics).items()
        },
        "narration": dash._narration(metrics),
        "n_tasks": metrics.n_tasks,
        "n_succeeded": metrics.n_succeeded(),
        "n_failed": metrics.n_failed(),
        "overall_efficiency": metrics.overall_efficiency(),
        "makespan": max((r.finished for r in metrics.records), default=0.0),
        "output_bytes": dash._output_bytes(metrics),
        "flow_bytes": metrics.flow_bytes_by_class(),
        "n_flows": len(metrics.flows),
        "n_flows_failed": metrics.n_flows_failed(),
        "chaos": (
            injected,
            len(metrics.faults) - injected,
            metrics.evictions_seen,
            metrics.tasks_exhausted,
            len(metrics.stream_fallbacks),
            len(metrics.recovery_resumes),
            metrics.hosts_blacklisted(),
        ),
        "integrity": (
            metrics.integrity_commits,
            len(metrics.integrity_corrupt),
            len(metrics.integrity_quarantined),
            len(metrics.integrity_orphans),
            len(metrics.duplicates_dropped),
        ),
        "alerts": (metrics.n_alerts_raised, metrics.n_alerts_cleared),
    }


def reference_views(rollup: Rollup, now=None) -> dict:
    """The same values, as the parent's dashboard read them off a Rollup."""
    return {
        "efficiency": rollup.efficiency_timeline(now=now),
        "bandwidth": rollup.bandwidth_timeline(now=now),
        "running": rollup.running_timeline(now=now),
        "completions": rollup.completion_counts(now=now),
        "failure_codes": rollup.failure_codes,
        "segments": {seg: _digest(d) for seg, d in rollup.segments.items()},
        "narration": list(rollup.narration),
        "n_tasks": rollup.n_tasks,
        "n_succeeded": rollup.n_succeeded(),
        "n_failed": rollup.n_failed(),
        "overall_efficiency": rollup.overall_efficiency(),
        "makespan": rollup.max_finished or 0.0,
        "output_bytes": rollup.output_bytes,
        "flow_bytes": rollup.flow_bytes,
        "n_flows": rollup.n_flows,
        "n_flows_failed": rollup.n_flows_failed,
        "chaos": (
            rollup.faults_injected,
            rollup.faults_cleared,
            rollup.evictions,
            rollup.tasks_exhausted,
            rollup.fallbacks,
            rollup.resumes,
            rollup.blacklisted_hosts,
        ),
        "integrity": (
            rollup.integrity_commits,
            rollup.integrity_corrupt,
            rollup.integrity_quarantined,
            rollup.integrity_orphans,
            rollup.duplicates_dropped,
        ),
        "alerts": (rollup.alerts_raised, rollup.alerts_cleared),
    }


def _mismatches(name, got, want):
    """Paths where *got* differs from *want*: arrays must match in dtype
    and bits, containers in order, scalars under ``==``."""
    if isinstance(want, np.ndarray):
        if not isinstance(got, np.ndarray) or got.dtype != want.dtype:
            return [f"{name}: dtype {getattr(got, 'dtype', type(got))} != {want.dtype}"]
        return [] if np.array_equal(got, want) else [f"{name}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{name}: keys {list(got)} != {list(want)}"]
        return [p for k in want for p in _mismatches(f"{name}[{k}]", got[k], want[k])]
    if isinstance(want, (tuple, list)):
        if len(got) != len(want):
            return [f"{name}: length {len(got)} != {len(want)}"]
        return [
            p for i, (g, w) in enumerate(zip(got, want))
            for p in _mismatches(f"{name}[{i}]", g, w)
        ]
    return [] if got == want else [f"{name}: {got!r} != {want!r}"]


def assert_views_match(metrics, rollup, now=None):
    got = dashboard_views(metrics, rollup.bin_width, now)
    want = reference_views(rollup, now)
    assert got.keys() == want.keys()
    assert _mismatches("views", got, want) == []


def assert_views_match_at_every_now(metrics, rollup, end):
    bw = rollup.bin_width
    for now in (None, 0.5 * end, end + bw, 1.37 * end + 11.0):
        assert_views_match(metrics, rollup, now)


# ------------------------------------------------------------ full runs
def _run_with_both_folds(prepare, **kwargs):
    """Run a scenario with a RunMetrics and reference Rollups attached to
    its bus; returns (metrics, rollups, end time)."""
    env = Environment()
    metrics = RunMetrics()
    BusCollector(env.bus, metrics)
    rollups = [Rollup(bw) for bw in BIN_WIDTHS]
    for rollup in rollups:
        BusCollector(env.bus, rollup)
    prepared = prepare(env=env, **kwargs)
    execute_prepared(prepared, settle=300.0)
    return metrics, rollups, float(env.now)


@pytest.fixture(scope="module")
def quickstart_folds():
    return _run_with_both_folds(prepare_quickstart, events=20_000, workers=4, seed=11)


@pytest.fixture(scope="module")
def chaos_folds():
    return _run_with_both_folds(prepare_chaos, files=20, machines=6, cores=4, seed=5)


@pytest.fixture(scope="module")
def corruption_folds():
    return _run_with_both_folds(
        prepare_chaos,
        files=20,
        machines=6,
        cores=4,
        seed=9,
        bit_rot=2,
        truncate=2,
        duplicates=2,
    )


def test_quickstart_parity(quickstart_folds):
    metrics, rollups, end = quickstart_folds
    assert metrics.n_tasks > 0  # the run actually ran
    for rollup in rollups:
        assert_views_match_at_every_now(metrics, rollup, end)


def test_chaos_parity(chaos_folds):
    metrics, rollups, end = chaos_folds
    assert metrics.evictions_seen + metrics.n_faults_injected > 0
    for rollup in rollups:
        assert_views_match_at_every_now(metrics, rollup, end)


def test_corruption_parity(corruption_folds):
    metrics, rollups, end = corruption_folds
    assert metrics.has_integrity_data()
    assert len(metrics.duplicates_dropped) > 0
    for rollup in rollups:
        assert_views_match_at_every_now(metrics, rollup, end)


def test_master_crash_parity():
    """One fold on the environment's bus covers the crashed run and the
    warm-restarted one, as the reference did."""
    env = Environment()
    metrics = RunMetrics()
    BusCollector(env.bus, metrics)
    rollup = Rollup()
    BusCollector(env.bus, rollup)
    prepared = prepare_chaos(
        files=20, machines=6, cores=4, seed=3, master_crash_at=2000.0, env=env
    )
    execute_prepared(prepared, settle=60.0)
    assert prepared.run.crashed
    resumed = warm_restart(prepared)
    execute_prepared(resumed, settle=300.0)
    assert metrics.recovery_resumes
    assert metrics.n_tasks > resumed.run.metrics.n_tasks
    assert_views_match_at_every_now(metrics, rollup, float(env.now))


def test_efficiency_timeline_bit_identical(quickstart_folds):
    """Spot-check the headline timeline: same dtype, same edges, same bits."""
    metrics, rollups, _end = quickstart_folds
    for rollup in rollups:
        r_starts, r_values = rollup.efficiency_timeline()
        m_starts, m_values = metrics.efficiency_timeline(rollup.bin_width)
        assert r_starts.dtype == m_starts.dtype
        assert np.array_equal(r_starts, m_starts)
        assert np.array_equal(r_values, m_values)  # exact, not allclose


def test_bandwidth_timeline_bit_identical_per_class(chaos_folds):
    metrics, rollups, _end = chaos_folds
    for rollup in rollups:
        assert rollup.flow_bytes  # the run moved data
        r_starts, r_by_class = rollup.bandwidth_timeline()
        m_starts, m_by_class = metrics.bandwidth_timeline(rollup.bin_width)
        assert np.array_equal(r_starts, m_starts)
        assert list(r_by_class) == list(m_by_class)
        for klass in m_by_class:
            assert np.array_equal(r_by_class[klass], m_by_class[klass]), klass


# ----------------------------------------------------------- event streams
#: Segment durations: zero, sub-millisecond (the digests' underflow bin),
#: longer, and decimals whose float sums depend on the order of addition.
durations = st.just(0.0) | st.floats(1e-4, 5e3) | st.sampled_from([0.1, 0.2, 0.3, 0.6])


@st.composite
def _event(draw, t, bw, seq):
    """One bus event at time *t*, of any topic the dashboard reads."""
    kind = draw(st.sampled_from(
        ["task", "task", "task", "flow", "flow", "fail", "running", "chaos", "integrity"]
    ))
    ev = {"t": t}
    if kind == "task":
        lost = draw(st.sampled_from([0.0, 12.5, 600.0]))
        ev.update(
            topic=Topics.TASK_RESULT,
            workflow="wf",
            task_id=seq,
            category=draw(st.sampled_from(["analysis", "analysis", "merge"])),
            exit_code=draw(st.sampled_from([0, 0, 0, 143, 8020, 8001, 7])),
            submitted=0.0,
            started=t - min(t, draw(durations)),
            finished=t,
            segments=draw(st.fixed_dictionaries(
                {"cpu": durations},
                optional=dict.fromkeys(["io", "setup", "stage_in", "stage_out"], durations),
            )),
            wq_stage_in=0.25 * lost,
            wq_stage_out=0.5,
            lost_time=lost,
            output_bytes=draw(st.sampled_from([0.0, 0.0, 1e6, 3.3e9])),
        )
    elif kind in ("flow", "fail"):
        ok = kind == "flow"
        # zero-length, short, and spanning several bins
        elapsed = min(t, draw(st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.0, 4.0 * bw)))
        nbytes = draw(st.sampled_from([0.0, 1.0]) | st.floats(1.0, 1e10))
        ev.update(
            topic=Topics.NET_FLOW if ok else Topics.NET_FLOW_FAIL,
            cls=draw(st.sampled_from(["wan", "xrootd", "stage-out"])),
            elapsed=elapsed,
            **{"nbytes" if ok else "moved": nbytes},
        )
        if draw(st.booleans()):
            ev["started"] = t - elapsed
    elif kind == "running":
        ev["topic"] = draw(st.sampled_from(
            [Topics.TASK_START, Topics.TASK_DONE, Topics.TASK_REQUEUE]
        ))
        if draw(st.integers(0, 3)):  # some samples carry no count
            ev["running"] = draw(st.integers(0, 50))
    elif kind == "chaos":
        ev.update(
            topic=draw(st.sampled_from([
                Topics.FAULT_INJECT, "fault.clear", Topics.HOST_BLACKLIST,
                Topics.RECOVERY_FALLBACK, Topics.RECOVERY_RESUME,
                Topics.ALERT_RAISE, Topics.ALERT_CLEAR, Topics.EVICTION,
                Topics.TASK_EXHAUSTED,
            ])),
            kind=draw(st.sampled_from(["wan_flap", "squid_crash"])),
            host=draw(st.sampled_from(["w1", "w2", "w3"])),
            active=draw(st.booleans()),
            workflow="wf",
            detector="eviction_storm",
            severity=draw(st.sampled_from(["warning", "critical"])),
        )
    else:
        ev["topic"] = draw(st.sampled_from([
            Topics.INTEGRITY_CORRUPT, Topics.INTEGRITY_QUARANTINE,
            Topics.INTEGRITY_COMMIT, Topics.INTEGRITY_ORPHAN,
            Topics.TASK_DUPLICATE,
        ]))
    return ev


@st.composite
def event_streams(draw):
    """(bin width, events in non-decreasing time, last event time).

    About half the times sit exactly on a bin edge, so several events
    often share the last edge of the run.
    """
    bw = draw(st.sampled_from([0.5, 7.0, 60.0, 1800.0]) | st.floats(0.25, 900.0))
    size = draw(st.integers(0, 60))
    times = sorted(draw(st.lists(
        st.integers(0, 4).map(lambda k: k * bw) | st.floats(1e-6 * bw, 4.0 * bw),
        min_size=size,
        max_size=size,
    )))
    events = [draw(_event(t, bw, seq)) for seq, t in enumerate(times)]
    return bw, events, times[-1] if times else 0.0


def _analysis(t, cpu):
    return {
        "t": t, "topic": Topics.TASK_RESULT, "workflow": "wf", "task_id": 0,
        "category": "analysis", "exit_code": 0, "submitted": 0.0,
        "started": t - 60.0, "finished": t, "segments": {"cpu": cpu},
    }


@settings(max_examples=200, deadline=None)
# Two tasks ending on the last bin edge after one inside the last bin:
# the overflow must be summed on its own before it folds in.
@example(
    stream=(60.0, [_analysis(70.0, 0.1), _analysis(100.0, 0.2),
                   _analysis(120.0, 0.3), _analysis(120.0, 0.6)], 120.0),
    when="none",
    frac=0.0,
)
@given(
    stream=event_streams(),
    when=st.sampled_from(["none", "before", "after"]),
    frac=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0),
)
def test_stream_views_match_reference(stream, when, frac):
    """*now* is None, inside the run (a fraction of its end) or past it
    (by up to five bins)."""
    bw, events, end = stream
    metrics, rollup = RunMetrics(), Rollup(bw)
    replay(events, metrics, rollup)
    now = {"none": None, "before": end * frac / 5.0, "after": end + frac * bw}[when]
    assert_views_match(metrics, rollup, now)


def test_narration_keeps_the_latest_chaos_events():
    """More chaos events than the panel lists: both keep the latest."""
    events = [
        {"t": float(i), "topic": Topics.HOST_BLACKLIST, "host": f"w{i}", "active": True}
        for i in range(150)
    ]
    metrics, rollup = RunMetrics(), Rollup()
    replay(events, metrics, rollup)
    assert len(metrics.chaos_log) == 150
    assert dash._narration(metrics) == list(rollup.narration)
    assert dash._narration(metrics)[0] == (86.0, Topics.HOST_BLACKLIST, "w86")


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
    live = [RunMetrics(), SpanStreamBuilder()]
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
    [RunMetrics, WatchEngine, SpanStreamBuilder],
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


def test_rollup_collector_workflow_filter_matches_buscollector():
    """The one workflow filter: both folds behind a filtered collector
    accept exactly the same events, and unattributed events pass."""
    bus = Environment().bus
    exact, reference = RunMetrics(), Rollup()
    BusCollector(bus, exact, workflows=["wf-a"])
    BusCollector(bus, reference, workflows=["wf-a"])
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
    bus.port(Topics.TASK_RESULT).emit_at(100.0, workflow="wf-a", task_id=1,
                                         **fields)
    bus.port(Topics.TASK_RESULT).emit_at(100.0, workflow="wf-b", task_id=2,
                                         **fields)
    bus.port(Topics.EVICTION).emit_at(5.0, workflows=["wf-b"], slot="s")
    assert exact.n_tasks == reference.n_tasks == 1
    assert exact.evictions_seen == reference.evictions == 0
    bus.port(Topics.EVICTION).emit_at(6.0, slot="s")  # unattributed
    assert exact.evictions_seen == reference.evictions == 1
    assert_views_match(exact, reference)


# ------------------------------------------------------------- degenerates
def test_empty_run_parity():
    """No events at all: every view is empty or zero on both folds."""
    assert_views_match(RunMetrics(), Rollup())
    assert_views_match(RunMetrics(), Rollup(), now=5000.0)
    starts, values = RunMetrics().efficiency_timeline(1800.0)
    assert starts.size == values.size == 0


def _pair():
    bus = Environment().bus
    exact, reference = RunMetrics(), Rollup()
    BusCollector(bus, exact)
    BusCollector(bus, reference)
    return bus, exact, reference


def test_single_event_parity():
    """One task result: a single occupied window, still bit-identical."""
    bus, exact, reference = _pair()
    bus.port(Topics.TASK_RESULT).emit_at(
        90.0,
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
    assert exact.n_tasks == reference.n_tasks == 1
    assert_views_match(exact, reference)


def test_single_instantaneous_flow_parity():
    """A zero-duration flow lands its full volume in one bin on both
    folds (the rate*overlap spread degenerates to nbytes/bw)."""
    bus, exact, reference = _pair()
    bus.port(Topics.NET_FLOW).emit_at(
        42.0,
        klass="stage-out",
        nbytes=1e9,
        elapsed=0.0,
        src="worker",
        dst="se",
    )
    assert len(exact.flows) == reference.n_flows == 1
    assert_views_match(exact, reference)


def test_event_at_exact_bin_boundary_parity():
    """Tasks and flows ending exactly at the run's end, on a bin edge,
    land one bin past the axis.  They fold into the last bin after that
    bin's own sum, as the reference's overflow cell did; summing them in
    arrival order instead would give 1.2000000000000002 s of CPU here,
    not 1.2 s."""
    bus, exact, reference = _pair()
    for task_id, (finished, cpu) in enumerate(
        ((1800.0, 0.1), (3000.0, 0.2), (3600.0, 0.3), (3600.0, 0.6)), start=1
    ):
        bus.port(Topics.TASK_RESULT).emit_at(
            finished,
            workflow="wf",
            task_id=task_id,
            category="analysis",
            exit_code=0,
            submitted=0.0,
            started=finished - 600.0,
            finished=finished,
            segments={"cpu": cpu},
            wq_stage_in=0.0,
            wq_stage_out=0.0,
            lost_time=0.0,
            output_bytes=0.0,
        )
    # Per-bin flow volumes 0.1, 0.2 (bin 1) then 0.3, 0.6 at the end.
    for started, nbytes in ((1800.0, 0.1), (2000.0, 0.2), (3600.0, 0.3), (3600.0, 0.6)):
        bus.port(Topics.NET_FLOW).emit_at(
            3600.0 if started == 3600.0 else started + 1.0,
            klass="stage-out",
            nbytes=nbytes * 1800.0,
            started=started,
            elapsed=3600.0 - started if started == 3600.0 else 1.0,
        )
    assert exact.efficiency_timeline(1800.0)[1][1] == 1.2 / 2400.0
    assert_views_match(exact, reference)
