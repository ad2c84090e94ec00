"""The live run-health engine (``repro.monitor.watch``, DESIGN.md §15).

Two layers: synthetic-event unit tests of the engine's window closure,
hysteresis, dedup, and evidence pooling (no simulation, so thresholds
are exercised precisely), then scenario-level gates — a clean quickstart
must stay alert-silent while the chaos barrage raises the §5 detectors
with evidence span ids that resolve against the causal trace.
"""

import pytest

from repro.desim import Environment
from repro.desim.bus import Topics
from repro.monitor import (
    DEFAULT_DETECTORS,
    BusCollector,
    DetectorSpec,
    RunMetrics,
    RunWatcher,
    SpanTracer,
    WatchEngine,
    render_report,
)
from repro.scenarios import execute_prepared, prepare_chaos, prepare_quickstart


# ------------------------------------------------------------------ helpers
def storm_only(**overrides) -> WatchEngine:
    """An engine with just the eviction-storm detector, window=100s."""
    spec = dict(
        id="eviction_storm", severity="warning",
        raise_above=8.0, clear_below=2.0,
        raise_windows=1, clear_windows=1, evidence="eviction",
    )
    spec.update(overrides)
    return WatchEngine(window=100.0, detectors=[DetectorSpec(**spec)])


def feed_evictions(engine: WatchEngine, t0: float, n: int) -> None:
    for i in range(n):
        engine.ingest(Topics.EVICTION, t0 + i * 0.1, {"machine": f"m{i}"})


# ------------------------------------------------------------------ units
def test_windows_close_on_event_time_only():
    eng = WatchEngine(window=100.0)
    eng.ingest(Topics.CACHE_HIT, 0.0, {})
    eng.ingest(Topics.CACHE_HIT, 99.9, {})
    assert eng.windows_closed == 0  # trailing partial never evaluated
    eng.ingest(Topics.CACHE_HIT, 100.0, {})
    assert eng.windows_closed == 1
    eng.ingest(Topics.CACHE_HIT, 350.0, {})  # skips two boundaries
    assert eng.windows_closed == 3


def test_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        WatchEngine(window=0.0)


def test_storm_raises_then_clears_with_hysteresis():
    eng = storm_only()
    feed_evictions(eng, 10.0, 9)
    eng.ingest(Topics.CACHE_HIT, 100.0, {})  # closes window 0
    raised = eng.alerts_raised()
    assert len(raised) == 1
    a = raised[0]
    assert a["alert"] == "eviction_storm-1"
    assert a["detector"] == "eviction_storm"
    assert a["severity"] == "warning"
    assert a["window"] == 0
    assert a["level"] == 9.0
    assert eng.active_alerts() == ["eviction_storm-1"]
    # Still noisy (above clear_below): no clear, no duplicate raise.
    feed_evictions(eng, 110.0, 5)
    eng.ingest(Topics.CACHE_HIT, 200.0, {})
    assert len(eng.alerts) == 1
    # A quiet window clears it.
    eng.ingest(Topics.CACHE_HIT, 300.0, {})
    cleared = eng.alerts_cleared()
    assert len(cleared) == 1
    assert cleared[0]["alert"] == "eviction_storm-1"
    assert eng.active_alerts() == []


def test_realert_gets_a_fresh_sequence_number():
    eng = storm_only()
    feed_evictions(eng, 10.0, 9)
    eng.ingest(Topics.CACHE_HIT, 100.0, {})   # raise -1
    eng.ingest(Topics.CACHE_HIT, 200.0, {})   # clear -1
    feed_evictions(eng, 210.0, 9)
    eng.ingest(Topics.CACHE_HIT, 300.0, {})   # raise -2
    ids = [a["alert"] for a in eng.alerts_raised()]
    assert ids == ["eviction_storm-1", "eviction_storm-2"]


def test_raise_requires_consecutive_windows():
    eng = storm_only(raise_windows=2)
    feed_evictions(eng, 10.0, 9)
    eng.ingest(Topics.CACHE_HIT, 100.0, {})   # 1 hot window: not yet
    assert not eng.alerts
    eng.ingest(Topics.CACHE_HIT, 200.0, {})   # quiet window resets streak
    feed_evictions(eng, 210.0, 9)
    eng.ingest(Topics.CACHE_HIT, 300.0, {})   # hot again: streak = 1
    assert not eng.alerts
    feed_evictions(eng, 310.0, 9)
    eng.ingest(Topics.CACHE_HIT, 400.0, {})   # second consecutive: raise
    assert len(eng.alerts_raised()) == 1


def test_stuck_campaign_needs_sustained_silence_with_work_pending():
    eng = WatchEngine(window=100.0)
    eng.ingest(Topics.TASK_START, 5.0, {"running": 4})
    # Three windows with zero completions while tasks are running.
    for t in (100.0, 200.0, 300.0):
        eng.ingest(Topics.CACHE_HIT, t, {})
    raised = eng.alerts_raised()
    assert [a["detector"] for a in raised] == ["stuck_campaign"]
    assert raised[0]["severity"] == "critical"


def test_completions_keep_stuck_campaign_silent():
    eng = WatchEngine(window=100.0)
    eng.ingest(Topics.TASK_START, 5.0, {"running": 4})
    for w in range(6):
        eng.ingest(Topics.TASK_RESULT, w * 100.0 + 50.0, {"exit_code": 0})
        eng.ingest(Topics.CACHE_HIT, (w + 1) * 100.0, {})
    assert not eng.alerts


def test_quarantine_spike_with_instant_span_evidence():
    eng = WatchEngine(window=100.0)
    eng.ingest(
        Topics.SPAN_START, 40.0,
        {"span": 7, "trace": 3, "name": Topics.INTEGRITY_QUARANTINE},
    )
    eng.ingest(Topics.INTEGRITY_QUARANTINE, 40.0, {"name": "out.root"})
    eng.ingest(Topics.CACHE_HIT, 100.0, {})
    raised = eng.alerts_raised()
    assert [a["detector"] for a in raised] == ["quarantine_spike"]
    evidence = raised[0]["evidence"]
    assert {"trace": 3, "span": 7, "name": Topics.INTEGRITY_QUARANTINE,
            "status": "instant"} in evidence


def test_eviction_evidence_from_attempt_spans():
    eng = storm_only()
    eng.ingest(Topics.SPAN_START, 5.0,
               {"span": 11, "trace": 2, "name": "attempt"})
    eng.ingest(Topics.SPAN_END, 8.0, {"span": 11, "status": "eviction"})
    feed_evictions(eng, 10.0, 9)
    eng.ingest(Topics.CACHE_HIT, 100.0, {})
    evidence = eng.alerts_raised()[0]["evidence"]
    assert {"trace": 2, "span": 11, "name": "attempt",
            "status": "eviction"} in evidence


def test_evidence_pools_are_bounded():
    eng = storm_only()
    for i in range(50):
        eng.ingest(Topics.SPAN_START, 1.0 + i,
                   {"span": i, "trace": 1, "name": "attempt"})
        eng.ingest(Topics.SPAN_END, 2.0 + i, {"span": i, "status": "eviction"})
    feed_evictions(eng, 60.0, 9)
    eng.ingest(Topics.CACHE_HIT, 100.0, {})
    evidence = eng.alerts_raised()[0]["evidence"]
    assert len(evidence) == 5  # bounded deque: most recent five
    assert evidence[-1]["span"] == 49
    assert not eng._span_names  # ended spans are popped


def test_alert_topics_are_not_watch_inputs():
    assert Topics.ALERT_RAISE not in WatchEngine.TOPICS
    assert Topics.ALERT_CLEAR not in WatchEngine.TOPICS


def test_default_catalogue_covers_the_section5_heuristics():
    ids = {d.id for d in DEFAULT_DETECTORS}
    assert ids == {
        "throughput_collapse", "eviction_storm", "blacklist_saturation",
        "cache_degradation", "merge_backlog", "stuck_campaign",
        "quarantine_spike",
    }
    for d in DEFAULT_DETECTORS:
        assert d.severity in ("critical", "warning")
        assert d.raise_above > d.clear_below or d.clear_below == 0.0


# ------------------------------------------------------------------ scenarios
@pytest.fixture(scope="module")
def chaos_watch():
    """One chaos run with the full observer stack attached: a watcher,
    a tracer and a dashboard fold beside the run's own."""
    env = Environment()
    tracer = SpanTracer(env)
    dash_fold = RunMetrics()
    BusCollector(env.bus, dash_fold)
    watcher = RunWatcher(env.bus)
    prepared = prepare_chaos(files=60, machines=12, cores=4, seed=5, env=env)
    execute_prepared(prepared, settle=300.0)
    tracer.finalize()
    return prepared.run, watcher, dash_fold, tracer


def test_clean_quickstart_is_alert_silent():
    env = Environment()
    watcher = RunWatcher(env.bus)
    prepared = prepare_quickstart(events=200_000, workers=8, seed=11, env=env)
    execute_prepared(prepared, settle=300.0)
    assert watcher.engine.windows_closed > 0
    assert watcher.engine.alerts == []


def test_chaos_raises_storm_and_blacklist_with_evidence(chaos_watch):
    run, watcher, dash_fold, tracer = chaos_watch
    raised = watcher.engine.alerts_raised()
    detectors = {a["detector"] for a in raised}
    assert "eviction_storm" in detectors
    assert "blacklist_saturation" in detectors
    known = {(s.trace_id, s.span_id) for s in tracer.spans}
    for a in raised:
        assert a["evidence"], f"{a['alert']} has no evidence"
        for e in a["evidence"]:
            assert (e["trace"], e["span"]) in known


def test_alerts_flow_into_metrics_rollup_and_report(chaos_watch):
    run, watcher, dash_fold, tracer = chaos_watch
    raised = len(watcher.engine.alerts_raised())
    cleared = len(watcher.engine.alerts_cleared())
    assert raised > 0
    # The run's collector and the dashboard fold both saw the published
    # alert events.
    assert run.metrics.n_alerts_raised == raised
    assert run.metrics.n_alerts_cleared == cleared
    assert dash_fold.n_alerts_raised == raised
    assert dash_fold.n_alerts_cleared == cleared
    report = render_report(run)
    assert "live run health (watch alerts)" in report
    assert "RAISE" in report
    assert "evidence:" in report


def test_watcher_samples_bus_stats_per_window(chaos_watch):
    run, watcher, dash_fold, tracer = chaos_watch
    assert len(watcher.bus_timeline) == watcher.engine.windows_closed
    published = [p for _, p, _ in watcher.bus_timeline]
    assert published == sorted(published)  # monotone counters
    times = [t for t, _, _ in watcher.bus_timeline]
    assert times == sorted(times)


def test_cli_watch_live_then_replay_byte_identical(tmp_path):
    import io

    from repro.cli import main

    def run_cli(argv):
        out = io.StringIO()
        return main(argv, out=out), out.getvalue()

    events = str(tmp_path / "events.jsonl")
    live_json = str(tmp_path / "alerts_live.json")
    replay_json = str(tmp_path / "alerts_replay.json")
    code, text = run_cli([
        "watch", "--scenario", "chaos", "--seed", "5",
        "--param", "files=60", "--param", "machines=12", "--param", "cores=4",
        "--events-out", events, "--alerts-out", live_json,
        "--refresh-every", "1800", "--fail-on-alert",
        "--out", str(tmp_path / "watch.html"),
    ])
    assert code == 1  # chaos raised alerts and --fail-on-alert was set
    assert "ALERT RAISE" in text
    assert "mid-run refreshes" in text
    html = open(tmp_path / "watch.html", encoding="utf-8").read()
    assert "Live run health" in html

    code, text = run_cli([
        "watch", "--replay", events, "--alerts-out", replay_json,
        "--out", str(tmp_path / "watch_replay.html"),
    ])
    assert code == 0
    live_bytes = open(live_json, "rb").read()
    assert live_bytes == open(replay_json, "rb").read()
    assert live_bytes  # non-empty stream


def test_cli_watch_clean_quickstart_exits_zero(tmp_path):
    import io

    from repro.cli import main

    out = io.StringIO()
    code = main([
        "watch", "--scenario", "quickstart",
        "--param", "events=20000", "--param", "workers=4",
        "--fail-on-alert", "--out", str(tmp_path / "q.html"),
    ], out=out)
    assert code == 0
    assert "alerts: 0 raised, 0 cleared" in out.getvalue()


def test_watcher_close_detaches(chaos_watch):
    env = Environment()
    watcher = RunWatcher(env.bus, window=100.0)
    env.bus.port(Topics.EVICTION).emit_at(5.0, machine="m0")
    assert watcher.engine.events_seen == 1
    watcher.close()
    env.bus.port(Topics.EVICTION).emit_at(6.0, machine="m0")
    assert watcher.engine.events_seen == 1
