"""The ops dashboard renderer and its CLI entry points (DESIGN.md §13).

``python -m repro dash`` must render a complete, self-contained HTML
document from both a live scenario run and a replayed JSONL recording,
with every §5 diagnosis evidence link resolving to an anchored span
row, and the two paths must render the same page for the same run.
The renderer itself is also exercised directly on a shared chaos run
and on an empty fold.
"""

import io
import re

import pytest

from repro.cli import main
from repro.desim import Environment, Topics
from repro.monitor import (
    BusCollector,
    RunMetrics,
    SpanTracer,
    render_dashboard,
    write_dashboard,
)
from repro.scenarios import execute_prepared, prepare_chaos


PANELS = (
    "Task state timeline",
    "Network bandwidth by traffic class",
    "Chaos &amp; recovery",
    "Output integrity &amp; exactly-once",
    "Segment durations (streaming digests)",
    "Telemetry",
)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def chaos_artifacts():
    """One small faulty run shared by the rendering tests."""
    env = Environment()
    tracer = SpanTracer(env)
    prepared = prepare_chaos(
        files=15, machines=6, cores=4, seed=7,
        bit_rot=1, truncate=1, duplicates=1, env=env,
    )
    execute_prepared(prepared, settle=300.0)
    tracer.finalize()
    return prepared.run.metrics, list(tracer.spans), env


# -------------------------------------------------------------- renderer
def test_render_is_complete_standalone_html(chaos_artifacts):
    metrics, spans, env = chaos_artifacts
    html = render_dashboard(
        metrics, spans=spans, bus_stats=env.bus.stats(),
        title="chaos <test> run",
    )
    assert html.startswith("<!DOCTYPE html>")
    assert html.rstrip().endswith("</html>")
    for panel in PANELS:
        assert panel in html, panel
    # Title is escaped, not interpolated raw.
    assert "chaos &lt;test&gt; run" in html
    assert "<test>" not in html
    # No external fetches: a single self-contained file.
    assert "http://" not in html and "https://" not in html
    assert "<script" not in html


def test_every_evidence_link_resolves_to_an_anchor(chaos_artifacts):
    metrics, spans, env = chaos_artifacts
    html = render_dashboard(metrics, spans=spans)
    links = re.findall(r'href="#(span-[^"]+)"', html)
    anchors = re.findall(r"id='(span-[^']+)'", html)
    assert links, "faulty run produced no evidence links"
    assert set(links) <= set(anchors)


def test_render_empty_rollup_degenerates_gracefully():
    """A fold that saw no events still renders a whole page."""
    html = render_dashboard(RunMetrics(), title="empty")
    assert html.startswith("<!DOCTYPE html>")
    assert "Telemetry" in html
    assert "no heuristic fired" in html


def test_write_dashboard_round_trips(tmp_path, chaos_artifacts):
    metrics, spans, env = chaos_artifacts
    path = str(tmp_path / "dash.html")
    assert write_dashboard(path, metrics, spans=spans) == path
    assert open(path, encoding="utf-8").read().startswith("<!DOCTYPE html>")


def test_write_dashboard_is_atomic_under_concurrent_reads(tmp_path, chaos_artifacts):
    """ISSUE 10 satellite: a reader interleaved with periodic re-renders
    must only ever observe complete documents (temp file + os.replace),
    never a torn half-write."""
    import threading

    metrics, spans, env = chaos_artifacts
    path = str(tmp_path / "live.html")
    write_dashboard(path, metrics, title="seed render")

    torn = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            try:
                text = open(path, encoding="utf-8").read()
            except FileNotFoundError:  # pragma: no cover - would be a tear
                torn.append("missing file during replace")
                continue
            if not (text.startswith("<!DOCTYPE html>")
                    and text.rstrip().endswith("</html>")):
                torn.append(f"torn read: {len(text)} bytes")

    t = threading.Thread(target=reader)
    t.start()
    try:
        for i in range(30):
            write_dashboard(path, metrics, title=f"refresh {i}",
                            now=float(i * 1800))
    finally:
        stop.set()
        t.join()
    assert torn == []
    assert not list(tmp_path.glob(".dash-*")), "temp files leaked"


def test_write_dashboard_cleans_temp_on_render_failure(tmp_path):
    class Boom(RunMetrics):
        def efficiency_timeline(self, bin_width, now=None):
            raise RuntimeError("mid-render failure")

    # Render happens before the temp file exists, so the destination is
    # simply never created; a failing *write* cleans its temp file up.
    with pytest.raises(RuntimeError):
        write_dashboard(str(tmp_path / "x.html"), Boom())
    assert not list(tmp_path.glob(".dash-*"))


# -------------------------------------------------------------- CLI: live
def test_cli_dash_live_renders_every_panel(tmp_path):
    out_path = str(tmp_path / "live.html")
    code, text = run_cli([
        "dash", "--scenario", "quickstart",
        "--param", "events=20000", "--param", "workers=4",
        "--out", out_path,
    ])
    assert code == 0
    assert "ran scenario 'quickstart'" in text
    assert f"dashboard written to {out_path}" in text
    html = open(out_path, encoding="utf-8").read()
    for panel in PANELS:
        assert panel in html, panel


def test_cli_dash_unknown_scenario_exits_with_catalog():
    with pytest.raises(SystemExit, match="unknown scenario"):
        run_cli(["dash", "--scenario", "nope"])


def test_cli_dash_non_des_scenario_rejected():
    with pytest.raises(SystemExit, match="not a DES run scenario"):
        run_cli(["dash", "--scenario", "tasksize"])


def test_cli_dash_bad_param_rejected():
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        run_cli(["dash", "--param", "events"])


# ------------------------------------------------------------ CLI: replay
_BUS_TILES = ("bus published", "bus delivered", "subscriptions", "ports")


def mask_run_identity(html):
    """Blank what only a live run's page carries: the title (in
    ``<title>`` and ``<h1>``) and the four bus tiles."""
    html = re.sub(r"<title>.*?</title>", "<title></title>", html)
    html = re.sub(r"<h1>.*?</h1>", "<h1></h1>", html)
    for key in _BUS_TILES:
        html = re.sub(
            r'<div class="tile"><div class="v">[^<]*</div>'
            rf'<div class="k">{key}</div></div>',
            "",
            html,
        )
    return html


def test_cli_dash_replay_matches_live(tmp_path):
    """The live --dash-out page and the dash --replay page of its
    recording are the same page, once the run's identity is masked."""
    runs = {
        "quickstart": ["quickstart", "--events", "20000", "--workers", "4"],
        "chaos": ["chaos", "--files", "30", "--machines", "8",
                  "--bit-rot", "2", "--truncate", "2", "--duplicates", "2"],
    }
    for name, argv in runs.items():
        events_path = str(tmp_path / f"{name}.jsonl")
        live_path = str(tmp_path / f"{name}-live.html")
        replay_path = str(tmp_path / f"{name}-replay.html")
        code, _ = run_cli(
            argv + ["--events-out", events_path, "--dash-out", live_path]
        )
        assert code == 0
        code, text = run_cli(["dash", "--replay", events_path, "--out", replay_path])
        assert code == 0
        assert f"dashboard written to {replay_path}" in text
        live = open(live_path, encoding="utf-8").read()
        replay = open(replay_path, encoding="utf-8").read()
        for key in _BUS_TILES:
            assert key in live, (name, key)
        for panel in PANELS:
            assert panel in live, (name, panel)
        assert mask_run_identity(live) == mask_run_identity(replay), name


def test_cli_dash_replay_missing_file_exits():
    with pytest.raises(SystemExit):
        run_cli(["dash", "--replay", "/nonexistent/events.jsonl"])


# --------------------------------------------------- telemetry truthfulness
def test_telemetry_panel_reports_true_bus_totals():
    """The dashboard's bus figures must include port/raw emits (the
    fast paths legacy counters used to miss)."""
    bus = Environment().bus
    metrics = RunMetrics()
    BusCollector(bus, metrics)  # subscribes the full monitoring topic set
    port = bus.port(Topics.TASK_START)
    for i in range(5):
        port.emit(running=i)
    stats = bus.stats()
    assert stats["published"] == 5
    assert stats["delivered"] > 0
    html = render_dashboard(metrics, bus_stats=stats)
    assert f"{stats['published']:,}" in html or str(stats["published"]) in html
