#!/usr/bin/env python
"""The ops dashboard, rendered live and from a recording (paper §5).

A small chaos run (bit-rot, truncated transfers, duplicate deliveries)
executes with a :class:`~repro.monitor.RunMetrics` fold (through a
:class:`~repro.monitor.BusCollector`), a
:class:`~repro.monitor.SpanTracer` and a JSONL recording attached to its
bus.  The fold renders the dashboard into
``benchmarks/out/dashboard.html``: per-class bandwidth strips,
task-state timelines, chaos/integrity panels, and click-through from
each §5 ``diagnose()`` finding to its evidence spans.

The recording is then replayed into a fresh fold and span builder and
rendered again.  Once the title and the four bus tiles are masked (a
replay has no live bus), the two pages must be the same string: one fold
serves both paths.  CI greps the ``DASH REPLAY OK`` line.

    python examples/dashboard_run.py
"""

import os
import re
import tempfile

from repro.desim import Environment
from repro.monitor import (
    BusCollector,
    JsonlSink,
    RunMetrics,
    SpanStreamBuilder,
    SpanTracer,
    load_events,
    render_dashboard,
    replay,
    write_dashboard,
)
from repro.scenarios import execute_prepared, prepare_chaos

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "out")
BUS_TILES = ("bus published", "bus delivered", "subscriptions", "ports")


def mask_run_identity(html: str) -> str:
    """Blank the title (``<title>`` and ``<h1>``) and the bus tiles."""
    html = re.sub(r"<title>.*?</title>", "<title></title>", html)
    html = re.sub(r"<h1>.*?</h1>", "<h1></h1>", html)
    for key in BUS_TILES:
        html = re.sub(
            r'<div class="tile"><div class="v">[^<]*</div>'
            rf'<div class="k">{key}</div></div>',
            "",
            html,
        )
    return html


def render_live(events_path: str) -> str:
    """Run a faulty data run, record it and render its dashboard."""
    env = Environment()
    sink = JsonlSink(events_path)
    env.bus.attach(sink)
    tracer = SpanTracer(env)
    metrics = RunMetrics()
    BusCollector(env.bus, metrics)
    prepared = prepare_chaos(
        files=30,
        machines=8,
        cores=4,
        seed=7,
        bit_rot=2,
        truncate=2,
        duplicates=2,
        env=env,
    )
    execute_prepared(prepared, settle=300.0)
    tracer.finalize()
    sink.close()

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "dashboard.html")
    write_dashboard(
        path,
        metrics,
        spans=list(tracer.spans),
        bus_stats=env.bus.stats(),
        title="chaos run (examples/dashboard_run.py)",
    )
    size = os.path.getsize(path)
    assert size > 4096, f"dashboard suspiciously small ({size} bytes)"
    html = open(path, encoding="utf-8").read()
    for marker in ("Task state timeline", "Network bandwidth", "Telemetry"):
        assert marker in html, f"dashboard missing panel {marker!r}"
    print(
        f"DASHBOARD WRITTEN {path} ({size} bytes, {metrics.n_tasks} tasks, "
        f"{sink.count} events recorded)"
    )
    return html


def render_replay(events_path: str) -> str:
    """Rebuild the fold and the spans from the recording and render."""
    metrics, builder = RunMetrics(), SpanStreamBuilder()
    replay(load_events(events_path), metrics, builder)
    return render_dashboard(
        metrics, spans=builder.result(), title=f"replay of {events_path}"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        events_path = os.path.join(tmp, "events.jsonl")
        live = mask_run_identity(render_live(events_path))
        replayed = mask_run_identity(render_replay(events_path))
    assert live == replayed, "the replayed dashboard differs from the live one"
    print(f"DASH REPLAY OK bytes={len(live)}")


if __name__ == "__main__":
    main()
