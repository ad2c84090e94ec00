"""Static HTML ops dashboard rendered from a run's ``RunMetrics``.

``python -m repro dash`` turns any run — live, or replayed from a JSONL
recording — into one self-contained HTML file: headline tiles, per-class
bandwidth strips, the task-state timeline, efficiency, chaos and
integrity panels, segment-duration digests, bus telemetry, and the §5
``diagnose()`` findings with click-through links from each heuristic to
its evidence spans.

Everything is hand-rolled inline SVG/CSS — no plotting library, no
external assets, no JavaScript beyond what a static page needs (none).
Every panel reads one :class:`~repro.monitor.records.RunMetrics` fold;
the binned views are computed from its records at render time, with the
bin width the caller picks.  A span list adds evidence click-through.

Like everything under ``repro.monitor`` this module only speaks the bus
vocabulary; it never imports scheduler/batch/cvmfs/storage layers.
"""

from __future__ import annotations

import html
import os
import tempfile
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..desim.bus import Topics
from .records import RunMetrics
from .troubleshoot import diagnose

__all__ = ["render_dashboard", "write_dashboard"]

#: Chaos events listed in the chaos panel (the most recent ones).
_NARRATION_LIMIT = 64

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 0; background: #11151c; color: #d7dde6; }
h1 { font-size: 20px; margin: 0 0 2px 0; }
h2 { font-size: 14px; text-transform: uppercase; letter-spacing: .08em;
     color: #8fa1b8; border-bottom: 1px solid #2a3342; padding-bottom: 4px; }
.wrap { max-width: 1180px; margin: 0 auto; padding: 18px 22px 60px; }
.sub { color: #8fa1b8; font-size: 12px; margin-bottom: 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 14px 0 6px; }
.tile { background: #1a2230; border: 1px solid #2a3342; border-radius: 8px;
        padding: 10px 16px; min-width: 120px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { font-size: 11px; color: #8fa1b8; text-transform: uppercase;
           letter-spacing: .06em; }
.panel { background: #161c27; border: 1px solid #2a3342; border-radius: 10px;
         padding: 12px 16px; margin: 14px 0; }
.strip { margin: 10px 0 2px; }
.strip .label { font-size: 12px; color: #aab7c9; margin-bottom: 2px; }
table { border-collapse: collapse; font-size: 13px; width: 100%; }
th, td { text-align: left; padding: 3px 10px 3px 0; }
th { color: #8fa1b8; font-weight: 500; font-size: 11px;
     text-transform: uppercase; letter-spacing: .06em; }
tr:target { background: #2a3a28; }
.diag { border-left: 3px solid #e0a33b; padding: 6px 10px; margin: 8px 0;
        background: #1d2230; }
.diag .symptom { font-weight: 600; color: #e0a33b; }
.diag a { color: #7db7e8; text-decoration: none; }
.ok { color: #72c585; } .bad { color: #e06c5b; } .warn { color: #e0a33b; }
.mono { font-family: ui-monospace, 'SF Mono', Menlo, monospace; font-size: 12px; }
"""


# -- formatting helpers -----------------------------------------------------
def _esc(x) -> str:
    return html.escape(str(x))


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB", "PB"):
        if abs(n) < 1024.0 or unit == "PB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0
    return f"{n:.1f} PB"  # pragma: no cover - unreachable


def _fmt_secs(s: float) -> str:
    if s >= 2 * 3600:
        return f"{s / 3600:.1f} h"
    if s >= 120:
        return f"{s / 60:.1f} min"
    return f"{s:.1f} s"


# -- render-time views -------------------------------------------------------
class SegmentDigest:
    """Fixed-bin log-spaced duration histogram: O(1) memory per segment.

    Durations from 1 ms to ~11.5 days land in 54 log-spaced bins (six
    per decade); shorter/longer samples hit the under/overflow bins.
    Alongside the histogram the digest keeps exact count / sum / min /
    max, so the mean is exact and quantiles are bin-resolution
    estimates (within one bin edge, ~47% relative width).
    """

    LO = 1e-3
    HI = 1e6
    BINS = 54  # six per decade across nine decades
    #: Bin-index terms of :meth:`add`, computed once.
    _LOG_LO = np.log10(LO)
    _SPAN = BINS / (np.log10(HI) - np.log10(LO))

    __slots__ = ("counts", "n", "total", "min", "max")

    def __init__(self) -> None:
        # [underflow, BINS regular bins, overflow]
        self.counts = np.zeros(self.BINS + 2, dtype=np.int64)
        self.n = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    @classmethod
    def edges(cls) -> np.ndarray:
        """The regular bins' edges (length ``BINS + 1``)."""
        return np.logspace(np.log10(cls.LO), np.log10(cls.HI), cls.BINS + 1)

    def add(self, x: float) -> None:
        x = float(x)
        if not np.isfinite(x):
            return
        self.n += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if x < self.LO:
            self.counts[0] += 1
        elif x >= self.HI:
            self.counts[-1] += 1
        else:
            i = int((np.log10(x) - self._LOG_LO) * self._SPAN)
            self.counts[1 + min(i, self.BINS - 1)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else float("nan")

    def quantile(self, q: float) -> float:
        """Histogram-resolution quantile estimate (exact at min/max)."""
        if self.n == 0:
            return float("nan")
        if q <= 0:
            return self.min
        if q >= 1:
            return self.max
        target = q * self.n
        cum = 0
        edges = self.edges()
        for i, c in enumerate(self.counts):
            cum += int(c)
            if cum >= target:
                if i == 0:
                    return self.min
                if i == len(self.counts) - 1:
                    return self.max
                # Geometric midpoint of the log-spaced bin.
                return float(np.sqrt(edges[i - 1] * edges[i]))
        return self.max  # pragma: no cover - defensive

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SegmentDigest n={self.n} mean={self.mean:.3g}>"


def _segment_digests(metrics: RunMetrics) -> Dict[str, SegmentDigest]:
    """segment name -> digest over the analysis tasks' segment durations."""
    digests: Dict[str, SegmentDigest] = {}
    for r in metrics.records:
        if r.category != "analysis":
            continue
        for seg, dur in r.segments.items():
            digest = digests.get(seg)
            if digest is None:
                digest = digests[seg] = SegmentDigest()
            digest.add(dur)
    return digests


def _running_peaks(
    metrics: RunMetrics, bin_width: float, now: Optional[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """(bin_starts, max concurrent tasks per bin); a bin without samples
    carries the previous bin's level forward."""
    peaks: Dict[int, float] = {}
    for t, running in zip(metrics.running.times, metrics.running.values):
        i = int(t / bin_width)
        if i not in peaks or running > peaks[i]:
            peaks[i] = running
    if not peaks:
        return np.array([]), np.array([])
    end_bin = max(peaks)
    if now is not None:
        end_bin = max(end_bin, int(now / bin_width))
    starts = np.arange(0, end_bin + 1) * bin_width
    out = np.zeros(len(starts))
    level = 0.0
    for i in range(len(starts)):
        level = peaks.get(i, level)
        out[i] = level
    return starts, out


def _completion_counts(
    metrics: RunMetrics, bin_width: float, now: Optional[float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bin_starts, ok counts, failed counts) per bin, all categories.

    The final edge closes the last bin, so completions stamped exactly
    at the run end count in it.
    """
    if not metrics.records:
        return np.array([]), np.array([]), np.array([])
    end = max(r.finished for r in metrics.records)
    if now is not None and now > end:
        end = now
    end = max(end, bin_width)
    edges = np.arange(0.0, end + bin_width, bin_width)
    n = len(edges) - 1
    ok = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=np.int64)
    for r in metrics.records:
        counts = ok if r.succeeded else failed
        counts[min(int(r.finished / bin_width), n - 1)] += 1
    return edges[:-1], ok, failed


def _failure_codes(metrics: RunMetrics) -> Dict[str, int]:
    """exit code name -> failed tasks, in first-failure order."""
    return Counter(name for _t, name in metrics.failure_codes_timeline())


def _output_bytes(metrics: RunMetrics) -> float:
    """Output bytes of the successful tasks, summed in arrival order."""
    total = 0.0
    for _t, nbytes in metrics.output_log:
        total += nbytes
    return total


def _narration(metrics: RunMetrics) -> List[Tuple[float, str, str]]:
    """(t, topic, what) rows for the latest chaos events."""
    rows = []
    for t, topic, fields in metrics.chaos_log[-_NARRATION_LIMIT:]:
        if topic.startswith("fault."):
            what = fields.get("kind", fields.get("fault", ""))
        elif topic.startswith("alert."):
            what = f"{fields.get('detector', '?')}:{fields.get('severity', '')}"
        elif topic == Topics.HOST_BLACKLIST:
            what = fields.get("host")
        else:  # recovery.fallback / recovery.resume
            what = fields.get("workflow", "")
        rows.append((t, topic, str(what)))
    return rows


# -- SVG strips -------------------------------------------------------------
def _svg_bars(
    values: Sequence[float],
    color: str = "#5b9bd5",
    width: int = 1080,
    height: int = 54,
    ymax: Optional[float] = None,
) -> str:
    """One bar per bin, scaled to the series (or *ymax*) maximum."""
    vals = np.asarray(values, dtype=float)
    n = len(vals)
    if n == 0:
        return '<div class="sub">(no data)</div>'
    top = float(ymax) if ymax else float(vals.max())
    if top <= 0:
        top = 1.0
    bar_w = width / n
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" height="{height}" '
        f'preserveAspectRatio="none" role="img">'
    ]
    for i, v in enumerate(vals):
        h = 0.0 if v <= 0 else max(1.0, v / top * (height - 2))
        if h <= 0:
            continue
        parts.append(
            f'<rect x="{i * bar_w:.2f}" y="{height - h:.2f}" '
            f'width="{max(bar_w - 0.5, 0.5):.2f}" height="{h:.2f}" '
            f'fill="{color}"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _strip(label: str, svg: str, note: str = "") -> str:
    note_html = f' <span class="sub">{_esc(note)}</span>' if note else ""
    return (
        f'<div class="strip"><div class="label">{_esc(label)}{note_html}</div>'
        f"{svg}</div>"
    )


def _tile(key: str, value: str, klass: str = "") -> str:
    cls = f' class="v {klass}"' if klass else ' class="v"'
    return (
        f'<div class="tile"><div{cls}>{_esc(value)}</div>'
        f'<div class="k">{_esc(key)}</div></div>'
    )


# -- panels -----------------------------------------------------------------
def _headline(metrics: RunMetrics, flow_bytes: Dict[str, float]) -> str:
    failed = metrics.n_failed()
    makespan = max((r.finished for r in metrics.records), default=0.0)
    tiles = [
        _tile("tasks", str(metrics.n_tasks)),
        _tile("succeeded", str(metrics.n_succeeded()), "ok"),
        _tile("failed", str(failed), "bad" if failed else "ok"),
        _tile("cpu / wall", f"{metrics.overall_efficiency():.1%}"),
        _tile("makespan", _fmt_secs(makespan)),
        _tile("output", _fmt_bytes(_output_bytes(metrics))),
        _tile("bytes moved", _fmt_bytes(sum(flow_bytes.values()))),
    ]
    return '<div class="tiles">' + "".join(tiles) + "</div>"


def _bandwidth_panel(
    metrics: RunMetrics,
    flow_bytes: Dict[str, float],
    bin_width: float,
    now: Optional[float],
) -> str:
    starts, series = metrics.bandwidth_timeline(bin_width, now=now)
    if not series:
        return ""
    colors = ["#5b9bd5", "#72c585", "#e0a33b", "#b37fd4", "#e06c5b", "#5bc8c2"]
    strips = []
    for i, (cls, vals) in enumerate(series.items()):
        total = flow_bytes.get(cls, 0.0)
        peak = float(vals.max()) if len(vals) else 0.0
        strips.append(
            _strip(
                f"{cls}",
                _svg_bars(vals, color=colors[i % len(colors)]),
                note=f"total {_fmt_bytes(total)} · peak {_fmt_bytes(peak)}/s",
            )
        )
    failed = metrics.n_flows_failed()
    note = (
        f'<div class="sub">{len(metrics.flows)} flows, '
        f'<span class="{"bad" if failed else "ok"}">{failed} failed</span></div>'
    )
    return (
        "<div class='panel'><h2>Network bandwidth by traffic class</h2>"
        + "".join(strips)
        + note
        + "</div>"
    )


def _taskstate_panel(
    metrics: RunMetrics, bin_width: float, now: Optional[float]
) -> str:
    r_starts, running = _running_peaks(metrics, bin_width, now)
    c_starts, ok, failed = _completion_counts(metrics, bin_width, now)
    e_starts, eff = metrics.efficiency_timeline(bin_width, now=now)
    strips = []
    if len(running):
        strips.append(
            _strip(
                "concurrent running tasks (bin max)",
                _svg_bars(running, color="#7db7e8"),
                note=f"peak {int(max(running))}",
            )
        )
    if len(c_starts):
        strips.append(
            _strip(
                "completions per bin",
                _svg_bars(ok, color="#72c585"),
                note=f"{int(ok.sum())} ok",
            )
        )
        if failed.sum():
            strips.append(
                _strip(
                    "failures per bin",
                    _svg_bars(failed, color="#e06c5b", ymax=float(ok.max() or 1)),
                    note=f"{int(failed.sum())} failed",
                )
            )
    if len(eff):
        strips.append(
            _strip(
                "cpu/wall efficiency per bin",
                _svg_bars(eff, color="#b37fd4", ymax=1.0),
                note="scale 0–100%",
            )
        )
    if not strips:
        return ""
    bin_note = (
        f'<div class="sub">bin width {_fmt_secs(bin_width)}, '
        f"time runs left→right from t=0</div>"
    )
    return (
        "<div class='panel'><h2>Task state timeline</h2>"
        + "".join(strips)
        + bin_note
        + "</div>"
    )


def _failure_rows(metrics: RunMetrics) -> str:
    codes = _failure_codes(metrics)
    if not codes:
        return ""
    rows = "".join(
        f"<tr><td class='mono'>{_esc(name)}</td><td>{count}</td></tr>"
        for name, count in sorted(codes.items(), key=lambda kv: -kv[1])
    )
    return (
        "<div class='panel'><h2>Failures by exit code</h2>"
        f"<table><tr><th>exit code</th><th>tasks</th></tr>{rows}</table></div>"
    )


def _chaos_panel(metrics: RunMetrics) -> str:
    injected = metrics.n_faults_injected
    blacklisted = metrics.hosts_blacklisted()
    have = (
        injected
        or metrics.evictions_seen
        or metrics.tasks_exhausted
        or metrics.stream_fallbacks
        or metrics.recovery_resumes
        or blacklisted
    )
    if not have:
        return ""
    tiles = [
        _tile("faults injected", str(injected), "warn"),
        _tile("faults cleared", str(len(metrics.faults) - injected)),
        _tile("evictions", str(metrics.evictions_seen)),
        _tile("retry budgets spent", str(metrics.tasks_exhausted)),
        _tile("stream fallbacks", str(len(metrics.stream_fallbacks))),
        _tile("warm restarts", str(len(metrics.recovery_resumes))),
        _tile("hosts blacklisted", str(len(blacklisted))),
    ]
    narration = ""
    if metrics.chaos_log:
        rows = "".join(
            f"<tr><td>{_fmt_secs(t)}</td><td class='mono'>{_esc(topic)}</td>"
            f"<td>{_esc(what)}</td></tr>"
            for t, topic, what in _narration(metrics)
        )
        narration = (
            "<table><tr><th>t</th><th>topic</th><th>what</th></tr>"
            + rows
            + "</table>"
        )
    return (
        "<div class='panel'><h2>Chaos &amp; recovery</h2>"
        + '<div class="tiles">'
        + "".join(tiles)
        + "</div>"
        + narration
        + "</div>"
    )


def _integrity_panel(metrics: RunMetrics) -> str:
    if not metrics.has_integrity_data():
        return ""
    corrupt = len(metrics.integrity_corrupt)
    tiles = [
        _tile("ledger commits", str(metrics.integrity_commits), "ok"),
        _tile("corruptions", str(corrupt), "bad" if corrupt else "ok"),
        _tile("quarantined", str(len(metrics.integrity_quarantined))),
        _tile("orphans swept", str(len(metrics.integrity_orphans))),
        _tile("duplicates dropped", str(len(metrics.duplicates_dropped))),
    ]
    return (
        "<div class='panel'><h2>Output integrity &amp; exactly-once</h2>"
        + '<div class="tiles">'
        + "".join(tiles)
        + "</div></div>"
    )


def _segments_panel(metrics: RunMetrics) -> str:
    digests = _segment_digests(metrics)
    if not digests:
        return ""
    rows = []
    for seg in sorted(digests):
        d = digests[seg]
        hist = _svg_bars(d.counts, color="#8fa1b8", width=300, height=26)
        rows.append(
            f"<tr><td class='mono'>{_esc(seg)}</td><td>{d.n}</td>"
            f"<td>{_fmt_secs(d.mean)}</td><td>{_fmt_secs(d.quantile(0.5))}</td>"
            f"<td>{_fmt_secs(d.quantile(0.99))}</td><td>{_fmt_secs(d.max)}</td>"
            f"<td style='min-width:300px'>{hist}</td></tr>"
        )
    return (
        "<div class='panel'><h2>Segment durations (streaming digests)</h2>"
        "<table><tr><th>segment</th><th>n</th><th>mean</th><th>~p50</th>"
        "<th>~p99</th><th>max</th><th>log-spaced histogram</th></tr>"
        + "".join(rows)
        + "</table></div>"
    )


def _telemetry_panel(bin_width: float, bus_stats: Optional[Dict[str, int]]) -> str:
    tiles = [_tile("bin width", _fmt_secs(bin_width))]
    if bus_stats:
        tiles.extend(
            [
                _tile("bus published", str(bus_stats.get("published", 0))),
                _tile("bus delivered", str(bus_stats.get("delivered", 0))),
                _tile("subscriptions", str(bus_stats.get("subscriptions", 0))),
                _tile("ports", str(bus_stats.get("ports", 0))),
            ]
        )
    return (
        "<div class='panel'><h2>Telemetry</h2><div class='tiles'>"
        + "".join(tiles)
        + "</div></div>"
    )


def _span_anchor(e) -> str:
    return f"span-{e.trace_id}-{e.span_id}"


def _alert_span_anchor(entry: Dict) -> str:
    """Anchor for a watch-alert evidence entry ({trace, span, ...})."""
    return f"span-{entry.get('trace')}-{entry.get('span')}"


def _watch_panel(
    alerts: Sequence[Dict],
    watch_history: Optional[Sequence[Dict]],
    bus_timeline: Optional[Sequence] = None,
) -> str:
    """Live run health: the alert timeline plus per-window telemetry.

    *alerts* is the engine's emitted stream (``{"t", "topic", ...}``
    dicts); *watch_history* its per-window summaries; *bus_timeline*
    the watcher's ``(t, published, delivered)`` samples.
    """
    blocks: List[str] = []
    raised = sum(1 for a in alerts if a.get("topic", "").endswith("raise"))
    cleared = len(alerts) - raised
    if not alerts:
        blocks.append(
            "<div class='sub ok'>no alerts raised — the run looks "
            "healthy</div>"
        )
    else:
        blocks.append(
            f"<div class='sub'><span class='warn'>{raised} raised</span> · "
            f"{cleared} cleared</div>"
        )
        rows = []
        for a in alerts:
            raise_ = a.get("topic", "").endswith("raise")
            verb = (
                "<span class='bad'>RAISE</span>"
                if raise_
                else "<span class='ok'>clear</span>"
            )
            evidence = a.get("evidence") or []
            cites = ", ".join(
                f'<a href="#{_alert_span_anchor(e)}">{_esc(e.get("name"))}'
                f"/{_esc(e.get('span'))}</a>"
                for e in evidence
            )
            rows.append(
                f"<tr><td>{_fmt_secs(float(a.get('t', 0.0)))}</td>"
                f"<td>{verb}</td>"
                f"<td class='mono'>{_esc(a.get('alert'))}</td>"
                f"<td>{_esc(a.get('severity'))}</td>"
                f"<td>{a.get('window')}</td>"
                f"<td class='mono'>{float(a.get('level', 0.0)):.3g}</td>"
                f"<td>{cites}</td></tr>"
            )
        blocks.append(
            "<table><tr><th>t</th><th>event</th><th>alert</th>"
            "<th>severity</th><th>window</th><th>level</th>"
            "<th>evidence</th></tr>" + "".join(rows) + "</table>"
        )
        # Evidence spans referenced by the alerts, resolvable in-page
        # (and in the trace viewer by the same ids).
        seen: Dict[str, Dict] = {}
        for a in alerts:
            for e in a.get("evidence") or []:
                seen.setdefault(_alert_span_anchor(e), e)
        if seen:
            ev_rows = "".join(
                f"<tr id='{anchor}'><td class='mono'>{_esc(e.get('trace'))}"
                f"</td><td>{_esc(e.get('span'))}</td>"
                f"<td class='mono'>{_esc(e.get('name'))}</td>"
                f"<td>{_esc(e.get('status'))}</td></tr>"
                for anchor, e in seen.items()
            )
            blocks.append(
                "<div class='sub'>alert evidence spans:</div>"
                "<table><tr><th>trace</th><th>span</th><th>name</th>"
                "<th>status</th></tr>" + ev_rows + "</table>"
            )
    if watch_history:
        oks = [w.get("ok", 0) for w in watch_history]
        evs = [w.get("evictions", 0) for w in watch_history]
        blocks.append(
            _strip(
                "completions per watch window",
                _svg_bars(oks, color="#72c585", height=32),
            )
        )
        if any(evs):
            blocks.append(
                _strip(
                    "evictions per watch window",
                    _svg_bars(evs, color="#e06c5b", height=32),
                )
            )
    if bus_timeline and len(bus_timeline) > 1:
        published = [row[1] for row in bus_timeline]
        deltas = [
            max(b - a, 0) for a, b in zip(published, published[1:])
        ]
        blocks.append(
            _strip(
                "bus events published per watch window",
                _svg_bars(deltas, color="#8fa1b8", height=32),
                note=f"{published[-1]} total",
            )
        )
    return (
        "<div class='panel'><h2>Live run health (watch alerts)</h2>"
        + "".join(blocks)
        + "</div>"
    )


def _diagnosis_panel(diagnoses: Sequence) -> str:
    if not diagnoses:
        return (
            "<div class='panel'><h2>Troubleshooting (§5 heuristics)</h2>"
            "<div class='sub ok'>no heuristic fired</div></div>"
        )
    blocks = []
    for d in diagnoses:
        links = ""
        if d.evidence:
            cites = ", ".join(
                f'<a href="#{_span_anchor(e)}">{_esc(e.name)} '
                f"{e.seconds:.1f}s</a>"
                for e in d.evidence
            )
            links = f"<div class='sub'>evidence: {cites}</div>"
        blocks.append(
            "<div class='diag'>"
            f"<span class='symptom'>{_esc(d.symptom)}</span> "
            f"<span class='mono'>{d.metric:.3g} &gt; {d.threshold:.3g}</span>"
            f"<div>{_esc(d.suggestion)}</div>{links}</div>"
        )
    return (
        "<div class='panel'><h2>Troubleshooting (§5 heuristics)</h2>"
        + "".join(blocks)
        + "</div>"
    )


def _evidence_table(diagnoses: Sequence) -> str:
    evidence = [e for d in diagnoses for e in d.evidence]
    if not evidence:
        return ""
    rows = "".join(
        f"<tr id='{_span_anchor(e)}'><td class='mono'>{_esc(e.trace_id)}</td>"
        f"<td>{e.span_id}</td><td class='mono'>{_esc(e.name)}</td>"
        f"<td>{e.seconds:.1f}s</td><td>{_esc(e.status)}</td></tr>"
        for e in evidence
    )
    return (
        "<div class='panel'><h2>Evidence spans</h2>"
        "<table><tr><th>trace</th><th>span</th><th>name</th>"
        "<th>duration</th><th>status</th></tr>"
        + rows
        + "</table><div class='sub'>open these ids in the trace viewer "
        "(<span class='mono'>python -m repro trace</span>)</div></div>"
    )


# -- entry points -----------------------------------------------------------
def render_dashboard(
    metrics: RunMetrics,
    bin_width: float = 1800.0,
    spans: Optional[Iterable] = None,
    bus_stats: Optional[Dict[str, int]] = None,
    title: str = "repro run",
    alerts: Optional[Sequence[Dict]] = None,
    watch_history: Optional[Sequence[Dict]] = None,
    bus_timeline: Optional[Sequence] = None,
    now: Optional[float] = None,
) -> str:
    """Render one self-contained HTML dashboard string.

    *metrics* drives every panel, the §5 ``diagnose()`` findings
    included; the timelines use *bin_width*-second bins.  *spans*
    (finished Span objects) makes each firing heuristic link to its
    evidence spans; *bus_stats* (``EventBus.stats()``) fills the
    telemetry panel's bus counters.

    The watch extras light up the live-health panel: *alerts* is a
    ``WatchEngine.alerts`` stream, *watch_history* its per-window
    summaries, *bus_timeline* the ``RunWatcher.bus_timeline`` samples.
    *now* (current simulated time) extends every timeline to the
    present — a mid-run refresh then shows the silent tail instead of
    truncating at the last completed event.
    """
    diagnoses = diagnose(metrics, spans=list(spans) if spans else None)
    flow_bytes = metrics.flow_bytes_by_class()
    body = [
        f"<h1>{_esc(title)}</h1>",
        "<div class='sub'>static ops dashboard · "
        "<span class='mono'>python -m repro dash</span></div>",
        _headline(metrics, flow_bytes),
        _watch_panel(alerts, watch_history, bus_timeline)
        if alerts is not None
        else "",
        _taskstate_panel(metrics, bin_width, now),
        _bandwidth_panel(metrics, flow_bytes, bin_width, now),
        _failure_rows(metrics),
        _chaos_panel(metrics),
        _integrity_panel(metrics),
        _segments_panel(metrics),
        _diagnosis_panel(diagnoses),
        _evidence_table(diagnoses),
        _telemetry_panel(bin_width, bus_stats),
    ]
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        "<body><div class='wrap'>" + "".join(body) + "</div></body></html>"
    )


def write_dashboard(path: str, metrics: RunMetrics, **kwargs) -> str:
    """Render and write the dashboard atomically; returns the path.

    The page is written to a temp file in the destination directory and
    moved into place with ``os.replace``, so a reader (browser refresh,
    CI artifact scrape) never observes a torn half-written page even
    while a live watcher re-renders every window.
    """
    html_text = render_dashboard(metrics, **kwargs)
    dest_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=dest_dir, prefix=".dash-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(html_text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
