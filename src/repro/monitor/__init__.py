"""``repro.monitor`` — comprehensive run monitoring (paper §5).

Collects per-task segment records and pool/server samples, reduces them
to the paper's tables and timelines (Figs 8–11), and applies the
troubleshooting heuristics the Lobster operators used in production.
"""

from .collector import BusCollector, replay
from .context import CMS_2015_RESOURCES, ContextStatement, contextualize
from .dash import render_dashboard, write_dashboard
from .export import (
    JsonlSink,
    export_run,
    load_events,
    load_task_records,
)
from .metrics import EventLog, TimeSeries
from .records import RunMetrics, RuntimeBreakdown, TaskRecord
from .report import ascii_bar, ascii_timeline, render_report
from .stats import (
    SegmentStats,
    all_segment_stats,
    histogram_ascii,
    percentile,
    segment_stats,
    summarize,
)
from .tracing import (
    PathSlice,
    Span,
    SpanStreamBuilder,
    SpanTracer,
    TraceContext,
    attribute,
    attribute_hosts,
    chrome_trace,
    critical_path,
    format_breakdown,
    work_coverage,
    write_chrome_trace,
    write_spans_jsonl,
)
from .troubleshoot import Diagnosis, EvidenceSpan, diagnose
from .watch import DEFAULT_DETECTORS, DetectorSpec, RunWatcher, WatchEngine

__all__ = [
    "TimeSeries",
    "EventLog",
    "TaskRecord",
    "RuntimeBreakdown",
    "RunMetrics",
    "Diagnosis",
    "diagnose",
    "render_report",
    "ascii_bar",
    "ascii_timeline",
    "contextualize",
    "ContextStatement",
    "CMS_2015_RESOURCES",
    "SegmentStats",
    "segment_stats",
    "all_segment_stats",
    "histogram_ascii",
    "percentile",
    "summarize",
    "export_run",
    "load_task_records",
    "BusCollector",
    "replay",
    "JsonlSink",
    "load_events",
    "TraceContext",
    "Span",
    "SpanTracer",
    "SpanStreamBuilder",
    "PathSlice",
    "critical_path",
    "attribute",
    "attribute_hosts",
    "work_coverage",
    "format_breakdown",
    "chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
    "EvidenceSpan",
    "render_dashboard",
    "write_dashboard",
    "DetectorSpec",
    "DEFAULT_DETECTORS",
    "WatchEngine",
    "RunWatcher",
]
