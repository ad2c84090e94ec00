"""Run-level metric aggregation (paper §5, Figs 8, 10, 11).

:class:`RunMetrics` receives every task result as it returns to the
master and reduces the stream to the paper's views:

* the runtime breakdown table (Fig 8): CPU / I/O / failed / WQ stage-in
  / WQ stage-out as fractions of total consumed wall time,
* run timelines (Figs 10, 11): concurrent tasks, completions and
  failures per bin, CPU/wall efficiency per bin, setup and stage-out
  segment durations over time, failure exit codes over time.

It is the monitor's one record-keeping fold: the text report, the CSV
export, the §5 heuristics and the HTML dashboard all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..analysis.report import ExitCode, exit_code_name
from ..desim.bus import Topics
from .metrics import EventLog, TimeSeries

__all__ = ["TaskRecord", "FlowRecord", "RuntimeBreakdown", "RunMetrics"]

#: Topics whose events carry a ``running`` field sampling the number of
#: concurrently executing tasks.
_RUNNING_TOPICS = (Topics.TASK_START, Topics.TASK_DONE, Topics.TASK_REQUEUE)


def _bin_starts(end: float, bin_width: float, now: Optional[float]) -> np.ndarray:
    """Bin starts from t=0 through *end*, or through *now* when later."""
    if now is not None and now > end:
        end = now
    return np.arange(0.0, max(end, bin_width), bin_width)


def _fold_bins(cells: Dict[int, float], n: int) -> np.ndarray:
    """Scatter per-bin sums into *n* bins, in bin order.

    A value stamped exactly at the end of the time axis lands one bin
    past it; it folds into the last bin after that bin's own sum.
    """
    out = np.zeros(n)
    for i in sorted(cells):
        out[min(i, n - 1)] += cells[i]
    return out


@dataclass(frozen=True)
class TaskRecord:
    """Flattened, immutable view of one task attempt's outcome."""

    task_id: int
    workflow: str
    category: str
    exit_code: int
    submitted: float
    started: float
    finished: float
    segments: Dict[str, float]
    wq_stage_in: float
    wq_stage_out: float
    lost_time: float
    output_bytes: float

    @property
    def succeeded(self) -> bool:
        return self.exit_code == int(ExitCode.SUCCESS)

    @property
    def wall_time(self) -> float:
        return self.finished - self.started

    @classmethod
    def from_event(cls, fields: Dict) -> "TaskRecord":
        """Build a record from a ``task.result`` bus event's fields."""
        return cls(
            task_id=int(fields["task_id"]),
            workflow=fields["workflow"],
            category=fields["category"],
            exit_code=int(fields["exit_code"]),
            submitted=float(fields["submitted"]),
            started=float(fields["started"]),
            finished=float(fields["finished"]),
            segments=dict(fields.get("segments") or {}),
            wq_stage_in=float(fields.get("wq_stage_in", 0.0)),
            wq_stage_out=float(fields.get("wq_stage_out", 0.0)),
            lost_time=float(fields.get("lost_time", 0.0)),
            output_bytes=float(fields.get("output_bytes", 0.0)),
        )


@dataclass(frozen=True)
class FlowRecord:
    """One completed (or failed) network-fabric flow."""

    cls: str
    nbytes: float  #: bytes actually moved
    started: float
    finished: float
    src: Optional[str]
    dst: Optional[str]
    hops: int
    ok: bool

    @property
    def elapsed(self) -> float:
        return self.finished - self.started

    @classmethod
    def from_event(cls, topic: str, time: float, fields: Dict) -> "FlowRecord":
        """Build a record from a ``net.flow`` / ``net.flow.fail`` event."""
        ok = topic == Topics.NET_FLOW
        nbytes = float(fields.get("nbytes" if ok else "moved", 0.0))
        elapsed = float(fields.get("elapsed", 0.0))
        return cls(
            cls=fields.get("cls", "bulk"),
            nbytes=nbytes,
            started=float(fields.get("started", time - elapsed)),
            finished=time,
            src=fields.get("src"),
            dst=fields.get("dst"),
            hops=int(fields.get("hops", 0)),
            ok=ok,
        )


@dataclass
class RuntimeBreakdown:
    """The Fig 8 table: hours and fractions per phase."""

    task_cpu: float = 0.0
    task_io: float = 0.0
    task_failed: float = 0.0
    wq_stage_in: float = 0.0
    wq_stage_out: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.task_cpu
            + self.task_io
            + self.task_failed
            + self.wq_stage_in
            + self.wq_stage_out
            + self.other
        )

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {k: 0.0 for k in self.as_dict()}
        return {k: v / total for k, v in self.as_dict().items()}

    def as_dict(self) -> Dict[str, float]:
        return {
            "task_cpu": self.task_cpu,
            "task_io": self.task_io,
            "task_failed": self.task_failed,
            "wq_stage_in": self.wq_stage_in,
            "wq_stage_out": self.wq_stage_out,
            "other": self.other,
        }

    def rows(self) -> List[tuple]:
        """(label, hours, percent) rows in the paper's order."""
        labels = {
            "task_cpu": "Task CPU Time",
            "task_io": "Task I/O Time",
            "task_failed": "Task Failed",
            "wq_stage_in": "WQ Stage In",
            "wq_stage_out": "WQ Stage Out",
            "other": "Other Overhead",
        }
        fr = self.fractions()
        return [
            (labels[k], v / 3600.0, 100.0 * fr[k])
            for k, v in self.as_dict().items()
        ]


class RunMetrics:
    """Accumulates task records and reduces them to the paper's figures."""

    #: Subscription patterns, in subscription order (see ``BusCollector``).
    TOPICS = (
        Topics.TASK_RESULT,
        Topics.EVICTION,
        Topics.NET_FLOW,
        Topics.NET_FLOW_FAIL,
        "fault.*",
        Topics.HOST_BLACKLIST,
        Topics.TASK_EXHAUSTED,
        Topics.RECOVERY_FALLBACK,
        Topics.RECOVERY_RESUME,
        "integrity.*",
        Topics.TASK_DUPLICATE,
        "alert.*",
    ) + _RUNNING_TOPICS

    def __init__(self) -> None:
        self.records: List[TaskRecord] = []
        #: (time, value): concurrent running tasks (fed from Master samples).
        self.running = TimeSeries("tasks-running")
        self.completions = EventLog("completions")  # category = "ok"/"failed"
        self.failures = EventLog("failures")  # category = exit code name
        self.evictions_seen = 0
        #: (time, output bytes) per successful task, for the cumulative
        #: output-written-to-disk view of §5.
        self.output_log: List[tuple] = []
        #: Completed and failed network-fabric flows (``net.flow`` /
        #: ``net.flow.fail`` bus events).
        self.flows: List[FlowRecord] = []
        # ---- chaos: fault injection & active recovery ----
        #: (time, fields) for every ``fault.inject`` / ``fault.clear``.
        self.faults: List[tuple] = []
        #: (time, host, active) blacklist transitions (``host.blacklist``).
        self.blacklist_log: List[tuple] = []
        #: Tasks whose retry budget was spent (``task.exhausted``).
        self.tasks_exhausted = 0
        #: (time, fields) streaming→staging fallbacks (``recovery.fallback``).
        self.stream_fallbacks: List[tuple] = []
        #: (time, fields) warm-restart re-attachments (``recovery.resume``):
        #: one per workflow a recovering master reloaded from the Lobster DB.
        self.recovery_resumes: List[tuple] = []
        # ---- integrity & exactly-once accounting ----
        #: (time, fields) checksum mismatches (``integrity.corrupt``).
        self.integrity_corrupt: List[tuple] = []
        #: (time, fields) quarantined outputs (``integrity.quarantine``).
        self.integrity_quarantined: List[tuple] = []
        #: Outputs verified + committed in the ledger (``integrity.commit``).
        self.integrity_commits = 0
        #: (time, fields) half-written outputs swept on recovery.
        self.integrity_orphans: List[tuple] = []
        #: (time, fields) late/duplicate results dropped (``task.duplicate``).
        self.duplicates_dropped: List[tuple] = []
        # ---- live run health (monitor.watch) ----
        #: (time, topic, fields) for every ``alert.raise``/``alert.clear``
        #: a watch engine published on this run's bus, in bus order.
        self.alerts: List[tuple] = []
        #: (time, topic, fields) for every fault, blacklist, fallback,
        #: resume and alert event, in arrival order: the per-kind lists
        #: above do not keep the order across topics.
        self.chaos_log: List[tuple] = []

    # -- ingestion -------------------------------------------------------------
    def ingest(self, topic: str, t: float, fields: Dict) -> None:
        """Fold one bus event (a single flow record for ``net.flow``)."""
        if topic == Topics.NET_FLOW or topic == Topics.NET_FLOW_FAIL:
            self.flows.append(FlowRecord.from_event(topic, t, fields))
        elif topic in _RUNNING_TOPICS:
            running = fields.get("running")
            if running is not None:
                try:
                    self.running.append(t, running)
                except ValueError:  # older than the last sample: dropped
                    pass
        elif topic == Topics.TASK_RESULT:
            rec = TaskRecord.from_event(fields)
            self.records.append(rec)
            self.completions.record(rec.finished, "ok" if rec.succeeded else "failed")
            if not rec.succeeded:
                self.failures.record(rec.finished, exit_code_name(rec.exit_code))
            elif rec.output_bytes > 0:
                self.output_log.append((rec.finished, rec.output_bytes))
        elif topic == Topics.EVICTION:
            self.evictions_seen += 1
        elif topic == Topics.HOST_BLACKLIST:
            self.blacklist_log.append(
                (t, fields.get("host"), bool(fields.get("active", True)))
            )
            self._chaos(t, topic, fields)
        elif topic == Topics.TASK_EXHAUSTED:
            self.tasks_exhausted += 1
        elif topic == Topics.RECOVERY_FALLBACK:
            self.stream_fallbacks.append((t, self._chaos(t, topic, fields)))
        elif topic == Topics.RECOVERY_RESUME:
            self.recovery_resumes.append((t, self._chaos(t, topic, fields)))
        elif topic == Topics.TASK_DUPLICATE:
            self.duplicates_dropped.append((t, dict(fields)))
        elif topic == Topics.INTEGRITY_CORRUPT:
            self.integrity_corrupt.append((t, dict(fields)))
        elif topic == Topics.INTEGRITY_QUARANTINE:
            self.integrity_quarantined.append((t, dict(fields)))
        elif topic == Topics.INTEGRITY_COMMIT:
            self.integrity_commits += 1
        elif topic == Topics.INTEGRITY_ORPHAN:
            self.integrity_orphans.append((t, dict(fields)))
        elif topic.startswith("fault."):
            self.faults.append((t, topic, self._chaos(t, topic, fields)))
        elif topic.startswith("alert."):
            self.alerts.append((t, topic, self._chaos(t, topic, fields)))

    def _chaos(self, t: float, topic: str, fields: Dict) -> Dict:
        """Log a chaos event in arrival order; returns its fields' copy."""
        fields = dict(fields)
        self.chaos_log.append((t, topic, fields))
        return fields

    # -- Fig 8 ------------------------------------------------------------------
    def runtime_breakdown(self, analysis_only: bool = True) -> RuntimeBreakdown:
        b = RuntimeBreakdown()
        for r in self.records:
            if analysis_only and r.category != "analysis":
                continue
            b.task_failed += r.lost_time  # evicted attempts are lost work
            if r.succeeded:
                seg = r.segments
                b.task_cpu += seg.get("cpu", 0.0)
                b.task_io += (
                    seg.get("io", 0.0)
                    + seg.get("stage_in", 0.0)
                    + seg.get("stage_out", 0.0)
                )
                b.wq_stage_in += r.wq_stage_in
                b.wq_stage_out += r.wq_stage_out
                b.other += seg.get("validate", 0.0) + seg.get("setup", 0.0)
            else:
                b.task_failed += r.wall_time
        return b

    # -- Figs 10/11 ------------------------------------------------------------------
    def efficiency_timeline(self, bin_width: float, now: Optional[float] = None):
        """(bin_starts, cpu/wall ratio) per bin over finished analysis tasks.

        *now* (a mid-run page) extends the time axis to the current sim
        time without changing any bin's value.
        """
        if not self.records:
            return np.array([]), np.array([])
        starts = _bin_starts(max(r.finished for r in self.records), bin_width, now)
        cpu: Dict[int, float] = {}
        wall: Dict[int, float] = {}
        for r in self.records:
            if r.category != "analysis":
                continue
            i = int(r.finished / bin_width)
            cpu[i] = cpu.get(i, 0.0) + r.segments.get("cpu", 0.0)
            wall[i] = wall.get(i, 0.0) + (r.wall_time + r.lost_time)
        cpu_bins = _fold_bins(cpu, len(starts))
        wall_bins = _fold_bins(wall, len(starts))
        with np.errstate(divide="ignore", invalid="ignore"):
            eff = np.where(wall_bins > 0, cpu_bins / wall_bins, 0.0)
        return starts, eff

    def segment_timeline(self, segment: str, category: str = "analysis"):
        """(finish time, segment seconds) scatter for Fig 11 panels."""
        pts = [
            (r.finished, r.segments.get(segment, 0.0))
            for r in self.records
            if r.category == category and segment in r.segments
        ]
        pts.sort()
        t = np.asarray([p[0] for p in pts])
        v = np.asarray([p[1] for p in pts])
        return t, v

    def failure_codes_timeline(self):
        """(time, exit code name) pairs for the Fig 11 bottom panel."""
        return list(zip(self.failures.times, self.failures._cat))

    def output_written(self, bin_width: Optional[float] = None):
        """Cumulative output volume over time (§5's overview panel).

        Without *bin_width*: (times, cumulative bytes) at each output.
        With it: (bin_starts, cumulative bytes at each bin end).
        """
        if not self.output_log:
            return np.array([]), np.array([])
        times = np.asarray([t for t, _ in self.output_log])
        sizes = np.asarray([b for _, b in self.output_log])
        order = np.argsort(times)
        times, cum = times[order], np.cumsum(sizes[order])
        if bin_width is None:
            return times, cum
        starts = np.arange(0.0, times[-1] + bin_width, bin_width)
        idx = np.searchsorted(times, starts + bin_width, side="right") - 1
        vals = np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)
        return starts, vals

    # -- network (Fig 10 analogue) ------------------------------------------------
    def flow_bytes_by_class(self) -> Dict[str, float]:
        """Total bytes moved per traffic class (failed flows count what
        they moved before dying)."""
        out: Dict[str, float] = {}
        for f in self.flows:
            out[f.cls] = out.get(f.cls, 0.0) + f.nbytes
        return out

    def n_flows_failed(self) -> int:
        return sum(1 for f in self.flows if not f.ok)

    def bandwidth_timeline(self, bin_width: float, now: Optional[float] = None):
        """Per-traffic-class bandwidth over time (the Fig 10 analogue).

        Returns ``(bin_starts, {cls: bytes/s array})``.  Each flow's
        bytes are spread uniformly over its active interval, so a bin's
        value is the aggregate rate that class sustained during it.
        *now* extends the time axis as in :meth:`efficiency_timeline`.
        """
        if not self.flows:
            return np.array([]), {}
        starts = _bin_starts(max(f.finished for f in self.flows), bin_width, now)
        cells: Dict[str, Dict[int, float]] = {}
        for f in self.flows:
            if f.nbytes <= 0:
                continue
            per_bin = cells.setdefault(f.cls, {})
            t0, t1 = f.started, max(f.finished, f.started)
            if t1 <= t0:  # instantaneous: drop it all in one bin
                i = int(t0 / bin_width)
                per_bin[i] = per_bin.get(i, 0.0) + f.nbytes / bin_width
                continue
            rate = f.nbytes / (t1 - t0)
            for i in range(int(t0 / bin_width), int(t1 / bin_width) + 1):
                b0 = i * bin_width
                overlap = min(t1, b0 + bin_width) - max(t0, b0)
                if overlap > 0:
                    per_bin[i] = per_bin.get(i, 0.0) + rate * overlap / bin_width
        n = len(starts)
        return starts, {cls: _fold_bins(c, n) for cls, c in cells.items()}

    # -- headline numbers ---------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.records)

    def n_succeeded(self, category: Optional[str] = None) -> int:
        return sum(
            1
            for r in self.records
            if r.succeeded and (category is None or r.category == category)
        )

    def n_failed(self, category: Optional[str] = None) -> int:
        return sum(
            1
            for r in self.records
            if not r.succeeded and (category is None or r.category == category)
        )

    def overall_efficiency(self) -> float:
        """CPU time / total consumed time over the whole run (≤ ~0.7)."""
        b = self.runtime_breakdown()
        return b.task_cpu / b.total if b.total > 0 else 0.0

    # -- chaos (fault injection & active recovery) ---------------------------
    @property
    def n_faults_injected(self) -> int:
        return sum(1 for _, topic, _f in self.faults if topic == Topics.FAULT_INJECT)

    def hosts_blacklisted(self) -> List[str]:
        """Hosts ever blacklisted, in first-transition order."""
        seen: List[str] = []
        for _t, host, active in self.blacklist_log:
            if active and host not in seen:
                seen.append(host)
        return seen

    def has_chaos_data(self) -> bool:
        return bool(
            self.faults
            or self.blacklist_log
            or self.stream_fallbacks
            or self.recovery_resumes
            or self.tasks_exhausted
        )

    # -- integrity & exactly-once ---------------------------------------------
    def has_integrity_data(self) -> bool:
        return bool(
            self.integrity_corrupt
            or self.integrity_quarantined
            or self.integrity_commits
            or self.integrity_orphans
            or self.duplicates_dropped
        )

    # -- live run health --------------------------------------------------------
    @property
    def n_alerts_raised(self) -> int:
        return sum(1 for _, topic, _f in self.alerts if topic == Topics.ALERT_RAISE)

    @property
    def n_alerts_cleared(self) -> int:
        return sum(1 for _, topic, _f in self.alerts if topic == Topics.ALERT_CLEAR)
