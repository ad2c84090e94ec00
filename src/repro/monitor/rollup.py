"""Streaming, windowed telemetry rollups: O(windows) memory, exact parity.

:class:`~repro.monitor.records.RunMetrics` keeps every task and flow
record in memory — fine for 10k tasks, fatal for the 100k-worker
campaigns the roadmap targets.  This module is the bounded-memory twin:
:class:`Rollup` folds the same bus event stream into *per-window
accumulator cells* (dicts keyed by bin index) plus scalar counters and
fixed-bin segment digests, so peak retention scales with the number of
occupied time windows and never with the number of events.  It is a
monitor fold like ``RunMetrics`` (same ``TOPICS``, same
``ingest(topic, t, fields)``), attached live through
:class:`~repro.monitor.collector.BusCollector` or fed a recording by
:func:`~repro.monitor.collector.replay`.

Parity is the contract, not an aspiration: the finalisers replicate the
``RunMetrics`` binning arithmetic expression-for-expression —

* ``efficiency_timeline``: per-bin ``cpu += segments["cpu"]`` /
  ``wall += wall_time + lost_time`` over analysis records, bins from
  ``np.arange(0, max(end, bin_width), bin_width)`` with the final-bin
  clamp ``min(int(t / bin_width), n - 1)``;
* ``bandwidth_timeline``: each flow's bytes spread uniformly over its
  active interval with the identical per-bin overlap expression
  ``rate * overlap / bin_width``;
* scalar counters and float aggregates (the Fig 8 breakdown, byte
  totals, digest sums) accumulate in arrival order, so the float sums
  are bit-identical to iterating the record lists.

Streaming accumulation is *unclamped* (cells keyed by the raw bin
index); the clamp needs the run's end, which is only known at finalise
time, so overflow cells are folded into the last bin then.  Overflow
can only hold events stamped exactly at the run end when the end is an
exact bin multiple, and such events also arrive last, so the fold adds
them in the same order the exact path would.

:func:`verify_parity` checks a rollup against a ``RunMetrics`` built
from the same stream and returns the list of mismatches (empty on
success); ``tests/test_rollup_parity.py`` runs it on the tier-1
scenarios.

Like everything under ``repro.monitor``, this module depends only on
the bus vocabulary — never on the scheduler, batch, CVMFS, or storage
layers.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.report import exit_code_name
from ..desim.bus import Topics
from .records import _RUNNING_TOPICS, RunMetrics, RuntimeBreakdown

__all__ = ["Rollup", "SegmentDigest", "verify_parity"]

#: Bounded narration kept for the dashboard's chaos panel.
_NARRATION_LIMIT = 64


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
            span = self.BINS / (np.log10(self.HI) - np.log10(self.LO))
            i = int((np.log10(x) - np.log10(self.LO)) * span)
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


class Rollup:
    """Windowed streaming aggregation of a run's bus event stream.

    Feed it the same events a :class:`RunMetrics` would see (through
    :meth:`ingest`: live via ``BusCollector``, offline via ``replay``);
    read the finalisers at any point — they are pure functions of the
    accumulated cells and may be called repeatedly, including mid-run.
    """

    TOPICS = RunMetrics.TOPICS

    def __init__(self, bin_width: float = 1800.0):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(bin_width)
        self.events_seen = 0
        # ---- tasks ----
        self.n_tasks = 0
        #: category -> [ok, failed] counts.
        self.tasks_by_category: Dict[str, List[int]] = {}
        #: exit code name -> count over failed tasks.
        self.failure_codes: Dict[str, int] = {}
        self.max_finished: Optional[float] = None
        #: Fig 8 breakdown over analysis tasks, in arrival order.
        self.breakdown = RuntimeBreakdown()
        #: bin -> [cpu, wall] over analysis records (efficiency numerator
        #: and denominator, unclamped bin index).
        self._eff: Dict[int, List[float]] = {}
        #: bin -> [ok, failed] completion counts (all categories).
        self._completions: Dict[int, List[int]] = {}
        #: bin -> output bytes written by tasks finishing in that bin.
        self._output: Dict[int, float] = {}
        self.output_bytes = 0.0
        #: segment name -> digest over analysis records.
        self.segments: Dict[str, SegmentDigest] = {}
        # ---- running concurrency ----
        #: bin -> max running sample seen in that bin.
        self._running_max: Dict[int, float] = {}
        # ---- flows ----
        self.n_flows = 0
        self.n_flows_failed = 0
        #: class -> bytes moved, in first-seen class order.
        self.flow_bytes: Dict[str, float] = {}
        self.max_flow_finished: Optional[float] = None
        #: class -> bin -> bytes/s contribution (unclamped bin index).
        self._bw: Dict[str, Dict[int, float]] = {}
        # ---- live run health (repro.monitor.watch) ----
        self.alerts_raised = 0
        self.alerts_cleared = 0
        # ---- chaos ----
        self.evictions = 0
        self.faults_injected = 0
        self.faults_cleared = 0
        self.tasks_exhausted = 0
        self.fallbacks = 0
        #: Warm-restart re-attachments (one per workflow a recovering
        #: master reloaded from the Lobster DB).
        self.resumes = 0
        self.blacklisted_hosts: List[str] = []
        #: Bounded (time, topic, description) narration for the dash.
        self.narration: deque = deque(maxlen=_NARRATION_LIMIT)
        # ---- integrity ----
        self.integrity_corrupt = 0
        self.integrity_quarantined = 0
        self.integrity_commits = 0
        self.integrity_orphans = 0
        self.duplicates_dropped = 0

    # -- ingestion ---------------------------------------------------------
    def ingest(self, topic: str, t: float, fields: Dict) -> None:
        """Fold one bus event (a single flow record for ``net.flow``)."""
        if topic == Topics.NET_FLOW or topic == Topics.NET_FLOW_FAIL:
            self._add_flow(t, fields, ok=topic == Topics.NET_FLOW)
        elif topic in _RUNNING_TOPICS:
            running = fields.get("running")
            if running is None:
                return  # not a concurrency sample: not counted
            i = int(t / self.bin_width)
            prev = self._running_max.get(i)
            if prev is None or running > prev:
                self._running_max[i] = running
        elif topic == Topics.TASK_RESULT:
            self._add_task(fields)
        elif topic == Topics.EVICTION:
            self.evictions += 1
        elif topic == Topics.HOST_BLACKLIST:
            host = fields.get("host")
            if fields.get("active", True) and host not in self.blacklisted_hosts:
                self.blacklisted_hosts.append(host)
            self.narration.append((t, topic, str(host)))
        elif topic == Topics.TASK_EXHAUSTED:
            self.tasks_exhausted += 1
        elif topic == Topics.RECOVERY_FALLBACK:
            self.fallbacks += 1
            self.narration.append((t, topic, str(fields.get("workflow", ""))))
        elif topic == Topics.RECOVERY_RESUME:
            self.resumes += 1
            self.narration.append((t, topic, str(fields.get("workflow", ""))))
        elif topic == Topics.TASK_DUPLICATE:
            self.duplicates_dropped += 1
        elif topic == Topics.INTEGRITY_CORRUPT:
            self.integrity_corrupt += 1
        elif topic == Topics.INTEGRITY_QUARANTINE:
            self.integrity_quarantined += 1
        elif topic == Topics.INTEGRITY_COMMIT:
            self.integrity_commits += 1
        elif topic == Topics.INTEGRITY_ORPHAN:
            self.integrity_orphans += 1
        elif topic.startswith("fault."):
            if topic == Topics.FAULT_INJECT:
                self.faults_injected += 1
            else:
                self.faults_cleared += 1
            kind = fields.get("kind", fields.get("fault", ""))
            self.narration.append((t, topic, str(kind)))
        elif topic.startswith("alert."):
            if topic == Topics.ALERT_RAISE:
                self.alerts_raised += 1
            else:
                self.alerts_cleared += 1
            label = f"{fields.get('detector', '?')}:{fields.get('severity', '')}"
            self.narration.append((t, topic, label))
        self.events_seen += 1

    def _add_task(self, fields: Dict) -> None:
        """Fold one ``task.result`` event's fields (no record retained)."""
        self.n_tasks += 1
        bw = self.bin_width
        category = fields["category"]
        exit_code = int(fields["exit_code"])
        ok = exit_code == 0
        started = float(fields["started"])
        finished = float(fields["finished"])
        segments = fields.get("segments") or {}
        lost_time = float(fields.get("lost_time", 0.0))
        output_bytes = float(fields.get("output_bytes", 0.0))
        if self.max_finished is None or finished > self.max_finished:
            self.max_finished = finished
        cat = self.tasks_by_category.setdefault(category, [0, 0])
        cat[0 if ok else 1] += 1
        i = int(finished / bw)
        cell = self._completions.get(i)
        if cell is None:
            cell = self._completions[i] = [0, 0]
        cell[0 if ok else 1] += 1
        if not ok:
            name = exit_code_name(exit_code)
            self.failure_codes[name] = self.failure_codes.get(name, 0) + 1
        elif output_bytes > 0:
            self._output[i] = self._output.get(i, 0.0) + output_bytes
            self.output_bytes += output_bytes
        if category != "analysis":
            return
        # Fig 8 breakdown — same branch structure as
        # RunMetrics.runtime_breakdown(analysis_only=True).
        b = self.breakdown
        b.task_failed += lost_time
        if ok:
            b.task_cpu += segments.get("cpu", 0.0)
            b.task_io += (
                segments.get("io", 0.0)
                + segments.get("stage_in", 0.0)
                + segments.get("stage_out", 0.0)
            )
            b.wq_stage_in += float(fields.get("wq_stage_in", 0.0))
            b.wq_stage_out += float(fields.get("wq_stage_out", 0.0))
            b.other += segments.get("validate", 0.0) + segments.get("setup", 0.0)
        else:
            b.task_failed += finished - started
        # Efficiency cells — mirrors efficiency_timeline's loop body.
        eff = self._eff.get(i)
        if eff is None:
            eff = self._eff[i] = [0.0, 0.0]
        eff[0] += segments.get("cpu", 0.0)
        eff[1] += (finished - started) + lost_time
        for seg, dur in segments.items():
            digest = self.segments.get(seg)
            if digest is None:
                digest = self.segments[seg] = SegmentDigest()
            digest.add(dur)

    def _add_flow(self, time: float, fields: Dict, ok: bool) -> None:
        """Fold one ``net.flow`` / ``net.flow.fail`` record."""
        self.n_flows += 1
        if not ok:
            self.n_flows_failed += 1
        cls = fields.get("cls", "bulk")
        nbytes = float(fields.get("nbytes" if ok else "moved", 0.0))
        elapsed = float(fields.get("elapsed", 0.0))
        started = float(fields.get("started", time - elapsed))
        finished = float(time)
        self.flow_bytes[cls] = self.flow_bytes.get(cls, 0.0) + nbytes
        if self.max_flow_finished is None or finished > self.max_flow_finished:
            self.max_flow_finished = finished
        if nbytes <= 0:
            return
        cells = self._bw.get(cls)
        if cells is None:
            cells = self._bw[cls] = {}
        bw = self.bin_width
        t0, t1 = started, max(finished, started)
        if t1 <= t0:  # instantaneous: all bytes land in one bin
            i = int(t0 / bw)
            cells[i] = cells.get(i, 0.0) + nbytes / bw
            return
        rate = nbytes / (t1 - t0)
        for i in range(int(t0 / bw), int(t1 / bw) + 1):
            b0 = i * bw
            overlap = min(t1, b0 + bw) - max(t0, b0)
            if overlap > 0:
                cells[i] = cells.get(i, 0.0) + rate * overlap / bw

    # -- finalisers --------------------------------------------------------
    def _starts(self, end: float) -> np.ndarray:
        return np.arange(0.0, max(end, self.bin_width), self.bin_width)

    @staticmethod
    def _fold(cells: Dict[int, float], n: int) -> np.ndarray:
        """Scatter unclamped cells into an *n*-bin array, clamping the
        overflow into the last bin (see module docstring)."""
        out = np.zeros(n)
        for i in sorted(cells):
            out[min(i, n - 1)] += cells[i]
        return out

    def efficiency_timeline(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bit-parity twin of ``RunMetrics.efficiency_timeline``.

        *now* (mid-run rendering) extends the time axis to the current
        sim time without changing any accumulated bin value.
        """
        if self.n_tasks == 0:
            return np.array([]), np.array([])
        end = self.max_finished
        if now is not None and now > end:
            end = now
        starts = self._starts(end)
        n = len(starts)
        cpu = self._fold({i: c[0] for i, c in self._eff.items()}, n)
        wall = self._fold({i: c[1] for i, c in self._eff.items()}, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            eff = np.where(wall > 0, cpu / wall, 0.0)
        return starts, eff

    def bandwidth_timeline(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Bit-parity twin of ``RunMetrics.bandwidth_timeline``."""
        if self.n_flows == 0:
            return np.array([]), {}
        end = self.max_flow_finished
        if now is not None and now > end:
            end = now
        starts = self._starts(end)
        n = len(starts)
        return starts, {cls: self._fold(cells, n) for cls, cells in self._bw.items()}

    def completion_counts(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bin_starts, ok counts, failed counts), all task categories.

        Bin edges match ``EventLog.counts(bin_width, t_end=end)``: the
        final edge closes the last bin, so completions stamped exactly
        at the run end fold into it.
        """
        if self.n_tasks == 0:
            return np.array([]), np.array([]), np.array([])
        end = self.max_finished
        if now is not None and now > end:
            end = now
        end = max(end, self.bin_width)
        edges = np.arange(0.0, end + self.bin_width, self.bin_width)
        n = len(edges) - 1
        ok = np.zeros(n, dtype=np.int64)
        failed = np.zeros(n, dtype=np.int64)
        for i, (o, f) in sorted(self._completions.items()):
            j = min(i, n - 1)
            ok[j] += o
            failed[j] += f
        return edges[:-1], ok, failed

    def output_timeline(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(bin_starts, cumulative output bytes at each bin end)."""
        if not self._output:
            return np.array([]), np.array([])
        end = self.max_finished or self.bin_width
        if now is not None and now > end:
            end = now
        starts = self._starts(end)
        n = len(starts)
        per_bin = self._fold(self._output, n)
        return starts, np.cumsum(per_bin)

    def running_timeline(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(bin_starts, max concurrent tasks per bin), gaps carried
        forward from the previous bin's last known level."""
        if not self._running_max:
            return np.array([]), np.array([])
        end_bin = max(self._running_max)
        if now is not None:
            end_bin = max(end_bin, int(now / self.bin_width))
        starts = np.arange(0, end_bin + 1) * self.bin_width
        out = np.zeros(len(starts))
        level = 0.0
        for i in range(len(starts)):
            level = self._running_max.get(i, level)
            out[i] = level
        return starts, out

    def overall_efficiency(self) -> float:
        b = self.breakdown
        return b.task_cpu / b.total if b.total > 0 else 0.0

    def n_succeeded(self, category: Optional[str] = None) -> int:
        if category is not None:
            return self.tasks_by_category.get(category, [0, 0])[0]
        return sum(v[0] for v in self.tasks_by_category.values())

    def n_failed(self, category: Optional[str] = None) -> int:
        if category is not None:
            return self.tasks_by_category.get(category, [0, 0])[1]
        return sum(v[1] for v in self.tasks_by_category.values())

    def retained_cells(self) -> int:
        """Peak-memory proxy: every live accumulator cell, counted.

        This is the number the CI density gate watches: it grows with
        *occupied windows* (and segment/class cardinality), never with
        event count.
        """
        return (
            len(self._eff)
            + len(self._completions)
            + len(self._output)
            + len(self._running_max)
            + sum(len(cells) for cells in self._bw.values())
            + len(self.segments) * (SegmentDigest.BINS + 2)
            + len(self.narration)
            + len(self.blacklisted_hosts)
            + len(self.tasks_by_category)
            + len(self.failure_codes)
            + len(self.flow_bytes)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Rollup bin={self.bin_width:g}s events={self.events_seen} "
            f"tasks={self.n_tasks} flows={self.n_flows} "
            f"cells={self.retained_cells()}>"
        )


def verify_parity(rollup: Rollup, metrics: RunMetrics) -> List[str]:
    """Compare a rollup against the exact path; return mismatch strings.

    Every timeline is compared bin-for-bin and every counter and float
    aggregate (Fig 8 breakdown, overall efficiency, flow and output
    bytes) with ``==``: both folds sum in arrival order, so they must
    agree to the bit.  Digest means use a 1e-9 relative tolerance
    because ``np.mean`` sums pairwise while the digest sums in order.
    """
    from .stats import all_segment_stats

    problems: List[str] = []

    def check(name: str, a, b) -> None:
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            problems.append(f"{name}: shape {a.shape} != {b.shape}")
        elif a.size and not np.array_equal(a, b):
            worst = float(np.max(np.abs(a - b)))
            problems.append(f"{name}: values differ (max abs delta {worst:g})")

    bw = rollup.bin_width
    # Timelines, bin for bin.
    es, ev = metrics.efficiency_timeline(bw)
    rs, rv = rollup.efficiency_timeline()
    check("efficiency.starts", rs, es)
    check("efficiency.values", rv, ev)
    fs, fseries = metrics.bandwidth_timeline(bw)
    gs, gseries = rollup.bandwidth_timeline()
    check("bandwidth.starts", gs, fs)
    if sorted(fseries) != sorted(gseries):
        problems.append(
            f"bandwidth.classes: {sorted(gseries)} != {sorted(fseries)}"
        )
    else:
        for cls in fseries:
            check(f"bandwidth[{cls}]", gseries[cls], fseries[cls])
    if rollup.n_tasks:
        end = rollup.max_finished
        cs, ok, failed = rollup.completion_counts()
        e_ok_s, e_ok = metrics.completions.counts(bw, "ok", t_end=end)
        _, e_failed = metrics.completions.counts(bw, "failed", t_end=end)
        check("completions.starts", cs, e_ok_s)
        check("completions.ok", ok, e_ok)
        check("completions.failed", failed, e_failed)
    # Headline counters, the Fig 8 breakdown and byte totals.
    output_bytes = 0.0
    for _t, nbytes in metrics.output_log:
        output_bytes += nbytes
    scalars = [
        ("n_tasks", rollup.n_tasks, metrics.n_tasks),
        ("n_succeeded", rollup.n_succeeded(), metrics.n_succeeded()),
        ("n_failed", rollup.n_failed(), metrics.n_failed()),
        ("evictions", rollup.evictions, metrics.evictions_seen),
        ("exhausted", rollup.tasks_exhausted, metrics.tasks_exhausted),
        ("fallbacks", rollup.fallbacks, len(metrics.stream_fallbacks)),
        ("resumes", rollup.resumes, len(metrics.recovery_resumes)),
        ("faults_injected", rollup.faults_injected, metrics.n_faults_injected),
        ("blacklisted", rollup.blacklisted_hosts, metrics.hosts_blacklisted()),
        ("corrupt", rollup.integrity_corrupt, len(metrics.integrity_corrupt)),
        (
            "quarantined",
            rollup.integrity_quarantined,
            len(metrics.integrity_quarantined),
        ),
        ("commits", rollup.integrity_commits, metrics.integrity_commits),
        ("orphans", rollup.integrity_orphans, len(metrics.integrity_orphans)),
        ("duplicates", rollup.duplicates_dropped, len(metrics.duplicates_dropped)),
        ("n_flows", rollup.n_flows, len(metrics.flows)),
        ("n_flows_failed", rollup.n_flows_failed, metrics.n_flows_failed()),
        ("flow_bytes", rollup.flow_bytes, metrics.flow_bytes_by_class()),
        ("output_bytes", rollup.output_bytes, output_bytes),
        (
            "breakdown",
            rollup.breakdown.as_dict(),
            metrics.runtime_breakdown().as_dict(),
        ),
        (
            "overall_efficiency",
            rollup.overall_efficiency(),
            metrics.overall_efficiency(),
        ),
        ("alerts_raised", rollup.alerts_raised, metrics.n_alerts_raised),
        ("alerts_cleared", rollup.alerts_cleared, metrics.n_alerts_cleared),
    ]
    for name, got, want in scalars:
        if got != want:
            problems.append(f"{name}: {got!r} != {want!r}")
    # Segment digests: exact counts/max, near-exact means.
    exact = all_segment_stats(metrics)
    if sorted(exact) != sorted(rollup.segments):
        problems.append(
            f"segments: {sorted(rollup.segments)} != {sorted(exact)}"
        )
    else:
        for seg, stats in exact.items():
            d = rollup.segments[seg]
            if d.n != stats.n:
                problems.append(f"segment[{seg}].n: {d.n} != {stats.n}")
                continue
            if not np.isclose(d.mean, stats.mean, rtol=1e-9, atol=0.0):
                problems.append(f"segment[{seg}].mean: {d.mean} != {stats.mean}")
            if d.max != stats.max:
                problems.append(f"segment[{seg}].max: {d.max} != {stats.max}")
    return problems
