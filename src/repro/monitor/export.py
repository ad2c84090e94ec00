"""Export run data for external plotting and archival.

The paper's monitoring culminated in dashboards; users of this library
will want the same series in their own plotting stack.  This module
dumps a run's timelines, task records, and breakdown to CSV files — no
third-party dependencies, just the csv module — and can round-trip the
task records back for offline analysis.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, List

from ..desim.bus import BusEvent
from .records import RunMetrics, TaskRecord

__all__ = [
    "export_run",
    "load_task_records",
    "JsonlSink",
    "load_events",
]

HOUR = 3600.0


def _write_csv(path: str, header: List[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def export_run(
    metrics: RunMetrics,
    directory: str,
    bin_width: float = 1800.0,
    prefix: str = "run",
) -> Dict[str, str]:
    """Write the run's views as CSVs under *directory*.

    Produces (and returns paths for):

    * ``<prefix>_tasks.csv``      — one row per task attempt,
    * ``<prefix>_segments.csv``   — long-format per-segment durations,
    * ``<prefix>_timeline.csv``   — binned running/completed/failed/efficiency,
    * ``<prefix>_breakdown.csv``  — the Fig 8 table.
    """
    os.makedirs(directory, exist_ok=True)
    paths: Dict[str, str] = {}

    # ---- tasks ------------------------------------------------------------
    tasks_path = os.path.join(directory, f"{prefix}_tasks.csv")
    _write_csv(
        tasks_path,
        [
            "task_id", "workflow", "category", "exit_code", "submitted",
            "started", "finished", "wq_stage_in", "wq_stage_out",
            "lost_time", "output_bytes",
        ],
        (
            [
                r.task_id, r.workflow, r.category, r.exit_code, r.submitted,
                r.started, r.finished, r.wq_stage_in, r.wq_stage_out,
                r.lost_time, r.output_bytes,
            ]
            for r in metrics.records
        ),
    )
    paths["tasks"] = tasks_path

    # ---- segments (long format) ---------------------------------------------
    seg_path = os.path.join(directory, f"{prefix}_segments.csv")
    _write_csv(
        seg_path,
        ["task_id", "segment", "seconds"],
        (
            [r.task_id, name, seconds]
            for r in metrics.records
            for name, seconds in sorted(r.segments.items())
        ),
    )
    paths["segments"] = seg_path

    # ---- binned timeline ---------------------------------------------------------
    timeline_path = os.path.join(directory, f"{prefix}_timeline.csv")
    if metrics.records:
        end = max(r.finished for r in metrics.records)
        run_t, run_v = metrics.running.binned(bin_width, agg="mean", t_end=end)
        ok_t, ok_c = metrics.completions.counts(bin_width, category="ok", t_end=end)
        _, bad_c = metrics.completions.counts(bin_width, category="failed", t_end=end)
        eff_t, eff = metrics.efficiency_timeline(bin_width)
        n = min(len(x) for x in (run_t, ok_c, bad_c, eff) if len(x)) if len(run_t) else 0
        rows = [
            [run_t[i], run_v[i], ok_c[i], bad_c[i], eff[i]] for i in range(n)
        ]
    else:
        rows = []
    _write_csv(
        timeline_path,
        ["bin_start", "running_mean", "completed", "failed", "efficiency"],
        rows,
    )
    paths["timeline"] = timeline_path

    # ---- breakdown --------------------------------------------------------------
    breakdown_path = os.path.join(directory, f"{prefix}_breakdown.csv")
    b = metrics.runtime_breakdown()
    _write_csv(
        breakdown_path,
        ["phase", "hours", "percent"],
        ([label, hours, pct] for label, hours, pct in b.rows()),
    )
    paths["breakdown"] = breakdown_path
    return paths


class JsonlSink:
    """Bus sink appending one compact JSON object per event to *path*.

    The serialisation is deterministic: keys are emitted in insertion
    order (``t``, ``topic``, then the publisher's field order), with
    compact separators — two identically-seeded runs produce
    byte-identical files.  Attach with ``env.bus.attach(sink)``.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w")
        self.count = 0

    def __call__(self, event: BusEvent) -> None:
        if self._fh.closed:
            return  # stragglers may publish while the run winds down
        self._fh.write(json.dumps(event.as_dict(), separators=(",", ":")))
        self._fh.write("\n")
        self.count += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_events(path: str) -> List[dict]:
    """Read a :class:`JsonlSink` file back into event dicts."""
    out: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def load_task_records(path: str) -> List[TaskRecord]:
    """Read a ``*_tasks.csv`` back into :class:`TaskRecord` objects.

    Segment details are not stored in the tasks file; records round-trip
    with empty segment maps (join against the segments CSV if needed).
    """
    out: List[TaskRecord] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                TaskRecord(
                    task_id=int(row["task_id"]),
                    workflow=row["workflow"],
                    category=row["category"],
                    exit_code=int(row["exit_code"]),
                    submitted=float(row["submitted"]),
                    started=float(row["started"]),
                    finished=float(row["finished"]),
                    segments={},
                    wq_stage_in=float(row["wq_stage_in"]),
                    wq_stage_out=float(row["wq_stage_out"]),
                    lost_time=float(row["lost_time"]),
                    output_bytes=float(row["output_bytes"]),
                )
            )
    return out
