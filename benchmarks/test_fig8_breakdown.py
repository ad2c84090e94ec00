"""Fig 8 (table) — Data processing runtime breakdown.

Paper (320,462 total hours):

    Task CPU Time   53.4 %
    Task I/O Time   20.4 %
    Task Failed     14.0 %
    WQ Stage In      6.9 %
    WQ Stage Out     2.8 %

"About three quarters of the total runtime were spent in the task
itself, either executing on the CPU or accessing data.  The most
significant loss of efficiency is failed tasks, caused by temporary
XrootD access problems."

We regenerate the table from a scaled 200-core data-processing run with
evictions and a transient WAN outage (the same conditions as Fig 10).
Absolute hours differ (smaller cluster, shorter run); the ordering and
rough magnitudes are the reproduction target.
"""

from repro.distributions import WeibullEviction
from repro.scenarios import HOUR, data_processing_scenario
from repro.storage.wan import OutageWindow

from _scenarios import save_output


def run_experiment():
    s = data_processing_scenario(
        outages=[OutageWindow(4.0 * HOUR, 5.0 * HOUR)],
        eviction=WeibullEviction(scale=7 * HOUR, shape=0.6),
        seed=3,
    )
    return s


def test_fig8_runtime_breakdown(benchmark):
    s = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    b = s.run.metrics.runtime_breakdown()
    rows = b.rows()

    lines = ["# Fig 8: data processing runtime breakdown",
             f"# {'phase':>16s} {'hours':>10s} {'percent':>8s}   (paper %)"]
    paper = {
        "Task CPU Time": 53.4,
        "Task I/O Time": 20.4,
        "Task Failed": 14.0,
        "WQ Stage In": 6.9,
        "WQ Stage Out": 2.8,
        "Other Overhead": None,
    }
    for label, hours, pct in rows:
        ref = paper.get(label)
        ref_s = f"{ref:6.1f}" if ref is not None else "   n/a"
        lines.append(f"{label:>18s} {hours:10.1f} {pct:8.2f}   {ref_s}")
    lines.append(f"{'Total':>18s} {b.total / 3600:10.1f}")
    out = "\n".join(lines)
    save_output("fig8_breakdown.txt", out)
    print("\n" + out)

    fr = b.fractions()
    # --- shape assertions -------------------------------------------------
    # CPU is the largest consumer.
    assert fr["task_cpu"] == max(fr.values())
    assert 0.40 < fr["task_cpu"] < 0.80
    # CPU + I/O is roughly three quarters of the total.
    assert 0.55 < fr["task_cpu"] + fr["task_io"] < 0.90
    # Failed/lost time is the most significant loss (outage + evictions),
    # clearly nonzero but not dominant.
    assert 0.03 < fr["task_failed"] < 0.30
    assert fr["task_failed"] > fr["wq_stage_in"]
    assert fr["task_failed"] > fr["wq_stage_out"]
    # WQ transfer phases are small.
    assert fr["wq_stage_in"] < 0.10
    assert fr["wq_stage_out"] < 0.10
    # I/O exceeds the WQ phases (streaming workload).
    assert fr["task_io"] > fr["wq_stage_in"]
    # The run really did see failures from the outage.
    assert s.run.metrics.n_failed() > 0
