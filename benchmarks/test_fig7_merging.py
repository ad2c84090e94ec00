"""Fig 7 — Merging modes compared.

Paper: number of finished analysis and merge tasks over time for the
sequential, hadoop, and interleaved merging modes, with the completion
of the last merge marked.  Findings to reproduce:

* sequential merging takes the longest and suffers a long tail (all
  merge traffic squeezes through the Chirp server after processing);
* merging via Hadoop is more efficient with a shorter tail (data-local
  reduces bypass Chirp);
* interleaved merging is less resource-efficient but completes first
  overall because merges run concurrently with analysis.

Lobster uses interleaved merging as its default for exactly this reason.
The experiment is a one-axis :class:`~repro.sweep.SweepSpec` over the
``simulation`` scenario with ``record_series`` on, so each run carries
its analysis/merge completion timelines for the histogram.
"""

import numpy as np

from repro.core import MergeMode
from repro.scenarios import GBIT, HOUR, MINUTE
from repro.sweep import Axis, SweepSpec, Variant, run_sweep

from _scenarios import save_json, save_output

MODES = (MergeMode.SEQUENTIAL, MergeMode.HADOOP, MergeMode.INTERLEAVED)

SPEC = SweepSpec(
    name="fig7-merging",
    scenario="simulation",
    base=dict(
        n_machines=20,
        cores=4,
        n_events=450_000,  # ~300 analysis tasks of ~20 min
        events_per_tasklet=250,
        tasklets_per_task=6,
        cpu_per_event=0.8,
        # Constrain the Chirp front-end so post-processing merge waves
        # hurt, as they did in production.
        chirp_connections=4,
        chirp_bandwidth=1 * GBIT,
    ),
    seed=13,
    record_series=True,
    axes=[
        Axis("merge", tuple(Variant(m, {"merge_mode": m}) for m in MODES)),
    ],
)


def run_experiment():
    payload = run_sweep(SPEC)
    assert payload["n_failed"] == 0, payload
    res = {}
    for r in payload["runs"]:
        mode = r["variants"]["merge"]
        m, series = r["metrics"], r["series"]
        res[mode] = {
            "mode": mode,
            "analysis_done": series["analysis_done"],
            "merge_done": series["merge_done"],
            "makespan": m["makespan_s"],
            "last_merge": m.get("last_merge_s", float("nan")),
            "merged_files": int(m["merged_files"]),
        }
    return payload, res


def test_fig7_merging_modes(benchmark):
    payload, res = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    bin_w = 10 * MINUTE
    lines = ["# Fig 7: merging modes compared",
             f"# {'mode':>12s} {'makespan_h':>11s} {'last_merge_h':>13s} {'merged':>7s}"]
    for mode in MODES:
        m = res[mode]
        lines.append(
            f"{mode:>14s} {m['makespan'] / HOUR:11.2f} "
            f"{m['last_merge'] / HOUR:13.2f} {m['merged_files']:7d}"
        )
    lines.append("")
    for mode in MODES:
        m = res[mode]
        end = m["makespan"]
        edges = np.arange(0.0, end + bin_w, bin_w)
        a_counts, _ = np.histogram(m["analysis_done"], bins=edges)
        m_counts, _ = np.histogram(m["merge_done"], bins=edges)
        lines.append(f"# {mode}: analysis/merge completions per 10-minute bin")
        lines.append("  ".join(f"{a}/{g}" for a, g in zip(a_counts, m_counts)))
    out = "\n".join(lines)
    save_output("fig7_merging.txt", out)
    save_json("fig7_merging.json", payload)
    print("\n" + out)

    seq, had, inter = (
        res[MergeMode.SEQUENTIAL],
        res[MergeMode.HADOOP],
        res[MergeMode.INTERLEAVED],
    )

    # --- shape assertions -------------------------------------------------
    # Every mode merged everything.
    assert seq["merged_files"] >= 1
    assert had["merged_files"] >= 1
    assert inter["merged_files"] >= 1
    # Sequential takes the longest; interleaved completes first.
    assert seq["makespan"] > had["makespan"] > inter["makespan"]
    # Interleaved merges overlap analysis: merges finish before the last
    # analysis task does.
    last_analysis_inter = max(inter["analysis_done"])
    assert min(inter["merge_done"]) < last_analysis_inter
    # Sequential merges strictly follow analysis.
    last_analysis_seq = max(seq["analysis_done"])
    assert min(seq["merge_done"]) > last_analysis_seq
    # The sequential tail (analysis end → last merge) is the longest.
    seq_tail = seq["last_merge"] - max(seq["analysis_done"])
    had_tail = had["last_merge"] - max(had["analysis_done"])
    assert seq_tail > had_tail
