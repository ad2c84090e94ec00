"""Fig 10 — Timeline of the data processing run.

Paper: a two-day run peaking near 10k concurrent tasks.  Three panels:

* concurrent tasks running (ramps up to the pool size and holds),
* tasks completed / failed per time unit, with a burst of failures
  midway caused by a transient outage of the wide-area data handling
  system,
* CPU-time/wall-clock efficiency per time unit, peaking close to the
  ~70 % bound derived in §4.1, with a dip during the outage.

Scaled to 200 cores with the WAN outage injected mid-run.
"""

import numpy as np

from repro.distributions import WeibullEviction
from repro.scenarios import HOUR, data_processing_scenario
from repro.storage.wan import OutageWindow

from _scenarios import save_output

OUTAGE = OutageWindow(4.0 * HOUR, 5.0 * HOUR)
BIN = 0.5 * HOUR


def run_experiment():
    return data_processing_scenario(
        outages=[OUTAGE],
        eviction=WeibullEviction(scale=7 * HOUR, shape=0.6),
        seed=3,
    )


def test_fig10_processing_timeline(benchmark):
    s = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    m = s.run.metrics
    end = s.env.now

    # Panel 1: concurrent running tasks.
    run_t, run_v = m.running.binned(BIN, agg="mean", t_end=end)
    # Panel 2: completions and failures per bin.
    ok_t, ok_c = m.completions.counts(BIN, category="ok", t_end=end)
    _, bad_c = m.completions.counts(BIN, category="failed", t_end=end)
    # Panel 3: efficiency per bin.
    eff_t, eff = m.efficiency_timeline(BIN)

    n = min(len(run_t), len(ok_c), len(eff))
    lines = ["# Fig 10: data processing run timeline (bins of 30 min)",
             "# hour  running  completed  failed  efficiency"]
    for i in range(n):
        lines.append(
            f"{run_t[i] / HOUR:6.2f} {run_v[i]:8.1f} {ok_c[i]:10d} "
            f"{bad_c[i]:7d} {eff[i]:11.3f}"
        )
    out = "\n".join(lines)
    save_output("fig10_processing_timeline.txt", out)
    print("\n" + out)

    # --- shape assertions -------------------------------------------------
    total_cores = 200
    # Panel 1: the run ramps up to (near) the full pool and stays there.
    peak_running = max(run_v)
    assert peak_running > 0.9 * total_cores
    mid = run_v[2 : n - 3]
    assert np.mean(mid) > 0.7 * total_cores

    # Panel 2: failures burst during the outage window.
    in_outage = [
        i for i in range(n) if OUTAGE.start <= ok_t[i] < OUTAGE.end + BIN
    ]
    outside = [
        i
        for i in range(n)
        if ok_t[i] + BIN < OUTAGE.start or ok_t[i] > OUTAGE.end + BIN
    ]
    fail_in = sum(bad_c[i] for i in in_outage)
    fail_out_rate = sum(bad_c[i] for i in outside) / max(1, len(outside))
    assert fail_in > 3 * fail_out_rate * len(in_outage) + 5

    # Panel 3: efficiency peaks close to (and below ~) the §4.1 bound.
    steady = [eff[i] for i in range(2, n - 2) if i not in in_outage]
    assert 0.55 < max(steady) <= 0.85
    # Efficiency dips during/after the outage relative to steady state.
    dip_window = [eff[i] for i in in_outage if eff[i] > 0]
    if dip_window:
        assert min(dip_window) < np.median(steady)

    # The workload finished despite outage and evictions.
    wf = s.summary["workflows"]["data"]
    assert wf["tasklets_done"] + wf["tasklets_failed"] == wf["tasklets"]
    assert wf["tasklets_done"] > 0.99 * wf["tasklets"]

    # Paper: "the campus bandwidth ... was entirely used up by the
    # running tasks" — the scaled uplink runs hot for the whole run.
    wan_util = s.run.services.wan.link.utilization()
    print(f"WAN mean utilisation over the run: {wan_util:.0%}")
    assert wan_util > 0.6
