"""Fig 11 — Timeline of the simulation (Monte-Carlo) run.

Paper: an 8-hour run reaching ~20k concurrent simulation tasks.  Four
panels:

* concurrent tasks running,
* software release setup time: peaks (~400 min in the paper) at the
  start while thousands of cold caches fill simultaneously through one
  squid, then drops sharply once caches are hot,
* stage-out time via Chirp: periodic waves as synchronized task batches
  overload the connection-bounded server,
* exit codes of failed tasks over time: a trickle dominated early by
  squid-related setup failures.

Scaled to 800 cores on one squid with a tight proxy timeout.
"""

import numpy as np

from repro.scenarios import HOUR, MINUTE, simulation_scenario

from _scenarios import save_output


def run_experiment():
    # One modest squid serving 800 cores: the cold-start fill takes tens
    # of minutes, and a timeout near the transient produces the paper's
    # early trickle of setup failures.
    s = simulation_scenario(
        seed=5,
        squid_timeout=1500.0,
        squid_bandwidth=0.8 * 125e6,
        chirp_bandwidth=1.6 * 125e6,
    )
    return s


def test_fig11_simulation_timeline(benchmark):
    s = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    m = s.run.metrics
    end = s.env.now
    BIN = 0.5 * HOUR

    run_t, run_v = m.running.binned(BIN, agg="mean", t_end=end)
    setup_t, setup_v = m.segment_timeline("setup")
    stage_t, stage_v = m.segment_timeline("stage_out")
    failures = m.failure_codes_timeline()

    lines = ["# Fig 11: simulation run timeline",
             "# panel 2: mean setup seconds by finish-time bin"]
    edges = np.arange(0.0, end + BIN, BIN)
    setup_bins = []
    for a, b in zip(edges, edges[1:]):
        sel = (setup_t >= a) & (setup_t < b)
        mean = float(setup_v[sel].mean()) if sel.any() else 0.0
        setup_bins.append(mean)
        lines.append(f"{a / HOUR:6.2f}  {mean:9.1f}")
    lines.append("# panel 3: mean stage-out seconds by finish-time bin")
    stage_bins = []
    for a, b in zip(edges, edges[1:]):
        sel = (stage_t >= a) & (stage_t < b)
        mean = float(stage_v[sel].mean()) if sel.any() else 0.0
        stage_bins.append(mean)
        lines.append(f"{a / HOUR:6.2f}  {mean:9.1f}")
    lines.append("# panel 4: failures (time_h, exit code)")
    for t, code in failures[:50]:
        lines.append(f"{t / HOUR:6.2f}  {code}")
    out = "\n".join(lines)
    save_output("fig11_simulation_timeline.txt", out)
    print("\n" + out)

    # --- shape assertions -------------------------------------------------
    # Panel 1: the pool fills to ~800 concurrent tasks.
    assert max(run_v) > 0.9 * 800

    # Panel 2: the cold-cache transient — setup time in the first bins
    # dwarfs the late-run (hot cache) setup time.
    early = [v for v in setup_bins[:3] if v > 0]
    late = [v for v in setup_bins[len(setup_bins) // 2 :] if v > 0]
    assert early and late
    assert max(early) > 4 * np.mean(late)
    # The cold transient is tens of minutes, not seconds.
    assert max(early) > 15 * MINUTE

    # Panel 3: stage-out shows wave behaviour — strong variation across
    # bins (peaks well above the median), driven by the connection-bound
    # Chirp server.
    nonzero = [v for v in stage_bins if v > 0]
    assert max(nonzero) > 2 * np.median(nonzero)

    # Panel 4: a small but continuous trickle of failures, with
    # squid/setup-related codes present among the early ones.
    assert len(failures) > 0
    codes = {code for _, code in failures}
    assert "SETUP_FAILED" in codes  # squid-related, as in the paper
    # Squid-related failures concentrate early (cold transient).
    setup_fail_times = [t for t, c in failures if c == "SETUP_FAILED"]
    assert np.median(setup_fail_times) < end / 2
    # Failures are a trickle, not a flood.
    assert len(failures) < 0.2 * m.n_tasks
