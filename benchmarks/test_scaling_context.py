"""§7 — Lobster in context: scaling behaviour.

The paper positions Lobster by the scale it reaches: ~10k simultaneous
data-processing tasks (comparable to the Fermilab T1 or the largest US
T2), limited by WAN bandwidth and caching infrastructure, and ~20k
simulation tasks, limited by the squid tier and the Chirp server.

This bench sweeps the pool size and verifies the paper's scaling story:

* simulation (CPU-bound) throughput grows ~linearly with cores — the
  workload that let Lobster double its scale;
* data processing throughput saturates once the fixed WAN uplink is
  fully consumed — adding cores past that point buys (almost) nothing,
  which is exactly why the paper reports the campus 10 Gbit/s link
  "entirely used up" at the 10k-task scale.
"""

from repro.distributions import NoEviction
from repro.scenarios import GBIT, HOUR, data_processing_scenario, simulation_scenario

from _scenarios import save_output

POOL_SIZES = (5, 10, 20, 40)  # machines of 8 cores


def run_data_sweep():
    rows = []
    for n in POOL_SIZES:
        s = data_processing_scenario(
            n_machines=n,
            n_files=300,
            wan_bandwidth=0.3 * GBIT,  # fixed uplink across the sweep
            eviction=NoEviction(),
            seed=31,
            start_interval=0.2,
        )
        events = sum(
            r.output_bytes for r in s.run.metrics.records if r.succeeded
        )
        rows.append((n * 8, s.env.now, events / s.env.now))
    return rows


def run_mc_sweep():
    rows = []
    for n in POOL_SIZES:
        s = simulation_scenario(
            n_machines=n,
            n_events=1_200_000,
            events_per_tasklet=500,
            tasklets_per_task=2,
            cpu_per_event=0.6,
            eviction=NoEviction(),
            seed=32,
            start_interval=0.2,
        )
        rows.append((n * 8, s.env.now, 1_200_000 / s.env.now))
    return rows


def test_scaling_simulation_near_linear(benchmark):
    rows = benchmark.pedantic(run_mc_sweep, rounds=1, iterations=1)
    text = "\n".join(
        f"cores={c:4d}: makespan={t / HOUR:6.2f} h, {r:8.1f} events/s"
        for c, t, r in rows
    )
    save_output("scaling_simulation.txt", text)
    print("\n" + text)
    # Doubling cores keeps improving throughput substantially (>1.5x per
    # doubling) because MC barely touches the shared WAN.
    rates = [r for _, _, r in rows]
    for a, b in zip(rates, rates[1:]):
        assert b > 1.5 * a
    # Overall: 8x the cores buys at least 4x the throughput.
    assert rates[-1] > 4 * rates[0]


def test_scaling_data_processing_saturates(benchmark):
    rows = benchmark.pedantic(run_data_sweep, rounds=1, iterations=1)
    text = "\n".join(
        f"cores={c:4d}: makespan={t / HOUR:6.2f} h, {r / 1e6:8.2f} MB/s output"
        for c, t, r in rows
    )
    save_output("scaling_data.txt", text)
    print("\n" + text)
    makespans = [t for _, t, _ in rows]
    # Small pools scale well...
    assert makespans[1] < 0.7 * makespans[0]
    # ...but the fixed WAN saturates: the last doubling of cores yields
    # much less than the first one did.
    gain_first = makespans[0] / makespans[1]
    gain_last = makespans[-2] / makespans[-1]
    assert gain_last < 0.75 * gain_first
    # And absolute saturation: 320 cores finish barely faster than 160.
    assert makespans[-1] > 0.6 * makespans[-2]
