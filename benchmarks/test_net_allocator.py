"""Performance gate for the incremental water-filling allocator.

The fabric's promise is that allocation work scales with the *touched*
component and that changes coalesce per DES timestamp — not one global
recompute per flow event.  Two guards enforce it:

* a machine-independent recompute count: 1000 three-hop flows started
  in batched waves must trigger a number of allocation flushes on the
  order of the number of distinct timestamps, not the number of flows;
  and since every flow crosses the WAN, the tightest link, each flush
  settles in one round without a general ``waterfill`` call;
* a wall-time gate against the checked-in baseline in
  ``benchmarks/out/net_allocator_baseline.txt`` with a generous
  tolerance (CI machines vary; the gate catches complexity blow-ups,
  not noise).

Current numbers are written to ``benchmarks/out/net_allocator.txt`` for
the CI artifact upload.
"""

import os
import time

import repro.net.fabric
from repro.desim import Environment
from repro.net import Fabric, waterfill

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
BASELINE = os.path.join(OUT_DIR, "net_allocator_baseline.txt")

#: Allowed slowdown vs. the checked-in baseline.  Deliberately loose:
#: an O(flows) -> O(flows^2) regression overshoots this by orders of
#: magnitude, machine-to-machine noise does not.
TOLERANCE = 3.0

N_MACHINES = 100
N_RACKS = 5
FLOWS_PER_MACHINE = 10  # -> 1000 concurrent three-hop flows


def build_fabric(env):
    """100 machine NICs under 5 rack trunks plus the WAN uplink: every
    machine-to-world route is exactly three hops."""
    fabric = Fabric(env)
    fabric.attach("wan", 1.25e9, node="world")
    for r in range(N_RACKS):
        fabric.attach(f"rack{r}.trunk", 5e9, node=f"rack{r}")
    for i in range(N_MACHINES):
        fabric.attach(
            f"m{i}.nic", 1.25e8, node=f"m{i}", parent=f"rack{i % N_RACKS}"
        )
    return fabric


def churn_fabric():
    """1000 concurrent flows, joined at one timestamp, completing in 10
    batches (10 distinct sizes); returns (fabric, flush count)."""
    env = Environment()
    fabric = build_fabric(env)
    flushes = [0]
    inner = fabric._flush

    def counting_flush():
        flushes[0] += 1
        inner()

    fabric._flush = counting_flush
    for i in range(N_MACHINES):
        for b in range(FLOWS_PER_MACHINE):
            fabric.transfer((b + 1) * 1e8, src=f"m{i}", dst="world")
    env.run()
    assert fabric.flows_completed == N_MACHINES * FLOWS_PER_MACHINE
    return fabric, flushes[0]


def count_general_waterfills(monkeypatch):
    """The churn run's ``waterfill`` calls: flushes the one-round path
    could not settle."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return waterfill(*args)

    monkeypatch.setattr(repro.net.fabric, "waterfill", counting)
    churn_fabric()
    monkeypatch.undo()
    return calls[0]


def time_waterfill():
    """One cold allocation of 1000 three-hop flows."""
    caps = {}
    caps["wan"] = 1.25e9
    for r in range(N_RACKS):
        caps[f"trunk{r}"] = 5e9
    for i in range(N_MACHINES):
        caps[f"nic{i}"] = 1.25e8
    routes = [
        (f"nic{i}", f"trunk{i % N_RACKS}", "wan")
        for i in range(N_MACHINES)
        for _ in range(FLOWS_PER_MACHINE)
    ]
    rates = waterfill(caps, routes, [None] * len(routes))
    assert sum(rates) <= 1.25e9 * (1 + 1e-6)
    return rates


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _read_baseline():
    baseline = {}
    with open(BASELINE) as fh:
        for line in fh:
            if ":" in line:
                key, value = line.split(":", 1)
                baseline[key.strip()] = float(value)
    return baseline


def test_allocator_perf_against_baseline(monkeypatch):
    waterfill_ms = _best_of(time_waterfill) * 1e3
    churn_ms = _best_of(churn_fabric) * 1e3
    _, flushes = churn_fabric()
    general = count_general_waterfills(monkeypatch)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "net_allocator.txt"), "w") as fh:
        fh.write(
            "incremental water-filling allocator, 1000 flows on 3-hop "
            "paths, best of 5\n\n"
        )
        fh.write(f"waterfill_1k_3hop_ms: {waterfill_ms:.3f}\n")
        fh.write(f"fabric_churn_1k_ms: {churn_ms:.3f}\n")
        fh.write(f"allocation_flushes: {flushes}\n")
        fh.write(f"general_waterfill_calls: {general}\n")

    # Machine-independent: joins coalesce to one flush, completions to
    # one per distinct finish time (10 sizes), each followed by at most
    # one timer re-arm flush.  50 leaves order-of-magnitude slack while
    # catching any per-flow-recompute regression (which would be ~1000).
    assert flushes <= 50, f"{flushes} allocation flushes for batched waves"
    # Every flush's component is bottlenecked by the WAN, which carries
    # every flow: none needs the general water-filling pass.
    assert general == 0, f"{general} general waterfill calls over {flushes} flushes"

    baseline = _read_baseline()
    assert waterfill_ms <= baseline["waterfill_1k_3hop_ms"] * TOLERANCE, (
        f"waterfill took {waterfill_ms:.2f} ms, baseline "
        f"{baseline['waterfill_1k_3hop_ms']:.2f} ms (x{TOLERANCE} allowed)"
    )
    assert churn_ms <= baseline["fabric_churn_1k_ms"] * TOLERANCE, (
        f"fabric churn took {churn_ms:.2f} ms, baseline "
        f"{baseline['fabric_churn_1k_ms']:.2f} ms (x{TOLERANCE} allowed)"
    )


def test_allocator_waterfill_benchmark(benchmark):
    rates = benchmark(time_waterfill)
    assert len(rates) == N_MACHINES * FLOWS_PER_MACHINE


def test_allocator_fabric_churn_benchmark(benchmark):
    fabric, _flushes = benchmark(churn_fabric)
    assert fabric.flows_failed == 0
