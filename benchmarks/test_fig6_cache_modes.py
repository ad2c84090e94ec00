"""Fig 6 — Cache-sharing architectures compared.

The paper's Fig 6 is an architectural diagram of five ways to share the
Parrot/CVMFS cache on a node: (a) one directory with an exclusive write
lock, (b) per-instance directories, (c) per-instance directories as
separate condor jobs, (d) one directory with concurrent population (the
"alien cache"), and (e) alien cache shared by several workers on one
node.  The text makes three quantitative claims which we verify:

* with mode (a) "only one instance may have writing access at any
  time" — cold setups serialise;
* modes (b)/(c) run concurrently but pull the full software volume per
  instance: "bandwidth required ... in direct proportion to the number
  of tasks", about 1.5 GB per cache;
* the alien cache (d)/(e) populates once per node with all instances
  proceeding concurrently — fastest and cheapest.

The microbenchmark itself lives in
:func:`repro.scenarios.cache_node_scenario`; this bench declares a
one-axis :class:`~repro.sweep.SweepSpec` over its five architectures.
"""

from repro.cvmfs import CVMFSRepository
from repro.scenarios import GB
from repro.sweep import Axis, SweepSpec, Variant, run_sweep

from _scenarios import save_json, save_output

N_INSTANCES = 8  # concurrent task instances on one node

MODES = ("a-locked", "b-private", "c-condor-jobs", "d-alien", "e-shared-node")

SPEC = SweepSpec(
    name="fig6-cache-modes",
    scenario="cache_node",
    base=dict(n_instances=N_INSTANCES, squid_gbit=2.0),
    seed=0,
    objective="all_done_s",
    axes=[
        Axis("arch", tuple(Variant(m, {"mode": m}) for m in MODES)),
    ],
)


def run_experiment():
    payload = run_sweep(SPEC)
    assert payload["n_failed"] == 0, payload
    res = {
        r["variants"]["arch"]: dict(r["metrics"], mode=r["variants"]["arch"])
        for r in payload["runs"]
    }
    return payload, res


def test_fig6_cache_architectures(benchmark):
    payload, res = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = ["# Fig 6: cache sharing architectures (8 cold instances/node)",
             f"# {'mode':>15s} {'all_done_s':>11s} {'proxy_GB':>9s}"]
    for label in MODES:
        m = res[label]
        lines.append(
            f"{label:>17s} {m['all_done_s']:11.1f} {m['proxy_bytes'] / GB:9.2f}"
        )
    out = "\n".join(lines)
    save_output("fig6_cache_modes.txt", out)
    save_json("fig6_cache_modes.json", payload)
    print("\n" + out)

    a, b, c = res["a-locked"], res["b-private"], res["c-condor-jobs"]
    d, e = res["d-alien"], res["e-shared-node"]
    cold_volume = CVMFSRepository().cold_volume

    # --- shape assertions -------------------------------------------------
    # (b)/(c) pull the full volume once per instance (~1.5 GB per cache)...
    assert b["proxy_bytes"] >= N_INSTANCES * cold_volume
    assert abs(b["proxy_bytes"] - c["proxy_bytes"]) < 0.01 * b["proxy_bytes"]
    # ...while the alien cache pulls it once per node (plus revalidation).
    assert d["proxy_bytes"] < 1.5 * cold_volume
    assert e["proxy_bytes"] < 1.5 * cold_volume
    # The lock in (a) serialises: the node finishes far later than alien.
    assert a["all_done_s"] > 2 * d["all_done_s"]
    # Private instances beat the lock (they are concurrent) but pay 8x
    # the bandwidth, so they are slower than alien too.
    assert d["all_done_s"] < b["all_done_s"] < a["all_done_s"]
    # (d) and (e) behave identically at this granularity.
    assert abs(d["all_done_s"] - e["all_done_s"]) < 0.05 * d["all_done_s"]
