"""Performance microbenchmarks of the DES kernel itself.

Not a paper figure: these guard the simulator's throughput, which is
what lets the figure benches run 10k-core days in seconds.  Unlike the
figure benches (single-shot `pedantic` runs), these use pytest-benchmark
properly — several rounds, statistics over wall time.

The bus-overhead tests quantify the event bus's contracts (see
DESIGN.md §12, "Hot-path event protocol"): an idle bus adds ~0% to
kernel event churn, and a fully subscribed bus stays within a bounded
overhead — with the per-topic :class:`~repro.desim.bus.TopicPort` fast
path held to a hard ceiling that CI gates on.  Raw numbers land in
``benchmarks/out/kernel_perf.txt`` (human) and ``kernel_perf.json``
(machine, schema ``repro.bench/1`` — the CI perf-smoke job reads it).
"""

import gc
import json
import os
import time
from collections import deque

from repro.desim import Environment, Resource, Store, Topics
from repro.net import Fabric

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: Hard ceiling CI gates on: TopicPort subscribed overhead (raw-tap
#: delivery, the blessed hot-consumer protocol) at adversarial density
#: (a domain event per kernel event).  The legacy publish() path
#: measured +83.8% here before the compiled index and lazy
#: materialisation.
PORT_SUBSCRIBED_CEILING = 0.30

#: Hard ceiling CI gates on: the live run-health engine's *marginal*
#: cost — a WatchEngine fold on the raw tap vs. a bare raw subscriber
#: on the same tap — at adversarial density.  The tap itself is already
#: gated by ``PORT_SUBSCRIBED_CEILING``; this bounds what watching adds.
WATCH_MARGINAL_CEILING = 0.30

# The benchmark topic is ad-hoc (not in the canonical namespace);
# register it so subscribing doesn't trip the never-matches warning.
Topics.register("bench.tick")


def churn_timeouts(n_processes=200, ticks=50):
    env = Environment()

    def ticker(env):
        for _ in range(ticks):
            yield env.timeout(1.0)

    for _ in range(n_processes):
        env.process(ticker(env))
    env.run()
    return env.now


def churn_resource(n_processes=200, rounds=20):
    env = Environment()
    res = Resource(env, capacity=8)

    def user(env):
        for _ in range(rounds):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

    for _ in range(n_processes):
        env.process(user(env))
    env.run()
    return env.now


def churn_store(n_items=5000):
    env = Environment()
    store = Store(env)

    def producer(env):
        for i in range(n_items):
            yield store.put(i)

    def consumer(env):
        for _ in range(n_items):
            yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()


def churn_link(n_flows=100, waves=10):
    env = Environment()
    link = Fabric(env).attach("l", 1e6)

    def sender(env):
        for _ in range(waves):
            yield link.transfer(1e4)

    for _ in range(n_flows):
        env.process(sender(env))
    env.run()
    return link.bytes_moved


def test_kernel_timeout_throughput(benchmark):
    # 10k events per round.
    result = benchmark(churn_timeouts)
    assert result == 50.0


def test_kernel_resource_contention(benchmark):
    # 200 processes x 20 acquisitions over an 8-slot resource.
    result = benchmark(churn_resource)
    assert result == 200 * 20 / 8


def test_kernel_store_throughput(benchmark):
    benchmark(churn_store)


def test_kernel_link_churn(benchmark):
    # 1000 flow arrivals/departures on one fabric link.
    moved = benchmark(churn_link)
    assert moved == 100 * 10 * 1e4


# ---------------------------------------------------------------------------
# event-bus overhead
# ---------------------------------------------------------------------------
def churn_domain_publish(n_processes=200, ticks=50, every=1, mode="idle"):
    """Timeout churn with a publish site every *every* ticks.

    *mode* selects the publish idiom at the site:

    * ``"baseline"`` — publish site compiled out (the reference loop);
    * ``"idle"`` / ``"subscribed"`` — the cold-site idiom ``if bus:`` +
      ``bus.port(topic).emit(**fields)`` (a port lookup per emit),
      without / with a live classic subscriber;
    * ``"port_idle"`` — the per-topic :class:`TopicPort` fast path
      (``if port.on: port.emit(...)``) with nothing subscribed;
    * ``"port_event"`` — the port fast path delivering to a classic
      (BusEvent-receiving) subscriber;
    * ``"port_raw"`` — the port fast path delivering to a ``raw=True``
      subscriber: no event object is materialised, the producer's
      field dict (stamped with ``"t"``) is the delivered record.  This
      is the blessed hot-consumer protocol (the tracer and collector
      subscribe this way) and the CI-gated number.

    All modes share the same loop shape so timing differences are
    attributable to the bus alone.  ``every=1`` is the adversarial
    worst case (a domain event per kernel event); real runs publish
    domain events orders of magnitude more sparsely — task dispatches
    vs. every timeout in the cluster.

    The subscriber is a bounded ``deque.append`` — a C-level callable
    with O(1) memory, so delivery cost is measured, not list growth.
    """
    env = Environment()
    seen = deque(maxlen=1024)

    if mode in ("subscribed", "port_event"):
        env.bus.subscribe("bench.tick", seen.append)
    elif mode == "port_raw":
        env.bus.subscribe("bench.tick", seen.append, raw=True)

    if mode.startswith("port"):
        port = env.bus.port("bench.tick")

        def ticker(env):
            for i in range(ticks):
                yield env.timeout(1.0)
                if i % every == 0 and port.on:
                    port.emit(n=i)

    else:
        publish = mode != "baseline"

        def ticker(env):
            for i in range(ticks):
                yield env.timeout(1.0)
                # Modulo first: all modes pay for the publish-site
                # selection, so the measured delta is the bus alone.
                if i % every == 0 and publish:
                    bus = env.bus
                    if bus:
                        bus.port("bench.tick").emit(n=i)

    for _ in range(n_processes):
        env.process(ticker(env))
    env.run()
    return len(seen)


def _best_of(fn, repeats=7):
    """Robust timing: min over *repeats* runs (noise only ever adds).

    GC stays *enabled*: collection cost is proportional to allocation
    churn, which is part of what the bus variants differ in — disabling
    it would flatter the allocating paths.  We only start each timing
    batch from a collected heap so leftover garbage from test setup
    doesn't land on the first run's clock.
    """
    best = float("inf")
    gc.collect()
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_interleaved(fns, repeats=11):
    """Min-of-N for several variants, interleaving them within each
    repeat so slow machine drift hits all variants equally.  GC stays
    enabled (see :func:`_best_of`); the heap is collected once up front
    so all variants start from the same state."""
    best = [float("inf")] * len(fns)
    gc.collect()
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


MODES = ("baseline", "idle", "subscribed", "port_idle", "port_event", "port_raw")


def _measure(every):
    """Overhead of each publish idiom vs. the baseline loop, at one
    event density.  Returns (baseline_seconds, {mode: ratio})."""
    times = _best_of_interleaved(
        [lambda m=m: churn_domain_publish(every=every, mode=m) for m in MODES]
    )
    base = times[0]
    return base, {m: times[i] / base - 1.0 for i, m in enumerate(MODES[1:], 1)}


def test_bus_overhead_idle_and_subscribed():
    """The bus contracts: idle ≈ free, subscribed = small and bounded.

    Measured at realistic event density (one domain event per 50 kernel
    events — still denser than a production run, where task events are
    outnumbered by timeouts by orders of magnitude), plus the dense
    worst case (a publish site on every kernel event).  The port fast
    path at adversarial density is the CI-gated number: it must stay
    under ``PORT_SUBSCRIBED_CEILING`` (the legacy publish path measured
    +83.8% before the compiled subscriber index).
    """
    base_r, real = _measure(every=50)  # realistic density
    base_d, dense = _measure(every=1)  # adversarial density

    n_events = 200 * 50  # kernel events per churn run
    results = {
        "realistic": {"baseline_ms": base_r * 1e3, "overhead": real},
        "adversarial": {"baseline_ms": base_d * 1e3, "overhead": dense},
        "events_per_sec": n_events / base_d,
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "kernel_perf.txt"), "w") as fh:
        fh.write(
            "bus overhead on 10k-kernel-event timeout churn, "
            "best of 11 interleaved\n"
            "(overhead relative to the same loop with the publish site "
            "compiled out)\n\n"
        )
        for label, key, base in (
            ("realistic density (1 domain event / 50 kernel events)", "realistic", base_r),
            ("adversarial density (1 domain event / kernel event)", "adversarial", base_d),
        ):
            fh.write(f"{label}:\n")
            fh.write(f"  baseline             {base * 1e3:8.3f} ms\n")
            ratios = results[key]["overhead"]
            fh.write(f"  idle cold site       {ratios['idle']:+8.1%}\n")
            fh.write(f"  subscribed cold site {ratios['subscribed']:+8.1%}\n")
            fh.write(f"  idle port            {ratios['port_idle']:+8.1%}\n")
            fh.write(f"  port -> event sub    {ratios['port_event']:+8.1%}\n")
            fh.write(f"  port -> raw sub      {ratios['port_raw']:+8.1%}\n\n")

    _write_json(results)

    # Realistic density: the guard is ~free, delivery stays within a few
    # percent.  Thresholds carry slack for CI noise.
    assert real["idle"] < 0.08, f"idle bus overhead {real['idle']:.1%}"
    assert real["subscribed"] < 0.12, f"subscribed bus overhead {real['subscribed']:.1%}"
    assert real["port_idle"] < 0.08, f"idle port overhead {real['port_idle']:.1%}"
    assert real["port_raw"] < 0.12, f"raw port overhead {real['port_raw']:.1%}"
    # Adversarial density: the guards stay ~free; the port raw tap is
    # held to the hard ceiling CI gates on; the event-materialising
    # paths are bounded loosely (they exist for cold sites and classic
    # sinks, not hot loops).
    assert dense["idle"] < 0.25, f"dense idle bus overhead {dense['idle']:.1%}"
    assert dense["port_idle"] < 0.25, f"dense idle port overhead {dense['port_idle']:.1%}"
    assert dense["port_raw"] < PORT_SUBSCRIBED_CEILING, (
        f"dense raw-port overhead {dense['port_raw']:.1%} "
        f"exceeds the {PORT_SUBSCRIBED_CEILING:.0%} ceiling"
    )
    assert dense["port_event"] < 1.00, (
        f"dense event-port overhead {dense['port_event']:.1%}"
    )
    assert dense["subscribed"] < 1.50, (
        f"dense subscribed bus overhead {dense['subscribed']:.1%}"
    )


def _write_json(results):
    """Machine-readable results for the CI perf-smoke gate."""
    payload = {
        "schema": "repro.bench/1",
        "bench": "kernel_perf",
        "config": {
            "n_processes": 200,
            "ticks": 50,
            "kernel_events": 200 * 50,
            "repeats": 11,
            "densities": {"realistic": 50, "adversarial": 1},
        },
        "ceilings": {"adversarial.port_raw": PORT_SUBSCRIBED_CEILING},
        "results": results,
    }
    with open(os.path.join(OUT_DIR, "kernel_perf.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_kernel_step_subscription_overhead():
    """kernel.step subscribers force the slow path; unsubscribing must
    restore the inlined fast loop."""
    fast = _best_of(lambda: churn_timeouts())

    def instrumented():
        env = Environment()
        n = [0]
        # kernel.step events arrive compacted: one event per (time,
        # kind) run, carrying how many steps it covers in ``count``.
        env.bus.subscribe(
            Topics.KERNEL_STEP,
            lambda e: n.__setitem__(0, n[0] + e.fields["count"]),
        )

        def ticker(env):
            for _ in range(50):
                yield env.timeout(1.0)

        for _ in range(200):
            env.process(ticker(env))
        env.run()
        assert n[0] >= 10_000

    slow = _best_of(instrumented)
    step_ratio = slow / fast - 1.0
    with open(os.path.join(OUT_DIR, "kernel_perf.txt"), "a") as fh:
        fh.write(
            f"kernel.step subscribed  {slow * 1e3:8.3f} ms "
            f"({step_ratio:+.1%} vs fast path)\n"
        )
    # Append to the JSON written by the bus-overhead test, if present
    # (tests may run standalone or out of order).
    json_path = os.path.join(OUT_DIR, "kernel_perf.json")
    if os.path.exists(json_path):
        with open(json_path) as fh:
            payload = json.load(fh)
        payload["results"]["kernel_step"] = {
            "fast_ms": fast * 1e3,
            "subscribed_ms": slow * 1e3,
            "overhead": step_ratio,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    # Sanity only: per-step publication is expected to cost real time,
    # but not be catastrophic.
    assert slow < fast * 20


def churn_watch_tap(n_processes=200, ticks=50):
    """The adversarial port-churn loop with a live WatchEngine folding
    every delivered record (same loop shape as
    :func:`churn_domain_publish` mode ``"port_raw"``, so the timing
    delta vs. that mode is the engine's fold alone).

    Records are ingested as ``cache.hit`` — a real watch topic on the
    hottest dispatch branch — with a short window so the run also pays
    for periodic window closes (detector evaluation), not just the
    per-event counters.
    """
    from repro.monitor.watch import WatchEngine

    env = Environment()
    engine = WatchEngine(window=10.0)
    ingest = engine.ingest
    hit = Topics.CACHE_HIT
    env.bus.subscribe(
        "bench.tick", lambda rec: ingest(hit, rec["t"], rec), raw=True
    )
    port = env.bus.port("bench.tick")

    def ticker(env):
        for i in range(ticks):
            yield env.timeout(1.0)
            if i % 1 == 0 and port.on:
                port.emit(n=i)

    for _ in range(n_processes):
        env.process(ticker(env))
    env.run()
    return engine.events_seen


def test_watch_engine_overhead():
    """The live run-health fold must stay within its marginal ceiling.

    Measured at adversarial density (every kernel event delivers a
    domain record into the engine); real runs feed the watcher orders
    of magnitude more sparsely.  Two ratios land in the artifacts:

    * ``overhead_vs_raw_tap`` — the CI-gated number: WatchEngine fold
      vs. a bare ``deque.append`` raw subscriber on the same tap.
    * ``overhead_vs_baseline`` — informational: the full cost of tap +
      fold vs. the loop with the publish site compiled out.
    """
    times = _best_of_interleaved([
        lambda: churn_domain_publish(mode="baseline"),
        lambda: churn_domain_publish(mode="port_raw"),
        churn_watch_tap,
    ])
    base, raw_tap, watched = times
    marginal = watched / raw_tap - 1.0
    full = watched / base - 1.0

    assert churn_watch_tap() == 200 * 50  # every record reached the fold

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "kernel_perf.txt"), "a") as fh:
        fh.write(
            f"watch engine on raw tap {watched * 1e3:8.3f} ms "
            f"({marginal:+.1%} vs bare raw tap, {full:+.1%} vs baseline)\n"
        )
    # Append to the JSON written by the bus-overhead test, if present
    # (tests may run standalone or out of order).
    json_path = os.path.join(OUT_DIR, "kernel_perf.json")
    if os.path.exists(json_path):
        with open(json_path) as fh:
            payload = json.load(fh)
        payload["results"]["watch"] = {
            "baseline_ms": base * 1e3,
            "raw_tap_ms": raw_tap * 1e3,
            "watched_ms": watched * 1e3,
            "overhead_vs_raw_tap": marginal,
            "overhead_vs_baseline": full,
        }
        payload.setdefault("ceilings", {})[
            "adversarial.watch_marginal"
        ] = WATCH_MARGINAL_CEILING
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    assert marginal < WATCH_MARGINAL_CEILING, (
        f"watch fold adds {marginal:.1%} over the bare raw tap at "
        f"adversarial density — exceeds the "
        f"{WATCH_MARGINAL_CEILING:.0%} ceiling"
    )


def test_bus_idle_publish_benchmark(benchmark):
    # The guarded-publish pattern under pytest-benchmark statistics
    # (dense worst case: a publish site on every kernel event).
    count = benchmark(churn_domain_publish)
    assert count == 0


def test_bus_subscribed_publish_benchmark(benchmark):
    # The sink deque is bounded, so a full deque proves delivery ran.
    count = benchmark(lambda: churn_domain_publish(mode="subscribed"))
    assert count == 1024


def test_bus_port_publish_benchmark(benchmark):
    # The TopicPort raw fast path under pytest-benchmark statistics.
    count = benchmark(lambda: churn_domain_publish(mode="port_raw"))
    assert count == 1024
