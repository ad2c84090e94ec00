"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation varies one knob the paper fixes and verifies the direction
of the effect, justifying the production defaults:

* task buffer depth (400 in the paper) — a starved buffer idles cores;
* foreman fan-out — foremen relieve the master NIC of sandbox traffic;
* cache mode — the alien cache against the lock and private layouts at
  the whole-node level (complementing Fig 6's microbenchmark);
* interleaved merge threshold (10 %) — merging too eagerly creates
  undersized merge groups;
* streaming vs staging across WAN bandwidths — the Fig 4 conclusion
  holds from constrained to generous uplinks.

The buffer, cache-mode, and WAN ablations are declarative
:class:`~repro.sweep.SweepSpec` grids over the shared scenarios; the
remaining ablations exercise knobs (master NIC, merge thresholds,
hand-built sick machines) the declarative surface does not carry and
stay bespoke.
"""

import numpy as np

from repro.core import MergeMode
from repro.cvmfs import CacheMode
from repro.scenarios import GB, GBIT, HOUR
from repro.sweep import Axis, SweepSpec, Variant, run_sweep

from _scenarios import save_json, save_output


# ---------------------------------------------------------------- buffer depth
BUFFER_SPEC = SweepSpec(
    name="ablation-buffer",
    scenario="data_processing",
    base=dict(n_machines=10, n_files=200, start_interval=0.1),
    seed=21,
    axes=[
        Axis(
            "buffer",
            (
                Variant("4", {"task_buffer": 4}),
                Variant("400", {"task_buffer": 400}),
            ),
        ),
    ],
)


def run_buffer_ablation():
    payload = run_sweep(BUFFER_SPEC)
    assert payload["n_failed"] == 0, payload
    return payload, {
        r["params"]["task_buffer"]: r["metrics"]["makespan_s"]
        for r in payload["runs"]
    }


def test_ablation_task_buffer(benchmark):
    payload, res = benchmark.pedantic(run_buffer_ablation, rounds=1, iterations=1)
    text = "\n".join(f"buffer={d}: makespan={t / HOUR:.2f} h" for d, t in res.items())
    save_output("ablation_buffer.txt", text)
    save_json("ablation_buffer.json", payload)
    print("\n" + text)
    # A 400-deep buffer never starves dispatch; a 4-deep one must not be
    # faster.  (With fast task creation the gap is small but directional.)
    assert res[400] <= res[4] * 1.02


# ---------------------------------------------------------------- foremen
def test_ablation_foremen(benchmark):
    # Foremen matter when the master NIC is the bottleneck: pick a small
    # master NIC and heavy sandboxes.
    from repro.batch import CondorPool, GlideinRequest, MachinePool
    from repro.core import LobsterConfig, LobsterRun, Services, WorkflowConfig
    from repro.analysis import simulation_code
    from repro.desim import Environment
    from repro.wq import Foreman, Master

    def run_one(n_foremen):
        env = Environment()
        services = Services.default(env, seed=23)
        wf = WorkflowConfig(
            label="mc",
            code=simulation_code(intrinsic_failure_rate=0.0),
            n_events=240_000,
            events_per_tasklet=400,
            tasklets_per_task=2,
            merge_mode=MergeMode.NONE,
        )
        cfg = LobsterConfig(
            workflows=[wf], cores_per_worker=8, sandbox_bytes=500e6,
            bad_machine_rate=0.0,
        )
        master = Master(env, nic_bandwidth=0.5 * GBIT)
        run = LobsterRun(env, cfg, services, master=master)
        if n_foremen:
            run.foremen = [Foreman(env, master) for _ in range(n_foremen)]
        run.start()
        machines = MachinePool.homogeneous(env, 40, cores=8)
        pool = CondorPool(env, machines, seed=23)
        pool.submit(
            GlideinRequest(n_workers=40, cores_per_worker=8, start_interval=0.1),
            run.worker_payload,
        )
        env.run(until=run.process)
        pool.drain()
        recs = [r for r in run.metrics.records if r.category == "analysis"]
        mean_stage_in = float(np.mean([r.wq_stage_in for r in recs]))
        return env.now, mean_stage_in

    res = benchmark.pedantic(
        lambda: {n: run_one(n) for n in (0, 4)}, rounds=1, iterations=1
    )
    text = "\n".join(
        f"foremen={n}: makespan={t / HOUR:.2f} h, mean wq_stage_in={si:.1f} s"
        for n, (t, si) in res.items()
    )
    save_output("ablation_foremen.txt", text)
    print("\n" + text)
    # Foremen cache the sandbox and spread the stage-in load: both the
    # per-task stage-in time and the makespan improve.
    assert res[4][1] < res[0][1]
    assert res[4][0] <= res[0][0]


# ---------------------------------------------------------------- cache mode
CACHE_MODE_SPEC = SweepSpec(
    name="ablation-cache-mode",
    scenario="simulation",
    base=dict(
        n_machines=20,
        cores=8,
        n_events=192_000,
        events_per_tasklet=400,
        tasklets_per_task=4,
        intrinsic_failure_rate=0.0,
        bad_machine_rate=0.0,
        squid_bandwidth=1.0 * GBIT,
        # The bespoke run used Services.default's 32-connection Chirp
        # front-end, not the scenario's scaled-down default of 16.
        chirp_connections=32,
        start_interval=0.1,
    ),
    seed=24,
    axes=[
        Axis(
            "cache",
            tuple(
                Variant(m.name.lower(), {"cache_mode": m.name.lower()})
                for m in (CacheMode.LOCKED, CacheMode.PRIVATE, CacheMode.ALIEN)
            ),
        ),
    ],
)


def run_cache_mode_ablation():
    payload = run_sweep(CACHE_MODE_SPEC)
    assert payload["n_failed"] == 0, payload
    return payload, {
        CacheMode[r["variants"]["cache"].upper()]: (
            r["metrics"]["makespan_s"],
            r["metrics"]["mean_setup_s"],
            r["metrics"]["proxy_bytes"],
        )
        for r in payload["runs"]
    }


def test_ablation_cache_mode(benchmark):
    payload, res = benchmark.pedantic(
        run_cache_mode_ablation, rounds=1, iterations=1
    )
    text = "\n".join(
        f"{m.name:>8s}: makespan={t / HOUR:.2f} h, mean setup={s:.0f} s, proxy={b / GB:.1f} GB"
        for m, (t, s, b) in res.items()
    )
    save_output("ablation_cache_mode.txt", text)
    save_json("ablation_cache_mode.json", payload)
    print("\n" + text)
    alien = res[CacheMode.ALIEN]
    private = res[CacheMode.PRIVATE]
    locked = res[CacheMode.LOCKED]
    # Alien pulls the least data through the proxy tier...
    assert alien[2] < private[2]
    # ...and has the cheapest setups overall.
    assert alien[1] <= private[1] * 1.05
    assert alien[1] < locked[1]


# ---------------------------------------------------------------- merge threshold
def test_ablation_merge_threshold(benchmark):
    from repro.batch import CondorPool, GlideinRequest, MachinePool
    from repro.core import LobsterConfig, LobsterRun, Services, WorkflowConfig
    from repro.analysis import simulation_code
    from repro.desim import Environment

    def run_one(threshold):
        env = Environment()
        services = Services.default(env, seed=25)
        wf = WorkflowConfig(
            label="mc",
            code=simulation_code(intrinsic_failure_rate=0.0),
            n_events=240_000,
            events_per_tasklet=250,
            tasklets_per_task=6,
            merge_mode=MergeMode.INTERLEAVED,
            merge_threshold=threshold,
            merge_target_bytes=2.0 * GB,
        )
        cfg = LobsterConfig(workflows=[wf], cores_per_worker=4, bad_machine_rate=0.0)
        run = LobsterRun(env, cfg, services)
        run.start()
        machines = MachinePool.homogeneous(env, 10, cores=4)
        pool = CondorPool(env, machines, seed=25)
        pool.submit(
            GlideinRequest(n_workers=10, cores_per_worker=4, start_interval=0.1),
            run.worker_payload,
        )
        env.run(until=run.process)
        pool.drain()
        state = run.workflows["mc"]
        sizes = [f.size_bytes for f in state.merge.merged_files]
        return env.now, len(sizes), float(np.mean(sizes)) if sizes else 0.0

    res = benchmark.pedantic(
        lambda: {th: run_one(th) for th in (0.01, 0.10)}, rounds=1, iterations=1
    )
    text = "\n".join(
        f"threshold={th}: makespan={t / HOUR:.2f} h, merged_files={n}, mean_size={s / GB:.2f} GB"
        for th, (t, n, s) in res.items()
    )
    save_output("ablation_merge_threshold.txt", text)
    print("\n" + text)
    # Both thresholds merge everything into target-sized files; the
    # threshold exists to avoid starting merges before enough outputs
    # exist — correctness is identical and file sizes stay near target.
    for th, (t, n, mean_size) in res.items():
        assert n >= 1
        assert mean_size > 0.5 * GB


# ---------------------------------------------------------------- WAN sweep
WAN_BANDWIDTHS = (0.3 * GBIT, 0.6 * GBIT, 2.0 * GBIT)

WAN_SPEC = SweepSpec(
    name="ablation-wan",
    scenario="data_processing",
    base=dict(n_machines=6, n_files=60, eviction="none"),
    seed=26,
    axes=[
        Axis(
            "bw",
            tuple(
                Variant(
                    f"{bw / GBIT:.1f}g",
                    {"wan_bandwidth": bw, "chirp_bandwidth": bw},
                )
                for bw in WAN_BANDWIDTHS
            ),
        ),
        Axis(
            "access",
            (
                Variant("streaming", {"data_access": "xrootd"}),
                Variant("staging", {"data_access": "chirp"}),
            ),
        ),
    ],
)


def run_wan_sweep():
    payload = run_sweep(WAN_SPEC)
    assert payload["n_failed"] == 0, payload
    makespans = {
        (r["params"]["wan_bandwidth"], r["variants"]["access"]): (
            r["metrics"]["makespan_s"]
        )
        for r in payload["runs"]
    }
    rows = [
        (bw, makespans[(bw, "streaming")], makespans[(bw, "staging")])
        for bw in WAN_BANDWIDTHS
    ]
    return payload, rows


def test_ablation_wan_bandwidth(benchmark):
    payload, rows = benchmark.pedantic(run_wan_sweep, rounds=1, iterations=1)
    text = "\n".join(
        f"bw={bw / GBIT:.1f} Gbit: streaming={ts / HOUR:.2f} h, staging={tg / HOUR:.2f} h"
        for bw, ts, tg in rows
    )
    save_output("ablation_wan.txt", text)
    save_json("ablation_wan.json", payload)
    print("\n" + text)
    # Streaming beats staging at every bandwidth (partial reads), and the
    # gap narrows in absolute terms as the pipe widens.
    for bw, ts, tg in rows:
        assert ts < tg
    gaps = [tg - ts for _, ts, tg in rows]
    assert gaps[-1] < gaps[0]


# ---------------------------------------------------------------- adaptive sizing
def test_ablation_adaptive_task_size(benchmark):
    """§8 future work: the adaptive controller vs a fixed oversized task
    under an owner workload that returns mid-run."""
    from repro.analysis import simulation_code
    from repro.batch import CondorPool, GlideinRequest, MachinePool, OwnerWorkload
    from repro.core import LobsterConfig, LobsterRun, Services, WorkflowConfig
    from repro.desim import Environment
    from repro.distributions import ExponentialSampler

    def run_one(adaptive):
        env = Environment()
        services = Services.default(env)
        cfg = LobsterConfig(
            workflows=[
                WorkflowConfig(
                    label="mc",
                    code=simulation_code(cpu_per_event=2.0),
                    n_events=1_500_000,
                    events_per_tasklet=250,
                    tasklets_per_task=24,
                    merge_mode=MergeMode.NONE,
                    max_retries=1000,
                )
            ],
            cores_per_worker=4,
            task_buffer=16,
            adaptive_task_size=adaptive,
            adaptive_window=10,
        )
        run = LobsterRun(env, cfg, services)
        run.start()
        machines = MachinePool.homogeneous(env, 12, cores=4)
        pool = CondorPool(env, machines, seed=6)
        pool.submit(
            GlideinRequest(n_workers=12, cores_per_worker=4, start_interval=1.0),
            run.worker_payload,
        )

        def owner_returns(env):
            yield env.timeout(4 * HOUR)
            OwnerWorkload(
                env, pool, arrival_rate=5 / HOUR,
                duration=ExponentialSampler(1 * HOUR), seed=7,
            )

        env.process(owner_returns(env))
        env.run(until=run.process)
        pool.drain()
        return env.now, run.metrics.overall_efficiency(), run.workflows["mc"].sizer

    res = benchmark.pedantic(
        lambda: {flag: run_one(flag) for flag in (False, True)},
        rounds=1, iterations=1,
    )
    text = "\n".join(
        f"adaptive={flag}: makespan={t / HOUR:.2f} h, efficiency={e:.1%}"
        for flag, (t, e, _) in res.items()
    )
    save_output("ablation_adaptive.txt", text)
    print("\n" + text)
    fixed_t, fixed_e, _ = res[False]
    adapt_t, adapt_e, sizer = res[True]
    # The controller reacted to the owner's return by shrinking tasks...
    assert sizer is not None and sizer.size < 24
    assert all(d.reason == "shrink:lost-runtime" for d in sizer.decisions)
    # ...and the run finishes faster and more efficiently than fixed.
    assert adapt_t < fixed_t
    assert adapt_e > fixed_e


# ---------------------------------------------------------------- fast abort
def test_ablation_fast_abort(benchmark):
    """Straggler mitigation: a pool with two sick nodes (NICs ~500x
    slower) with and without Work Queue's fast abort."""
    from repro.analysis import simulation_code
    from repro.batch import CondorPool, GlideinRequest, Machine, MachinePool
    from repro.core import LobsterConfig, LobsterRun, Services, WorkflowConfig
    from repro.desim import Environment

    def run_one(fast_abort):
        env = Environment()
        services = Services.default(env, seed=27)
        wf = WorkflowConfig(
            label="mc",
            code=simulation_code(intrinsic_failure_rate=0.0, cpu_per_event=0.5),
            n_events=200_000,
            events_per_tasklet=400,
            tasklets_per_task=4,
            merge_mode=MergeMode.NONE,
            max_retries=100,
        )
        cfg = LobsterConfig(
            workflows=[wf],
            cores_per_worker=4,
            fast_abort_multiplier=3.0 if fast_abort else None,
            bad_machine_rate=0.0,
        )
        run = LobsterRun(env, cfg, services)
        run.start()
        machines = MachinePool(env)
        for i in range(10):
            sick = i < 2  # two sick nodes
            machines.add(
                Machine(
                    env,
                    f"n{i}",
                    cores=4,
                    nic_bandwidth=2.5e5 if sick else 1.25e8,
                    disk_bandwidth=1e6 if sick else 4e8,
                )
            )
        pool = CondorPool(env, machines, seed=27)
        pool.submit(
            GlideinRequest(n_workers=10, cores_per_worker=4, start_interval=0.1),
            run.worker_payload,
        )
        env.run(until=run.process)
        pool.drain()
        return env.now, run.master.tasks_aborted

    res = benchmark.pedantic(
        lambda: {flag: run_one(flag) for flag in (False, True)},
        rounds=1, iterations=1,
    )
    text = "\n".join(
        f"fast_abort={flag}: makespan={t / HOUR:.2f} h, aborted={aborted}"
        for flag, (t, aborted) in res.items()
    )
    save_output("ablation_fast_abort.txt", text)
    print("\n" + text)
    off_t, off_aborted = res[False]
    on_t, on_aborted = res[True]
    assert off_aborted == 0
    assert on_aborted >= 1
    # Aborting stragglers on the sick nodes shortens the run.
    assert on_t < off_t


# ---------------------------------------------------------------- proxy count
def test_ablation_proxy_count(benchmark):
    """Paper (Fig 5 discussion): 'After that point, more proxies are
    needed.'  4000 hot caches against 1, 2, and 4 proxies."""
    import numpy as np
    from repro.batch.machines import Machine
    from repro.cvmfs import CacheMode, CVMFSRepository, ParrotCache, ProxyFarm
    from repro.desim import Environment

    def mean_overhead(n_proxies, n_tasks=4000):
        env = Environment()
        repo = CVMFSRepository()
        farm = ProxyFarm.deploy(
            env, n_proxies, bandwidth=10 * GBIT, request_rate=5_000.0, timeout=1e9
        )
        elapsed = []

        def one_task(cache):
            r = yield from cache.setup(repo)
            elapsed.append(r.elapsed)

        for i in range(n_tasks):
            machine = Machine(env, f"m{i}", cores=8, disk_bandwidth=10 * GB)
            cache = ParrotCache(env, machine, farm, mode=CacheMode.ALIEN)
            cache._filled[repo.name] = True  # hot caches
            env.process(one_task(cache))
        env.run()
        return float(np.mean(elapsed))

    res = benchmark.pedantic(
        lambda: {n: mean_overhead(n) for n in (1, 2, 4)}, rounds=1, iterations=1
    )
    text = "\n".join(
        f"proxies={n}: mean hot overhead={v:.1f} s" for n, v in res.items()
    )
    save_output("ablation_proxy_count.txt", text)
    print("\n" + text)
    # Past the single-proxy knee, adding proxies restores the flat floor.
    assert res[2] < res[1]
    assert res[4] < res[2]
    # With 4 proxies, 4000 workers sit at ~1000/proxy — near the knee,
    # overhead within 2x of the unloaded floor (~30 s local work).
    assert res[4] < 60.0
