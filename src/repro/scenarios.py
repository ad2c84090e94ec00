"""Shared scenario builders — the single source of truth for every
figure bench, CLI command, and sweep variant.

Historically each ``benchmarks/test_fig*.py`` and each CLI subcommand
built its own copy of the Notre Dame deployment; this module extracts
them so one construction feeds three consumers:

* the figure benchmarks (:func:`data_processing_scenario`,
  :func:`simulation_scenario`, :func:`cache_node_scenario`) — build and
  run to completion, return a :class:`ScenarioResult`;
* the CLI (``prepare_*`` builders) — build but do *not* step the clock,
  so ``python -m repro`` can attach event sinks and drive the run
  itself via :func:`execute_prepared`;
* the :mod:`repro.sweep` engine — declarative params resolved by the
  scenario registry land on exactly these builders, so a sweep variant
  and a bespoke bench produce byte-identical dynamics.

Scaling rule (inherited from the benchmarks): core counts are reduced
~10x from the paper's 10-20k, and shared-resource capacities (WAN,
squid, Chirp) are reduced by the same factor, so queueing and
congestion *shapes* are preserved while runs stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .analysis import data_processing_code, simulation_code
from .batch import CondorPool, GlideinRequest, MachinePool
from .core import (
    DataAccess,
    LobsterConfig,
    LobsterRun,
    MergeMode,
    Services,
    WorkflowConfig,
)
from .dbs import DBS, synthetic_dataset
from .desim import Environment
from .distributions import (
    ConstantHazardEviction,
    EvictionModel,
    NoEviction,
    WeibullEviction,
)
from .storage.wan import OutageWindow
from .wq import Foreman

__all__ = [
    "HOUR",
    "MINUTE",
    "KB",
    "MB",
    "GB",
    "GBIT",
    "ScenarioResult",
    "PreparedRun",
    "data_processing_scenario",
    "simulation_scenario",
    "cache_node_scenario",
    "prepare_quickstart",
    "prepare_simulate",
    "prepare_process",
    "prepare_chaos",
    "execute_prepared",
    "settle_run",
    "warm_restart",
]

HOUR = 3600.0
MINUTE = 60.0
KB = 1_000.0
MB = 1_000_000.0
GB = 1_000_000_000.0
GBIT = 125_000_000.0


@dataclass
class ScenarioResult:
    """A finished scenario: environment, run, pool, and the run summary."""

    env: Environment
    run: LobsterRun
    pool: CondorPool
    summary: dict


@dataclass
class PreparedRun:
    """A scenario built but not yet executed (the clock has not moved).

    The CLI attaches sinks/tracers between construction and execution;
    the sweep engine attaches a :class:`~repro.monitor.SpanTracer`.
    Call :func:`execute_prepared` (or step ``env`` yourself) to run it.
    """

    env: Environment
    run: LobsterRun
    pool: CondorPool
    services: Services
    injector: object = None  #: FaultInjector for chaos scenarios
    extras: dict = field(default_factory=dict)


def execute_prepared(
    prepared: PreparedRun, settle: Optional[float] = 300.0
) -> ScenarioResult:
    """Drive a :class:`PreparedRun` to completion and drain the pool.

    *settle* extends the run after the drain so workers and glide-ins
    exit cleanly instead of being garbage-collected mid-yield (the CLI
    behaviour); pass ``None`` to stop at the last task like the figure
    benchmarks do.
    """
    env = prepared.env
    summary = env.run(until=prepared.run.process)
    prepared.pool.drain()
    if settle is not None:
        settle_run(env, settle)
    return ScenarioResult(env, prepared.run, prepared.pool, summary)


def settle_run(env: Environment, seconds: float) -> None:
    """Run *env* on for *seconds*, or until its event queue drains."""
    try:
        env.run(until=env.now + seconds)
    except RuntimeError:
        pass  # queue drained before the settling window elapsed


# --------------------------------------------------------------------------
# Figure-benchmark scenarios (run to completion).
# --------------------------------------------------------------------------


def data_processing_scenario(
    n_machines: int = 25,
    cores: int = 8,
    n_files: int = 1_200,
    events_per_file: int = 45_000,
    lumis_per_file: int = 60,
    lumis_per_tasklet: int = 10,
    tasklets_per_task: int = 6,
    cpu_per_event: float = 0.08,
    wan_bandwidth: float = 0.6 * GBIT,
    outages: Optional[List[OutageWindow]] = None,
    eviction: Optional[EvictionModel] = None,
    merge_mode: str = MergeMode.NONE,
    data_access: str = DataAccess.XROOTD,
    chirp_bandwidth: Optional[float] = None,
    until: float = 400 * HOUR,
    seed: int = 0,
    start_interval: float = 2.0,
    foremen: int = 0,
    task_buffer: int = 400,
    env: Optional[Environment] = None,
) -> ScenarioResult:
    """A scaled Fig 10-style data processing run.

    Default geometry: 200 cores streaming over a ~0.6 Gbit/s uplink (the
    paper's ~10k tasks saturating 10 Gbit/s, scaled down together so the
    I/O-to-CPU ratio stays near the paper's ~20 %/53 %), one ~1-hour task
    per input file as §4.1 prescribes.
    """
    env = env if env is not None else Environment()
    dbs = DBS()
    ds = synthetic_dataset(
        n_files=n_files,
        events_per_file=events_per_file,
        lumis_per_file=lumis_per_file,
        seed=seed,
    )
    dbs.register(ds)
    services = Services.default(
        env, dbs=dbs, wan_bandwidth=wan_bandwidth, outages=outages, seed=seed
    )
    if chirp_bandwidth is not None:
        services.chirp.link.set_capacity(chirp_bandwidth)
    wf = WorkflowConfig(
        label="data",
        code=data_processing_code(cpu_per_event=cpu_per_event),
        dataset=ds.name,
        lumis_per_tasklet=lumis_per_tasklet,
        tasklets_per_task=tasklets_per_task,
        merge_mode=merge_mode,
        data_access=data_access,
        max_retries=100,
    )
    cfg = LobsterConfig(workflows=[wf], cores_per_worker=cores, task_buffer=task_buffer)
    run = LobsterRun(env, cfg, services)
    if foremen:
        run.foremen = [Foreman(env, run.master) for _ in range(foremen)]
    run.start()
    machines = MachinePool.homogeneous(env, n_machines, cores=cores)
    pool = CondorPool(
        env, machines, eviction=eviction or WeibullEviction(), seed=seed,
        workflows=[wf.label],
    )
    pool.submit(
        GlideinRequest(
            n_workers=n_machines, cores_per_worker=cores, start_interval=start_interval
        ),
        run.worker_payload,
    )
    summary = env.run(until=run.process)
    pool.drain()
    return ScenarioResult(env, run, pool, summary)


def simulation_scenario(
    n_machines: int = 100,
    cores: int = 8,
    n_events: int = 6_000_000,
    events_per_tasklet: int = 500,
    tasklets_per_task: int = 6,
    cpu_per_event: float = 1.2,
    n_proxies: int = 1,
    chirp_connections: int = 16,
    chirp_bandwidth: Optional[float] = None,
    squid_timeout: Optional[float] = None,
    squid_bandwidth: Optional[float] = None,
    with_hadoop: bool = False,
    eviction: Optional[EvictionModel] = None,
    merge_mode: str = MergeMode.NONE,
    until: float = 400 * HOUR,
    seed: int = 0,
    start_interval: float = 0.5,
    intrinsic_failure_rate: Optional[float] = None,
    cache_mode=None,
    bad_machine_rate: Optional[float] = None,
    env: Optional[Environment] = None,
) -> ScenarioResult:
    """A scaled Fig 11-style Monte-Carlo run.

    All workers start nearly simultaneously with cold caches, driving the
    squid tier into its saturation transient; large per-task outputs
    queue on a connection-bounded Chirp server.
    """
    env = env if env is not None else Environment()
    services = Services.default(
        env,
        n_proxies=n_proxies,
        chirp_connections=chirp_connections,
        with_hadoop=with_hadoop or merge_mode == MergeMode.HADOOP,
        seed=seed,
    )
    if chirp_bandwidth is not None:
        services.chirp.link.set_capacity(chirp_bandwidth)
    if squid_timeout is not None:
        for proxy in services.proxies.proxies:
            proxy.timeout = squid_timeout
    if squid_bandwidth is not None:
        for proxy in services.proxies.proxies:
            proxy.data_link.set_capacity(squid_bandwidth)
    code_kwargs = {"cpu_per_event": cpu_per_event}
    if intrinsic_failure_rate is not None:
        code_kwargs["intrinsic_failure_rate"] = intrinsic_failure_rate
    wf = WorkflowConfig(
        label="mc",
        code=simulation_code(**code_kwargs),
        n_events=n_events,
        events_per_tasklet=events_per_tasklet,
        tasklets_per_task=tasklets_per_task,
        merge_mode=merge_mode,
        max_retries=100,
    )
    cfg_kwargs = {}
    if cache_mode is not None:
        cfg_kwargs["cache_mode"] = cache_mode
    if bad_machine_rate is not None:
        cfg_kwargs["bad_machine_rate"] = bad_machine_rate
    cfg = LobsterConfig(workflows=[wf], cores_per_worker=cores, **cfg_kwargs)
    run = LobsterRun(env, cfg, services)
    run.start()
    machines = MachinePool.homogeneous(env, n_machines, cores=cores)
    pool = CondorPool(
        env, machines, eviction=eviction or NoEviction(), seed=seed,
        workflows=[wf.label],
    )
    pool.submit(
        GlideinRequest(
            n_workers=n_machines, cores_per_worker=cores, start_interval=start_interval
        ),
        run.worker_payload,
    )
    summary = env.run(until=run.process)
    pool.drain()
    return ScenarioResult(env, run, pool, summary)


def cache_node_scenario(
    mode_label: str,
    n_instances: int = 8,
    squid_gbit: float = 2.0,
    env: Optional[Environment] = None,
) -> dict:
    """Fig 6 microbenchmark: concurrent cold cache setups on one node.

    *mode_label* names one of the paper's five cache-sharing
    architectures: ``a-locked``, ``b-private``, ``c-condor-jobs``,
    ``d-alien``, ``e-shared-node``.  Returns the completion times and
    proxy traffic of *n_instances* concurrent cold setups.
    """
    from .batch.machines import Machine
    from .cvmfs import CacheMode, CVMFSRepository, ParrotCache, SquidProxy

    env = env if env is not None else Environment()
    repo = CVMFSRepository()
    proxy = SquidProxy(
        env, bandwidth=squid_gbit * GBIT, request_rate=4_000.0, timeout=1e9
    )
    machine = Machine(env, "node", cores=n_instances, disk_bandwidth=10 * GB)

    if mode_label in ("a-locked", "d-alien"):
        mode = CacheMode.LOCKED if mode_label == "a-locked" else CacheMode.ALIEN
        caches = [ParrotCache(env, machine, proxy, mode=mode)] * n_instances
    elif mode_label in ("b-private", "c-condor-jobs"):
        # One cache per instance (c just runs them as separate condor
        # jobs — identical cache behaviour, which is the paper's point).
        caches = [
            ParrotCache(env, machine, proxy, mode=CacheMode.PRIVATE)
            for _ in range(n_instances)
        ]
    elif mode_label == "e-shared-node":
        # Two 4-core workers on the node sharing a single alien cache.
        shared = ParrotCache(env, machine, proxy, mode=CacheMode.ALIEN)
        caches = [shared] * n_instances
    else:
        raise ValueError(f"unknown cache architecture {mode_label!r}")

    finish = []

    def task(cache):
        yield from cache.setup(repo)
        finish.append(env.now)

    for cache in caches:
        env.process(task(cache))
    env.run()
    return {
        "mode": mode_label,
        "all_done_s": max(finish),
        "first_done_s": min(finish),
        "proxy_bytes": proxy.bytes_served,
    }


# --------------------------------------------------------------------------
# CLI scenarios (built, not executed — the caller drives the clock).
# --------------------------------------------------------------------------


def prepare_quickstart(
    events: int = 50_000,
    workers: int = 10,
    seed: int = 0,
    env: Optional[Environment] = None,
    db=None,
    recover: bool = False,
) -> PreparedRun:
    """The tiny end-to-end MC run behind ``python -m repro quickstart``.

    Pass *db* (a :class:`~repro.core.jobit_db.LobsterDB`) and
    ``recover=True`` to warm-restart an interrupted campaign from its
    persisted state — the crashtest harness builds resumed runs this way.
    """
    env = env if env is not None else Environment()
    services = Services.default(env, seed=seed)
    cfg = LobsterConfig(
        workflows=[
            WorkflowConfig(
                label="quickstart",
                code=simulation_code(),
                n_events=events,
                events_per_tasklet=500,
                tasklets_per_task=4,
            )
        ],
        cores_per_worker=4,
        seed=seed,
    )
    run = LobsterRun(env, cfg, services, db=db, recover=recover)
    run.start()
    machines = MachinePool.homogeneous(env, workers, cores=4, fabric=services.fabric)
    pool = CondorPool(
        env, machines, eviction=ConstantHazardEviction(0.1), seed=seed,
        workflows=["quickstart"],
    )
    pool.submit(
        GlideinRequest(n_workers=workers, cores_per_worker=4, start_interval=2.0),
        run.worker_payload,
    )
    return PreparedRun(env, run, pool, services)


def prepare_simulate(
    code,
    events: int = 1_000_000,
    machines: int = 50,
    cores: int = 8,
    seed: int = 0,
    label: str = "mc",
    env: Optional[Environment] = None,
) -> PreparedRun:
    """The Fig 11-conditions MC run behind ``python -m repro simulate``."""
    env = env if env is not None else Environment()
    services = Services.default(env, seed=seed)
    cfg = LobsterConfig(
        workflows=[
            WorkflowConfig(
                label=label,
                code=code,
                n_events=events,
                events_per_tasklet=500,
                tasklets_per_task=6,
                max_retries=50,
            )
        ],
        cores_per_worker=cores,
        seed=seed,
    )
    run = LobsterRun(env, cfg, services)
    run.start()
    machine_pool = MachinePool.homogeneous(
        env, machines, cores=cores, fabric=services.fabric
    )
    pool = CondorPool(env, machine_pool, seed=seed, workflows=[label])
    pool.submit(
        GlideinRequest(
            n_workers=machines, cores_per_worker=cores, start_interval=0.5
        ),
        run.worker_payload,
    )
    return PreparedRun(env, run, pool, services)


def prepare_process(
    code,
    files: int = 200,
    machines: int = 25,
    cores: int = 8,
    wan_gbit: float = 0.6,
    outage_hours: float = 0.0,
    seed: int = 0,
    label: str = "data",
    env: Optional[Environment] = None,
) -> PreparedRun:
    """The Fig 10-conditions data run behind ``python -m repro process``."""
    env = env if env is not None else Environment()
    dbs = DBS()
    ds = synthetic_dataset(
        n_files=files, events_per_file=45_000, lumis_per_file=60, seed=seed
    )
    dbs.register(ds)
    outages = (
        [OutageWindow(outage_hours * HOUR, (outage_hours + 1) * HOUR)]
        if outage_hours > 0
        else None
    )
    services = Services.default(
        env, dbs=dbs, wan_bandwidth=wan_gbit * GBIT, outages=outages, seed=seed
    )
    cfg = LobsterConfig(
        workflows=[
            WorkflowConfig(
                label=label,
                code=code,
                dataset=ds.name,
                lumis_per_tasklet=10,
                tasklets_per_task=6,
                merge_mode=MergeMode.INTERLEAVED,
                max_retries=50,
            )
        ],
        cores_per_worker=cores,
        seed=seed,
    )
    run = LobsterRun(env, cfg, services)
    run.start()
    machine_pool = MachinePool.homogeneous(
        env, machines, cores=cores, fabric=services.fabric
    )
    pool = CondorPool(
        env, machine_pool, eviction=WeibullEviction(), seed=seed,
        workflows=[label],
    )
    pool.submit(
        GlideinRequest(
            n_workers=machines, cores_per_worker=cores, start_interval=2.0
        ),
        run.worker_payload,
    )
    return PreparedRun(env, run, pool, services)


def prepare_chaos(
    code=None,
    files: int = 60,
    machines: int = 12,
    cores: int = 4,
    wan_gbit: float = 1.0,
    seed: int = 0,
    bit_rot: int = 0,
    truncate: int = 0,
    duplicates: int = 0,
    master_crash_at: Optional[float] = None,
    env: Optional[Environment] = None,
    db=None,
    recover: bool = False,
) -> PreparedRun:
    """The fault-barrage data run behind ``python -m repro chaos``.

    The scenario exercises every recovery loop at once: a black-hole
    node (blacklisting), WAN flaps breaking XrootD streams
    (streaming -> staging fallback), a squid crash (setup retries), a
    rack eviction burst (requeue with backoff), and a degraded SE.

    With *master_crash_at* the plan additionally kills the Lobster
    master itself at that simulated second; the caller warm-restarts
    via :func:`warm_restart`.  *db*/*recover* thread straight into
    :class:`~repro.core.LobsterRun` for resumed campaigns.
    """
    from .analysis.profiles import profile
    from .faults import (
        BitRot,
        BlackHoleHost,
        DuplicateDelivery,
        EvictionBurst,
        FaultInjector,
        FaultPlan,
        LinkFlap,
        MasterCrash,
        SpindleDegradation,
        SquidCrash,
        TruncatedTransfer,
    )
    from .wq import RecoveryPolicy

    env = env if env is not None else Environment()
    dbs = DBS()
    ds = synthetic_dataset(
        n_files=files, events_per_file=20_000, lumis_per_file=40, seed=seed
    )
    dbs.register(ds)
    services = Services.default(
        env, dbs=dbs, wan_bandwidth=wan_gbit * GBIT, seed=seed
    )
    # Bit rot targets committed files at rest, so the run needs merges
    # (a later verifying hop) to surface the damage before publication.
    merge_mode = MergeMode.INTERLEAVED if bit_rot else MergeMode.NONE
    cfg = LobsterConfig(
        workflows=[
            WorkflowConfig(
                label="chaos",
                code=code if code is not None else profile("ntuple"),
                dataset=ds.name,
                lumis_per_tasklet=10,
                tasklets_per_task=4,
                merge_mode=merge_mode,
                max_retries=50,
                stream_fallback_threshold=3,
            )
        ],
        cores_per_worker=cores,
        recovery=RecoveryPolicy(
            max_attempts=12,
            backoff_base=2.0,
            blacklist_threshold=0.6,
            blacklist_min_samples=6,
        ),
        seed=seed,
    )
    run = LobsterRun(env, cfg, services, db=db, recover=recover)
    run.start()
    machine_pool = MachinePool.homogeneous(
        env, machines, cores=cores, fabric=services.fabric
    )
    pool = CondorPool(
        env, machine_pool, eviction=ConstantHazardEviction(0.02), seed=seed,
        workflows=["chaos"],
    )
    pool.submit(
        GlideinRequest(
            n_workers=machines, cores_per_worker=cores, start_interval=1.0
        ),
        run.worker_payload,
    )
    faults = [
        SquidCrash(at=600.0, duration=300.0),
        BlackHoleHost(at=900.0, machine="node00001"),
        LinkFlap(link="wan", at=1_800.0, duration=900.0,
                 repeat=2, period=3_600.0, fail_after=15.0),
        EvictionBurst(at=2_700.0, fraction=0.5),
        SpindleDegradation(at=5_400.0, duration=1_200.0, factor=0.2),
    ]
    if truncate:
        faults.append(TruncatedTransfer(at=300.0, count=truncate))
    if bit_rot:
        faults.append(BitRot(at=3_600.0, count=bit_rot))
    if duplicates:
        faults.append(DuplicateDelivery(at=1_200.0, count=duplicates))
    if master_crash_at is not None:
        faults.append(MasterCrash(at=master_crash_at))
    plan = FaultPlan(faults, seed=seed)
    injector = FaultInjector(
        env, plan, services=services, pool=pool, master=run.master, run=run
    )
    injector.start()
    return PreparedRun(env, run, pool, services, injector=injector)


def warm_restart(prepared: PreparedRun) -> PreparedRun:
    """Warm-restart a crashed campaign on the same world.

    Builds a fresh :class:`~repro.core.LobsterRun` with ``recover=True``
    against the *same* environment, services, and Lobster DB that the
    crashed run used — the operator restarting the master on the same
    head node.  A new glide-in wave is submitted (the old workers have
    drained); the crashed run's pool object keeps its history, so a new
    :class:`~repro.batch.CondorPool` over the same machines carries the
    replacement workers.

    Returns a new :class:`PreparedRun`; drive it with
    :func:`execute_prepared` as usual.
    """
    old = prepared.run
    if not getattr(old, "crashed", False):
        raise ValueError("warm_restart expects a crashed run")
    env = prepared.env
    services = prepared.services
    cfg = old.config
    run = LobsterRun(env, cfg, services, db=old.db, recover=True)
    run.start()
    machines = prepared.pool.machines
    workers = len(machines.machines)
    cores = cfg.cores_per_worker
    pool = CondorPool(
        env,
        machines,
        eviction=prepared.pool.eviction,
        seed=cfg.seed + 1,  # a fresh glide-in wave, not a replay of the old one
        workflows=[wf.label for wf in cfg.workflows],
    )
    pool.submit(
        GlideinRequest(
            n_workers=workers, cores_per_worker=cores, start_interval=1.0
        ),
        run.worker_payload,
    )
    return PreparedRun(env, run, pool, services)
