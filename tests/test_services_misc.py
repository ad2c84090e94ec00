"""Tests for Services wiring and assorted substrate corners."""

import pytest

from repro.core import Services
from repro.dbs import DBS, synthetic_dataset
from repro.desim import Environment
from repro.net import Fabric
from repro.storage import OutageWindow, WideAreaNetwork

MB = 1_000_000.0
GBIT = 125_000_000.0


# ---------------------------------------------------------------- Services
def test_default_services_wiring():
    env = Environment()
    s = Services.default(env)
    assert s.repository.cold_volume > 0
    assert len(s.proxies) == 1
    assert s.xrootd.wan is s.wan
    assert s.frontier is not None
    assert s.frontier.proxies is s.proxies
    assert s.hdfs is None and s.mapreduce is None
    assert s.dbs is None


def test_default_services_with_options():
    env = Environment()
    dbs = DBS()
    dbs.register(synthetic_dataset(n_files=1))
    s = Services.default(
        env,
        n_proxies=3,
        wan_bandwidth=1 * GBIT,
        outages=[OutageWindow(10, 20)],
        chirp_connections=7,
        with_hadoop=True,
        dbs=dbs,
    )
    assert len(s.proxies) == 3
    assert s.wan.bandwidth == 1 * GBIT
    assert s.wan.is_out(15)
    assert s.chirp.connections.capacity == 7
    assert s.hdfs is not None and s.mapreduce is not None
    assert s.dbs is not None
    assert len(s.dbs.files(dbs.datasets()[0])) == 1


# ---------------------------------------------------------------- WAN misc
def test_wan_current_outage():
    env = Environment()
    wan = WideAreaNetwork(env, outages=[OutageWindow(5.0, 10.0)])
    assert wan.current_outage() is None

    def proc(env):
        yield env.timeout(7.0)
        w = wan.current_outage()
        assert w is not None and w.start == 5.0

    env.process(proc(env))
    env.run()


# ---------------------------------------------------------------- link misc
def test_link_utilization_tracks_busy_fraction():
    env = Environment()
    link = Fabric(env).attach("l", 100.0)

    def proc(env):
        yield link.transfer(500.0)  # busy 5 s at full rate
        yield env.timeout(5.0)  # idle 5 s

    env.process(proc(env))
    env.run()
    assert link.utilization() == pytest.approx(0.5, abs=0.05)


def test_link_utilization_empty():
    env = Environment()
    link = Fabric(env).attach("l", 100.0)
    assert link.utilization() == 0.0


# ---------------------------------------------------------------- chirp samples
def test_chirp_queue_samples_recorded():
    from repro.storage import ChirpServer

    env = Environment()
    chirp = ChirpServer(env, bandwidth=10 * MB, max_connections=1, accept_latency=0.0)

    def proc(env):
        yield from chirp.put(10 * MB)

    for _ in range(3):
        env.process(proc(env))
    env.run()
    # One sample per transfer attempt; later arrivals saw a queue.
    assert len(chirp.queue_samples) == 3
    depths = [d for _, d in chirp.queue_samples]
    assert max(depths) >= 1


# ---------------------------------------------------------------- condor occupancy
def test_condor_occupancy_never_exceeds_capacity():
    from repro.batch import CondorPool, GlideinRequest, MachinePool
    from repro.distributions import ConstantHazardEviction

    env = Environment()
    machines = MachinePool.homogeneous(env, 3, cores=8)
    pool = CondorPool(env, machines, eviction=ConstantHazardEviction(0.5), seed=4)

    def payload(slot):
        def run():
            from repro.desim import Interrupt

            try:
                yield env.timeout(3600.0)
            except Interrupt:
                pass

        return run()

    pool.submit(GlideinRequest(n_workers=10, cores_per_worker=8, start_interval=0.0), payload)
    env.run(until=20 * 3600.0)
    pool.drain()
    max_active = max(v for _, v in pool.occupancy)
    assert max_active <= 3  # only 3 machines of 8 cores
    # Machines never over-claimed.
    assert all(m.claimed_cores <= m.cores for m in machines)
