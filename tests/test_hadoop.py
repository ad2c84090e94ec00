"""Tests for the HDFS model and the mini Map-Reduce engine."""

import pytest

from repro.core import MergeMode
from repro.desim import Environment
from repro.hadoop import HDFS, MapReduceEngine, MapReduceJob, TaskCost
from repro.net import Link, TrafficClass
from repro.scenarios import simulation_scenario

MB = 1_000_000.0


def make_hdfs(env, **kw):
    defaults = dict(n_datanodes=4, replication=2, block_size=64 * MB, seed=1)
    defaults.update(kw)
    return HDFS(env, **defaults)


# ---------------------------------------------------------------- HDFS
def test_hdfs_write_creates_blocks_with_replication():
    env = Environment()
    hdfs = make_hdfs(env)
    out = {}

    def proc(env):
        f = yield from hdfs.write("/data/a", 150 * MB)
        out["f"] = f

    env.process(proc(env))
    env.run()
    f = out["f"]
    assert len(f.blocks) == 3  # 64 + 64 + 22
    assert all(len(b.replicas) == 2 for b in f.blocks)
    assert f.size == pytest.approx(150 * MB)
    assert hdfs.used_bytes == pytest.approx(150 * MB)


def test_hdfs_write_rejects_duplicates():
    env = Environment()
    hdfs = make_hdfs(env)

    def proc(env):
        yield from hdfs.write("/data/a", 10 * MB)
        with pytest.raises(FileExistsError):
            yield from hdfs.write("/data/a", 10 * MB)

    env.process(proc(env))
    env.run()


def test_hdfs_read_returns_elapsed():
    env = Environment()
    hdfs = make_hdfs(env, disk_bandwidth=100 * MB, nic_bandwidth=100 * MB)
    out = {}

    def proc(env):
        yield from hdfs.write("/data/b", 100 * MB)
        t = yield from hdfs.read("/data/b")
        out["t"] = t

    env.process(proc(env))
    env.run()
    assert out["t"] > 0


def test_hdfs_local_read_skips_nic():
    env = Environment()
    hdfs = make_hdfs(
        env,
        n_datanodes=2,
        replication=2,
        disk_bandwidth=100 * MB,
        nic_bandwidth=100 * MB,
    )
    out = {}

    def proc(env):
        yield from hdfs.write("/data/c", 64 * MB, preferred=hdfs.datanodes[0])
        nic_before = sum(dn.nic.bytes_moved for dn in hdfs.datanodes)
        t = yield from hdfs.read("/data/c", local=hdfs.datanodes[0])
        nic_after = sum(dn.nic.bytes_moved for dn in hdfs.datanodes)
        out["t"] = t
        out["nic_delta"] = nic_after - nic_before

    env.process(proc(env))
    env.run()
    # Data-local read: disk only, no NIC traffic.
    assert out["t"] == pytest.approx(64 * MB / (100 * MB))
    assert out["nic_delta"] == pytest.approx(0.0)


def test_hdfs_delete_frees_blocks():
    env = Environment()
    hdfs = make_hdfs(env)

    def proc(env):
        yield from hdfs.write("/data/d", 64 * MB)

    env.process(proc(env))
    env.run()
    stored_before = sum(dn.blocks_stored for dn in hdfs.datanodes)
    assert stored_before == 2
    hdfs.delete("/data/d")
    assert sum(dn.blocks_stored for dn in hdfs.datanodes) == 0
    with pytest.raises(FileNotFoundError):
        hdfs.delete("/data/d")


def test_hdfs_validation():
    env = Environment()
    with pytest.raises(ValueError):
        HDFS(env, n_datanodes=0)
    with pytest.raises(ValueError):
        HDFS(env, n_datanodes=2, replication=3)
    with pytest.raises(ValueError):
        HDFS(env, block_size=0)


def test_hdfs_listdir():
    env = Environment()
    hdfs = make_hdfs(env)

    def proc(env):
        yield from hdfs.write("/out/m1", 1 * MB)
        yield from hdfs.write("/out/m2", 1 * MB)
        yield from hdfs.write("/tmp/x", 1 * MB)

    env.process(proc(env))
    env.run()
    assert [f.name for f in hdfs.listdir("/out/")] == ["/out/m1", "/out/m2"]


# ---------------------------------------------------------------- MapReduce
def test_wordcount_style_job():
    env = Environment()
    hdfs = make_hdfs(env)
    engine = MapReduceEngine(env, hdfs, slots_per_node=2)
    words = ["a b", "b c", "c c"]
    job = MapReduceJob(
        name="wordcount",
        records=words,
        map_fn=lambda line: [(w, 1) for w in line.split()],
        reduce_fn=lambda key, values: sum(values),
        map_cost=lambda line: TaskCost(cpu_seconds=1.0),
        reduce_cost=lambda key, values: TaskCost(cpu_seconds=0.5),
    )
    out = {}

    def proc(env):
        res = yield from engine.run(job)
        out.update(res)

    env.process(proc(env))
    env.run()
    assert out == {"a": 1, "b": 2, "c": 3}
    # Map phase then reduce phase cost time.
    assert env.now >= 1.5


def test_mapreduce_reduce_writes_output_to_hdfs():
    env = Environment()
    hdfs = make_hdfs(env)
    engine = MapReduceEngine(env, hdfs)
    job = MapReduceJob(
        name="merge-like",
        records=[("g1", 10 * MB), ("g1", 20 * MB), ("g2", 5 * MB)],
        map_fn=lambda rec: [(rec[0], rec[1])],
        reduce_fn=lambda key, values: sum(values),
        reduce_cost=lambda key, values: TaskCost(
            read_bytes=sum(values), write_bytes=sum(values)
        ),
        reduce_output=lambda key: f"/merged/{key}",
    )
    out = {}

    def proc(env):
        res = yield from engine.run(job)
        out.update(res)

    env.process(proc(env))
    env.run()
    assert out == {"g1": 30 * MB, "g2": 5 * MB}
    assert hdfs.exists("/merged/g1")
    assert hdfs.stat("/merged/g1").size == pytest.approx(30 * MB)


def test_mapreduce_slots_limit_parallelism():
    env = Environment()
    hdfs = make_hdfs(env, n_datanodes=1, replication=1)
    engine = MapReduceEngine(env, hdfs, slots_per_node=1)
    job = MapReduceJob(
        name="serial",
        records=[1, 2, 3],
        map_fn=lambda r: [("k", r)],
        reduce_fn=lambda key, values: sorted(values),
        map_cost=lambda r: TaskCost(cpu_seconds=10.0),
    )
    done = {}

    def proc(env):
        res = yield from engine.run(job)
        done.update(res)

    env.process(proc(env))
    env.run()
    # Three 10-second maps on one slot: at least 30 s.
    assert env.now >= 30.0
    assert done["k"] == [1, 2, 3]


def test_mapreduce_completion_log():
    env = Environment()
    hdfs = make_hdfs(env)
    engine = MapReduceEngine(env, hdfs)
    job = MapReduceJob(
        name="log",
        records=["x"],
        map_fn=lambda r: [(r, 1)],
        reduce_fn=lambda key, values: len(values),
    )

    def proc(env):
        yield from engine.run(job)

    env.process(proc(env))
    env.run()
    phases = [p for _, p, _ in engine.completions]
    assert phases == ["map", "reduce"]


def test_empty_job():
    env = Environment()
    hdfs = make_hdfs(env)
    engine = MapReduceEngine(env, hdfs)
    job = MapReduceJob(
        name="empty",
        records=[],
        map_fn=lambda r: [],
        reduce_fn=lambda key, values: None,
    )
    out = {"res": None}

    def proc(env):
        out["res"] = yield from engine.run(job)

    env.process(proc(env))
    env.run()
    assert out["res"] == {}


def test_task_cost_validation():
    with pytest.raises(ValueError):
        TaskCost(cpu_seconds=-1)
    with pytest.raises(ValueError):
        MapReduceEngine(Environment(), make_hdfs(Environment()), slots_per_node=0)


# ---------------------------------------------------------------- traffic
def test_hadoop_merge_records_hdfs_bytes_as_merge_flows():
    """HDFS traffic is fabric traffic: every DataNode disk and NIC is a
    :class:`repro.net.Link`, and a hadoop-mode run records the bytes
    they move as ``net.flow`` records of class ``merge``."""
    result = simulation_scenario(
        n_machines=4,
        cores=4,
        n_events=30_000,
        events_per_tasklet=250,
        tasklets_per_task=6,
        merge_mode=MergeMode.HADOOP,
    )
    run = result.run
    assert run.workflows["mc"].merge.merged_files
    links = [l for dn in run.services.hdfs.datanodes for l in (dn.disk, dn.nic)]
    assert all(isinstance(l, Link) for l in links)
    moved = sum(l.bytes_moved for l in links)
    assert moved > 0
    assert all(set(l.bytes_by_class) <= {TrafficClass.MERGE} for l in links)
    merge_flows = [f for f in run.metrics.flows if f.cls == TrafficClass.MERGE]
    assert all(f.ok and f.hops == 1 for f in merge_flows)
    assert sum(f.nbytes for f in merge_flows) == pytest.approx(moved, rel=1e-9)
