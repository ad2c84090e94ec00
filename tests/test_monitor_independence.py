"""The acceptance criterion for the bus refactor: ``repro.monitor`` is a
pure *subscriber*.  It may depend on the simulation substrate (``desim``)
and the analysis vocabulary, but must not import from the scheduler
(``wq``), the batch system (``batch``), software delivery (``cvmfs``),
or storage (``storage``) — the bus event stream is the entire contract.
"""

import ast
import pathlib
import sys


MONITOR_DIR = (
    pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "monitor"
)
FORBIDDEN = ("wq", "batch", "cvmfs", "storage")


def _imported_repro_modules(path: pathlib.Path):
    """Yield (lineno, module) for every repro-internal import in *path*."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                # Relative import: level 1 is repro.monitor itself, level
                # 2 reaches into sibling subpackages of repro.
                if node.level >= 2 and node.module:
                    yield node.lineno, node.module
            elif node.module and node.module.startswith("repro."):
                yield node.lineno, node.module[len("repro."):]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro."):
                    yield node.lineno, alias.name[len("repro."):]


def test_monitor_sources_import_no_substrate_layer():
    offenders = []
    for path in sorted(MONITOR_DIR.glob("*.py")):
        for lineno, module in _imported_repro_modules(path):
            top = module.split(".")[0]
            if top in FORBIDDEN:
                offenders.append(f"{path.name}:{lineno} imports repro.{module}")
    assert not offenders, "monitor/ must only subscribe, not import:\n" + "\n".join(
        offenders
    )


def test_monitor_importable_without_substrate_layers():
    """repro.monitor's real dependency graph must not reach the
    scheduler/batch/cvmfs/storage packages.

    The top-level ``repro`` package eagerly imports every subpackage, so
    the subprocess stubs it (keeping only ``__path__``) and imports
    ``repro.monitor`` directly — loading exactly what monitor itself
    depends on, transitively.
    """
    import subprocess

    code = (
        "import sys, types\n"
        f"root = {str(MONITOR_DIR.parent)!r}\n"
        "pkg = types.ModuleType('repro')\n"
        "pkg.__path__ = [root]\n"
        "sys.modules['repro'] = pkg\n"
        "import repro.monitor\n"
        "bad = [m for m in sys.modules if m.startswith("
        "('repro.wq', 'repro.batch', 'repro.cvmfs', 'repro.storage'))]\n"
        "assert not bad, bad\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(MONITOR_DIR.parent.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout


def test_collector_feeds_metrics_from_bus_events():
    """End-to-end inversion check: publishing the scheduler's topics onto
    a bare bus (no scheduler imported) populates RunMetrics."""
    from repro.desim import Environment, Topics
    from repro.monitor import BusCollector, RunMetrics

    bus = Environment().bus
    collector = BusCollector(bus, RunMetrics())
    bus.port(Topics.TASK_START).emit_at(1.0, running=1)
    bus.port(Topics.TASK_RESULT).emit_at(
        9.0,
        workflow="wf",
        task_id=1,
        category="analysis",
        exit_code=0,
        submitted=0.0,
        started=1.0,
        finished=9.0,
        segments={"cpu": 7.0, "setup": 1.0},
        wq_stage_in=0.5,
        wq_stage_out=0.25,
        lost_time=0.0,
        output_bytes=1e6,
    )
    bus.port(Topics.TASK_DONE).emit_at(9.0, task_id=1, ok=True, running=0)
    bus.port(Topics.EVICTION).emit_at(10.0, slot="slot0")

    m = collector.fold
    assert m.n_tasks == 1 and m.n_succeeded() == 1
    assert m.records[0].segments["cpu"] == 7.0
    assert list(zip(m.running.times, m.running.values)) == [(1.0, 1.0), (9.0, 0.0)]
    assert m.evictions_seen == 1

    collector.close()
    bus.port(Topics.EVICTION).emit_at(11.0, slot="slot1")
    assert m.evictions_seen == 1  # detached


def test_collector_workflow_filter():
    from repro.desim import Environment, Topics
    from repro.monitor import BusCollector, RunMetrics

    bus = Environment().bus
    mine = BusCollector(bus, RunMetrics(), workflows=["wf-a"])
    fields = dict(
        category="analysis",
        exit_code=0,
        submitted=0.0,
        started=0.0,
        finished=1.0,
        segments={},
        wq_stage_in=0.0,
        wq_stage_out=0.0,
        lost_time=0.0,
        output_bytes=0.0,
    )
    bus.port(Topics.TASK_RESULT).emit_at(1.0, workflow="wf-a", task_id=1, **fields)
    bus.port(Topics.TASK_RESULT).emit_at(1.0, workflow="wf-b", task_id=2, **fields)
    assert [r.task_id for r in mine.fold.records] == [1]


def test_replayed_metrics_round_trip_jsonl(tmp_path):
    """Record events through a JsonlSink, reload, rebuild metrics."""
    from repro.desim import Environment, Topics
    from repro.monitor import JsonlSink, RunMetrics, load_events, replay

    path = tmp_path / "events.jsonl"
    bus = Environment().bus
    with JsonlSink(str(path)) as sink:
        bus.attach(sink)
        bus.port(Topics.TASK_START).emit_at(1.0, running=1)
        bus.port(Topics.TASK_RESULT).emit_at(
            5.0,
            workflow="wf",
            task_id=4,
            category="analysis",
            exit_code=0,
            submitted=0.0,
            started=1.0,
            finished=5.0,
            segments={"cpu": 3.0},
            wq_stage_in=0.0,
            wq_stage_out=0.0,
            lost_time=0.0,
            output_bytes=0.0,
        )
    events = load_events(str(path))
    assert sink.count == len(events) == 2
    m = RunMetrics()
    replay(events, m)
    assert m.n_tasks == 1
    assert m.records[0].task_id == 4
    assert m.records[0].segments == {"cpu": 3.0}
    assert len(m.running) == 1


def test_two_filtered_collectors_one_bus_split_attributed_events():
    """Two runs share one bus; each filtered collector must see only its
    own evictions, exhaustions, fallbacks, integrity events, and
    duplicates — not just its own task results.  Unattributed (legacy)
    events reach both."""
    from repro.desim import Environment, Topics
    from repro.monitor import BusCollector, RunMetrics

    bus = Environment().bus
    a = BusCollector(bus, RunMetrics(), workflows=["wf-a"])
    b = BusCollector(bus, RunMetrics(), workflows=["wf-b"])

    # Single-label producers stamp ``workflow=``.
    bus.port(Topics.TASK_EXHAUSTED).emit_at(1.0, workflow="wf-a", task_id=1)
    bus.port(Topics.TASK_DUPLICATE).emit_at(2.0, workflow="wf-b", task_id=2)
    bus.port(Topics.RECOVERY_FALLBACK).emit_at(3.0, workflow="wf-a",
                                               kind="stream")
    bus.port(Topics.INTEGRITY_CORRUPT).emit_at(4.0, workflow="wf-b",
                                               lfn="/store/x.root")
    # Pool-level producers stamp ``workflows=`` (a label list).
    bus.port(Topics.EVICTION).emit_at(5.0, workflows=["wf-a"], slot="s0")
    bus.port(Topics.EVICTION).emit_at(6.0, workflows=["wf-b"], slot="s1")
    bus.port(Topics.EVICTION).emit_at(7.0, workflows=["wf-a", "wf-b"],
                                      slot="shared")
    # Unattributed events must reach both collectors (back-compat).
    bus.port(Topics.EVICTION).emit_at(8.0, slot="legacy")
    bus.port(Topics.TASK_EXHAUSTED).emit_at(9.0, task_id=9)

    assert a.fold.tasks_exhausted == 2  # wf-a + unattributed
    assert b.fold.tasks_exhausted == 1  # unattributed only
    assert len(a.fold.duplicates_dropped) == 0
    assert len(b.fold.duplicates_dropped) == 1
    assert len(a.fold.stream_fallbacks) == 1
    assert len(b.fold.stream_fallbacks) == 0
    assert len(a.fold.integrity_corrupt) == 0
    assert len(b.fold.integrity_corrupt) == 1
    assert a.fold.evictions_seen == 3  # s0 + shared + legacy
    assert b.fold.evictions_seen == 3  # s1 + shared + legacy


def test_pool_evictions_are_workflow_attributed_end_to_end():
    """CondorPool(workflows=...) stamps its eviction events so a filtered
    collector on a shared bus no longer overcounts foreign evictions."""
    from repro.batch import CondorPool, GlideinRequest, MachinePool
    from repro.desim import Environment, Interrupt, Topics
    from repro.distributions import ConstantHazardEviction
    from repro.monitor import BusCollector, RunMetrics

    HOUR = 3600.0
    env = Environment()
    machines = MachinePool.homogeneous(env, 2, cores=8)
    pool = CondorPool(
        env,
        machines,
        eviction=ConstantHazardEviction(0.9, bin_width=HOUR),
        seed=3,
        workflows=["wf-a"],
    )
    mine = BusCollector(env.bus, RunMetrics(), workflows=["wf-a"])
    other = BusCollector(env.bus, RunMetrics(), workflows=["wf-z"])
    seen = []
    env.bus.subscribe(Topics.EVICTION, lambda ev: seen.append(ev.fields))

    def factory(slot):
        def run():
            try:
                yield slot.pool.env.timeout(10 * HOUR)
            except Interrupt:
                pass

        return run()

    pool.submit(GlideinRequest(n_workers=2, start_interval=0.0), factory)
    env.run(until=40 * HOUR)

    assert pool.total_evictions >= 2
    assert seen and all(f.get("workflows") == ["wf-a"] for f in seen)
    assert mine.fold.evictions_seen == pool.total_evictions
    assert other.fold.evictions_seen == 0
