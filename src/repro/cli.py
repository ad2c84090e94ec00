"""Command-line interface: ``python -m repro <command>``.

Mirrors the real Lobster's operational entry points on the simulated
substrate:

* ``quickstart`` — a tiny end-to-end MC run with a final report,
* ``simulate``   — a Monte-Carlo production run (Fig 11 conditions),
* ``process``    — a data-processing run over a synthetic dataset
  (Fig 10 conditions, optional WAN outage),
* ``chaos``      — a data run under injected faults (black-hole node,
  WAN flaps, squid crash, eviction burst) with active recovery engaged;
  ``--master-crash-at`` additionally kills the Lobster master itself
  and warm-restarts the campaign from its DB,
* ``crashtest``  — the crash-consistency fuzzer: kill the master at
  every (or sampled) durable checkpoint and assert the warm restart
  converges to the uninterrupted run's published outputs,
* ``tasksize``   — the §4.1 task-size optimiser,
* ``profiles``   — list the bundled analysis-code profiles,
* ``events``     — replay a recorded JSONL event stream through the
  monitoring heuristics (record one with ``--events-out``),
* ``trace``      — run (or replay) with causal tracing: emit span files,
  attribute the makespan to its critical path, and print an
  evidence-backed diagnosis,
* ``sweep``      — expand a declarative :class:`~repro.sweep.SweepSpec`
  (JSON or Python file) into its run matrix, execute it across worker
  processes, and write a machine-readable ``BENCH_sweep.json``,
* ``dash``       — render any run (live scenario or JSONL recording)
  into a single static HTML ops dashboard rendered from one
  ``RunMetrics`` fold (``repro.monitor.dash``),
* ``watch``      — run (or ``--replay``) with the live run-health
  engine attached: streaming §5 detectors raise typed
  ``alert.raise``/``alert.clear`` events with evidence span ids, the
  dashboard re-renders atomically mid-run, and the alert stream is
  replay-deterministic (``repro.monitor.watch``).

The run scenarios themselves live in :mod:`repro.scenarios` — the same
builders feed the figure benchmarks and the sweep engine, so a CLI run,
a bench row, and a sweep variant with the same parameters produce
identical dynamics.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

HOUR = 3600.0
GBIT = 125_000_000.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lobster (CLUSTER 2015) reproduction on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The options every recorded run command shares.
    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--seed", type=int, default=0)
    run_opts.add_argument("--events-out", default=None, metavar="PATH",
                          help="record the run's bus events to a JSONL file")
    run_opts.add_argument("--dash-out", default=None, metavar="PATH",
                          help="also render the run's HTML ops dashboard")

    q = sub.add_parser("quickstart", parents=[run_opts],
                       help="tiny end-to-end MC run")
    q.add_argument("--events", type=int, default=50_000)
    q.add_argument("--workers", type=int, default=10)

    s = sub.add_parser("simulate", parents=[run_opts],
                       help="Monte-Carlo production run")
    s.add_argument("--events", type=int, default=1_000_000)
    s.add_argument("--machines", type=int, default=50)
    s.add_argument("--cores", type=int, default=8)
    s.add_argument("--profile", default="digi-reco-mc")

    p = sub.add_parser("process", parents=[run_opts],
                       help="data-processing run over a synthetic dataset")
    p.add_argument("--files", type=int, default=200)
    p.add_argument("--machines", type=int, default=25)
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--profile", default="ntuple")
    p.add_argument("--wan-gbit", type=float, default=0.6)
    p.add_argument("--outage-hours", type=float, default=0.0,
                   help="inject a 1-hour WAN outage starting at this hour (0 = none)")

    t = sub.add_parser("tasksize", help="run the section-4.1 task-size optimiser")
    t.add_argument("--tasklets", type=int, default=20_000)
    t.add_argument("--workers", type=int, default=1_600)
    t.add_argument("--eviction", choices=("constant", "weibull", "none"),
                   default="constant")
    t.add_argument("--probability", type=float, default=0.1)
    t.add_argument("--seed", type=int, default=0)

    c = sub.add_parser(
        "chaos",
        parents=[run_opts],
        help="data run under injected faults with active recovery engaged",
    )
    c.add_argument("--files", type=int, default=60)
    c.add_argument("--machines", type=int, default=12)
    c.add_argument("--cores", type=int, default=4)
    c.add_argument("--wan-gbit", type=float, default=1.0)
    c.add_argument("--bit-rot", type=int, default=0, metavar="N",
                   help="silently corrupt N committed files at rest")
    c.add_argument("--truncate", type=int, default=0, metavar="N",
                   help="truncate the next N output transfers")
    c.add_argument("--duplicates", type=int, default=0, metavar="N",
                   help="re-deliver N successful analysis results")
    c.add_argument("--master-crash-at", type=float, default=None,
                   metavar="SECONDS",
                   help="kill the Lobster master at this simulated second "
                        "and warm-restart the campaign from its DB")

    ct = sub.add_parser(
        "crashtest",
        help="crash-consistency fuzz: kill the master at every (or "
             "sampled) DB checkpoint and assert the warm restart "
             "converges to the uninterrupted answer",
    )
    ct.add_argument("--scenario", default="micro", metavar="NAME",
                    help="crash scenario (see --list; default: micro)")
    ct.add_argument("--mode", choices=("exhaustive", "sample"),
                    default="exhaustive",
                    help="crash at every checkpoint, or at --samples "
                         "reservoir-sampled ones")
    ct.add_argument("--samples", type=int, default=10, metavar="N",
                    help="crash points to sample in sample mode")
    ct.add_argument("--seed", type=int, default=0)
    ct.add_argument("--double-crash", action="store_true",
                    help="also crash each resumed campaign at its first "
                         "recovery checkpoint and resume again")
    ct.add_argument("--report-out", default=None, metavar="PATH",
                    help="write the machine-readable JSON report")
    ct.add_argument("--list", action="store_true", dest="list_only",
                    help="list the crash scenarios and exit")

    sub.add_parser("profiles", help="list bundled analysis profiles")

    topo = sub.add_parser(
        "topology", help="print the network fabric a run would use"
    )
    topo.add_argument("--machines", type=int, default=50)
    topo.add_argument("--cores", type=int, default=8)
    topo.add_argument("--wan-gbit", type=float, default=0.6)
    topo.add_argument("--machines-per-switch", type=int, default=24)

    e = sub.add_parser(
        "events", help="replay a recorded JSONL event stream through monitoring"
    )
    e.add_argument("path", help="JSONL file written by --events-out (or JsonlSink)")
    e.add_argument("--top", type=int, default=10,
                   help="show the N most frequent topics")

    tr = sub.add_parser(
        "trace",
        help="run (or replay) with causal tracing and analyze the span trees",
    )
    tr.add_argument("--events", type=int, default=50_000)
    tr.add_argument("--workers", type=int, default=10)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--replay", default=None, metavar="PATH",
                    help="rebuild spans from a JSONL event recording "
                         "(written by --events-out) instead of running")
    tr.add_argument("--spans-out", default=None, metavar="PATH",
                    help="write one span per line as JSONL")
    tr.add_argument("--chrome-out", default=None, metavar="PATH",
                    help="write a Chrome trace-event / Perfetto JSON file")
    tr.add_argument("--top", type=int, default=5,
                    help="show the N largest critical-path contributors")
    tr.add_argument("--events-out", default=None, metavar="PATH",
                    help="record the traced run's bus events (incl. span "
                         "events) to a JSONL file for later --replay")

    sw = sub.add_parser(
        "sweep",
        help="expand a declarative sweep spec and execute its run matrix",
    )
    sw.add_argument("spec", metavar="SPEC",
                    help="sweep spec: a .json file (SweepSpec.to_dict) or a "
                         ".py file defining SPEC or build_spec()")
    sw.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes (1 = run in-process)")
    sw.add_argument("--baseline", default=None, metavar="RUN_ID",
                    help="run id to diff variants against "
                         "(default: the all-baseline run)")
    sw.add_argument("--out", default="BENCH_sweep.json", metavar="PATH",
                    help="where to write the sweep payload")
    sw.add_argument("--resume", default=None, metavar="PATH",
                    help="prior sweep payload; completed run ids are reused")
    sw.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                    help="per-run wall-clock timeout (jobs > 1 only)")
    sw.add_argument("--list", action="store_true", dest="list_only",
                    help="print the expanded run matrix and exit")

    d = sub.add_parser(
        "dash",
        help="render a run (live scenario or JSONL recording) as an "
             "HTML ops dashboard",
    )
    d.add_argument("--replay", default=None, metavar="PATH",
                   help="render from a JSONL event recording (written by "
                        "--events-out) instead of running a scenario")
    d.add_argument("--scenario", default="quickstart", metavar="NAME",
                   help="sweep-registry DES scenario to run live "
                        "(default: quickstart)")
    d.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="scenario parameter override (repeatable)")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--bin-width", type=float, default=1800.0, metavar="SECONDS",
                   help="timeline bin width (default: 1800 s)")
    d.add_argument("--out", default="dash.html", metavar="PATH",
                   help="where to write the dashboard HTML")

    w = sub.add_parser(
        "watch",
        help="watch a run live: streaming §5 detectors, typed alerts, "
             "and periodic atomic dashboard refresh",
    )
    w.add_argument("--replay", default=None, metavar="PATH",
                   help="evaluate the detectors over a JSONL event "
                        "recording (written by --events-out) instead of "
                        "running a scenario; the alert stream is "
                        "byte-identical to the live run that produced it")
    w.add_argument("--scenario", default="quickstart", metavar="NAME",
                   help="sweep-registry DES scenario to run live "
                        "(default: quickstart)")
    w.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="scenario parameter override (repeatable)")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--window", type=float, default=1800.0, metavar="SECONDS",
                   help="detector window width (and dashboard bin width)")
    w.add_argument("--refresh-every", type=float, default=None,
                   metavar="SIMSECONDS",
                   help="re-render the dashboard every N simulated seconds "
                        "(quantised to window closes; atomic os.replace)")
    w.add_argument("--out", default="watch.html", metavar="PATH",
                   help="where to write the dashboard HTML")
    w.add_argument("--alerts-out", default=None, metavar="PATH",
                   help="write the alert stream as a JSON array")
    w.add_argument("--events-out", default=None, metavar="PATH",
                   help="also record the full event stream (live mode; "
                        "alert.* events included)")
    w.add_argument("--fail-on-alert", action="store_true",
                   help="exit 1 if any alert was raised")
    return parser


def _attach_events_sink(env, args):
    """Attach a JSONL sink to the bus when ``--events-out`` was given."""
    if getattr(args, "events_out", None) is None:
        return None
    from repro.monitor import JsonlSink

    try:
        sink = JsonlSink(args.events_out)
    except OSError as exc:
        raise SystemExit(f"cannot write events to {args.events_out}: {exc}") from None
    env.bus.attach(sink)
    return sink


def _replay_file(path, *folds):
    """Load a JSONL recording and :func:`~repro.monitor.replay` it into
    *folds*; returns the events.  A missing file or a malformed or
    foreign stream is a one-line error."""
    from repro.monitor import load_events, replay

    try:
        events = load_events(path)
        replay(events, *folds)
    except OSError as exc:
        raise SystemExit(str(exc)) from None
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise SystemExit(f"{path}: not a valid event stream ({exc})") from None
    return events


def _attach_dash(env, dash_out):
    """Fold *env*'s bus into a RunMetrics and a span tracer for ``--dash-out``.

    The dashboard keeps its own fold rather than the run's: it is
    attached to the environment's bus, so a warm restart's page covers
    both the crashed and the resumed run.  Returns ``(dash_out, metrics,
    tracer)``, or ``None`` without a path.
    """
    if dash_out is None:
        return None
    from repro.monitor import BusCollector, RunMetrics, SpanTracer

    metrics = RunMetrics()
    BusCollector(env.bus, metrics)
    return dash_out, metrics, SpanTracer(env)


#: Simulated seconds a finished run keeps going before its report.
_SETTLE = 300.0


def _finish(prepared, out, sink=None, dash_out=None) -> int:
    """Drive a :class:`~repro.scenarios.PreparedRun` and print its report."""
    from repro.scenarios import execute_prepared

    dash = _attach_dash(prepared.env, dash_out)
    # The settle window lets workers and glide-ins exit cleanly instead
    # of being garbage-collected mid-yield.
    execute_prepared(prepared, settle=_SETTLE)
    return _report(prepared, out, sink, dash)


def _report(prepared, out, sink, dash) -> int:
    """Print a finished run's report, close the recording and write the
    dashboard that :func:`_attach_dash` has been folding."""
    from repro.monitor import render_report

    out.write(render_report(prepared.run) + "\n")
    if sink is not None:
        sink.close()
        out.write(f"recorded {sink.count} events to {sink.path}\n")
    if dash is not None:
        from repro.monitor import write_dashboard

        dash_out, metrics, tracer = dash
        tracer.finalize()
        labels = [wf.label for wf in prepared.run.config.workflows]
        write_dashboard(
            dash_out,
            metrics,
            spans=list(tracer.spans),
            bus_stats=prepared.env.bus.stats(),
            title=", ".join(labels) or "repro run",
        )
        out.write(f"dashboard written to {dash_out}\n")
    return 0


def cmd_quickstart(args, out) -> int:
    from repro.desim import Environment
    from repro.scenarios import prepare_quickstart

    env = Environment()
    sink = _attach_events_sink(env, args)
    prepared = prepare_quickstart(
        events=args.events, workers=args.workers, seed=args.seed, env=env
    )
    return _finish(prepared, out, sink=sink, dash_out=args.dash_out)


def cmd_simulate(args, out) -> int:
    from repro.analysis.profiles import profile
    from repro.desim import Environment
    from repro.scenarios import prepare_simulate

    try:
        code = profile(args.profile)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None
    if code.kind.value != "simulation":
        raise SystemExit(f"profile {args.profile!r} is not a simulation profile")
    env = Environment()
    sink = _attach_events_sink(env, args)
    prepared = prepare_simulate(
        code,
        events=args.events,
        machines=args.machines,
        cores=args.cores,
        seed=args.seed,
        label=f"mc-{args.profile}",
        env=env,
    )
    return _finish(prepared, out, sink=sink, dash_out=args.dash_out)


def cmd_process(args, out) -> int:
    from repro.analysis.profiles import profile
    from repro.desim import Environment
    from repro.scenarios import prepare_process

    try:
        code = profile(args.profile)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None
    if code.kind.value != "data-processing":
        raise SystemExit(f"profile {args.profile!r} is not a data profile")
    env = Environment()
    sink = _attach_events_sink(env, args)
    prepared = prepare_process(
        code,
        files=args.files,
        machines=args.machines,
        cores=args.cores,
        wan_gbit=args.wan_gbit,
        outage_hours=args.outage_hours,
        seed=args.seed,
        label=f"data-{args.profile}",
        env=env,
    )
    return _finish(prepared, out, sink=sink, dash_out=args.dash_out)


def cmd_chaos(args, out) -> int:
    """A data run that survives a barrage of injected faults.

    See :func:`repro.scenarios.prepare_chaos` for the fault schedule —
    the same scenario is reachable declaratively as the sweep registry's
    ``chaos`` scenario.
    """
    from repro.desim import Environment
    from repro.scenarios import prepare_chaos

    env = Environment()
    sink = _attach_events_sink(env, args)
    prepared = prepare_chaos(
        files=args.files,
        machines=args.machines,
        cores=args.cores,
        wan_gbit=args.wan_gbit,
        seed=args.seed,
        bit_rot=args.bit_rot,
        truncate=args.truncate,
        duplicates=args.duplicates,
        master_crash_at=args.master_crash_at,
        env=env,
    )
    if args.master_crash_at is None:
        return _finish(prepared, out, sink=sink, dash_out=args.dash_out)

    # Crash-and-recover flow: run until the MasterCrash fault kills the
    # master, then warm-restart the campaign from the surviving Lobster
    # DB and drive the resumed run to completion.  The restart keeps the
    # environment and its bus, so the dashboard folds both runs.
    from repro.scenarios import execute_prepared, settle_run, warm_restart

    dash = _attach_dash(env, args.dash_out)
    execute_prepared(prepared, settle=60.0)
    if not prepared.run.crashed:
        out.write(
            f"campaign finished before t={args.master_crash_at:.0f}s — "
            "the master was never crashed\n"
        )
        # Settle the rest of the window every finished run gets.
        settle_run(env, _SETTLE - 60.0)
        return _report(prepared, out, sink, dash)
    out.write(
        f"MASTER CRASHED at t={env.now:.0f}s "
        f"({prepared.run.master.tasks_returned} task results banked so far)\n"
    )
    resumed = warm_restart(prepared)
    out.write("WARM RESTART: recovering from the Lobster DB\n")
    execute_prepared(resumed, settle=_SETTLE)
    return _report(resumed, out, sink, dash)


def cmd_crashtest(args, out) -> int:
    """Fuzz crash consistency: crash at checkpoints, assert convergence.

    See :mod:`repro.crashtest` for the harness.  Exit status is 0 only
    when every tested crash point converges with clean invariants (the
    CI gate greps the ``CRASHTEST OK`` verdict line as a backstop).
    """
    from repro.crashtest import list_crash_scenarios, run_crashtest

    if args.list_only:
        for spec in list_crash_scenarios():
            out.write(f"{spec.name:<12s} {spec.description}\n")
        return 0

    def progress(point):
        verdict = "ok" if point.ok else "FAILED"
        out.write(f"  crash @ seq={point.seq:<4d} {point.op:<22s} {verdict}\n")
        for problem in point.problems:
            out.write(f"      {problem}\n")

    try:
        report = run_crashtest(
            scenario=args.scenario,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            double_crash=args.double_crash,
            progress=progress,
        )
    except KeyError as exc:
        # str(KeyError) wraps the message in repr quotes; unwrap it.
        raise SystemExit(exc.args[0]) from None
    out.write(report.format_report() + "\n")
    if args.report_out is not None:
        import json

        with open(args.report_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        out.write(f"report written to {args.report_out}\n")
    return 0 if report.ok else 1


def cmd_tasksize(args, out) -> int:
    from repro.core import TaskSizeConfig, TaskSizeSimulator
    from repro.distributions import (
        ConstantHazardEviction,
        NoEviction,
        WeibullEviction,
    )

    model = {
        "constant": lambda: ConstantHazardEviction(args.probability),
        "weibull": lambda: WeibullEviction(),
        "none": lambda: NoEviction(),
    }[args.eviction]()
    sim = TaskSizeSimulator(
        TaskSizeConfig(n_tasklets=args.tasklets, n_workers=args.workers),
        seed=args.seed,
    )
    out.write(f"eviction model: {model!r}\n")
    out.write("hours  tasklets/task  efficiency\n")
    best = None
    for hours in (0.25, 0.5, 1, 2, 3, 4, 6, 8, 10):
        r = sim.simulate(hours * HOUR, model)
        out.write(f"{hours:5.2f}  {r.tasklets_per_task:13d}  {r.efficiency:10.4f}\n")
        if best is None or r.efficiency > best.efficiency:
            best = r
    out.write(
        f"\noptimal: {best.task_length / HOUR:.2f} h "
        f"({best.tasklets_per_task} tasklets/task) at {best.efficiency:.1%}\n"
    )
    return 0


def cmd_profiles(args, out) -> int:
    from repro.analysis.profiles import PROFILES, profile

    out.write(f"{'name':<14s} {'kind':<16s} {'cpu/evt':>8s} {'in/evt':>9s} {'out/evt':>9s}\n")
    for name in sorted(PROFILES):
        code = profile(name)
        out.write(
            f"{name:<14s} {code.kind.value:<16s} "
            f"{code.per_event_cpu.mean():8.3f} "
            f"{code.input_bytes_per_event / 1e3:8.0f}k "
            f"{code.output_bytes_per_event / 1e3:8.0f}k\n"
        )
    return 0


def cmd_topology(args, out) -> int:
    from repro.batch import MachinePool
    from repro.core import Services
    from repro.desim import Environment

    env = Environment()
    services = Services.default(env, wan_bandwidth=args.wan_gbit * GBIT)
    MachinePool.homogeneous(
        env,
        args.machines,
        cores=args.cores,
        fabric=services.fabric,
        machines_per_switch=args.machines_per_switch,
    )
    out.write(services.fabric.describe() + "\n")
    return 0


def cmd_events(args, out) -> int:
    from collections import Counter

    from repro.monitor import RunMetrics, diagnose

    metrics = RunMetrics()
    events = _replay_file(args.path, metrics)

    out.write(f"{len(events)} events from {args.path}\n")
    counts = Counter(ev.get("topic", "?") for ev in events)
    for topic, n in counts.most_common(args.top):
        out.write(f"  {topic:<18s} {n:8d}\n")
    if len(counts) > args.top:
        out.write(f"  ... and {len(counts) - args.top} more topics\n")

    out.write(
        f"\ntask records: {metrics.n_tasks} "
        f"({metrics.n_succeeded()} ok, {metrics.n_failed()} failed), "
        f"evictions seen: {metrics.evictions_seen}\n"
    )
    if metrics.n_tasks:
        b = metrics.runtime_breakdown()
        out.write(f"overall efficiency: {metrics.overall_efficiency():.1%}\n")
        for label, hours, pct in b.rows():
            out.write(f"  {label:<16s} {hours:9.2f} h  {pct:5.1f}%\n")

    findings = diagnose(metrics)
    if findings:
        out.write("\ntroubleshooting findings:\n")
        for d in findings:
            out.write(
                f"  [{d.symptom}] {d.metric:.3g} > {d.threshold:.3g}: "
                f"{d.suggestion}\n"
            )
    elif metrics.n_tasks:
        out.write("\nno troubleshooting findings — run looks healthy\n")
    return 0


def cmd_trace(args, out) -> int:
    """Produce and analyze span trees, live or from a recording.

    Live mode runs the quickstart scenario with a
    :class:`~repro.monitor.SpanTracer` attached; ``--replay`` instead
    rebuilds the spans from a JSONL event recording (span events are
    part of the bus stream, so any ``--events-out`` file from a traced
    run replays losslessly).
    """
    from repro.monitor import (
        critical_path,
        diagnose,
        format_breakdown,
        work_coverage,
        write_chrome_trace,
        write_spans_jsonl,
    )

    if args.replay is not None:
        from repro.monitor import RunMetrics, SpanStreamBuilder

        builder, metrics = SpanStreamBuilder(), RunMetrics()
        events = _replay_file(args.replay, builder, metrics)
        spans = builder.result()
        orphan_count = sum(
            1 for s in spans
            if s.parent_id is None and s.name not in ("unit", "run")
        )
        out.write(f"replayed {len(events)} events from {args.replay}\n")
    else:
        from repro.analysis import simulation_code
        from repro.batch import CondorPool, GlideinRequest, MachinePool
        from repro.core import LobsterConfig, LobsterRun, Services, WorkflowConfig
        from repro.desim import Environment
        from repro.distributions import ConstantHazardEviction
        from repro.monitor import SpanTracer

        env = Environment()
        tracer = SpanTracer(env)
        sink = _attach_events_sink(env, args)
        services = Services.default(env, seed=args.seed)
        cfg = LobsterConfig(
            workflows=[
                WorkflowConfig(
                    label="traced",
                    code=simulation_code(),
                    n_events=args.events,
                    events_per_tasklet=500,
                    tasklets_per_task=4,
                )
            ],
            cores_per_worker=4,
            seed=args.seed,
        )
        run = LobsterRun(env, cfg, services)
        run.start()
        machines = MachinePool.homogeneous(
            env, args.workers, cores=4, fabric=services.fabric
        )
        pool = CondorPool(
            env, machines, eviction=ConstantHazardEviction(0.1), seed=args.seed
        )
        pool.submit(
            GlideinRequest(
                n_workers=args.workers, cores_per_worker=4, start_interval=2.0
            ),
            run.worker_payload,
        )
        env.run(until=run.process)
        pool.drain()
        try:
            env.run(until=env.now + 300.0)
        except RuntimeError:
            pass
        orphan_count = len(tracer.finalize())
        spans = list(tracer.spans)
        metrics = run.metrics
        if sink is not None:
            sink.close()
            out.write(f"recorded {sink.count} events to {sink.path}\n")

    traces = {s.trace_id for s in spans}
    out.write(f"{len(spans)} spans across {len(traces)} traces, "
              f"{orphan_count} orphans\n")
    if args.spans_out is not None:
        n = write_spans_jsonl(spans, args.spans_out)
        out.write(f"wrote {n} spans to {args.spans_out}\n")
    if args.chrome_out is not None:
        n = write_chrome_trace(spans, args.chrome_out)
        out.write(f"wrote {n} trace events to {args.chrome_out} "
                  f"(open in chrome://tracing or ui.perfetto.dev)\n")
    if not spans:
        return 0

    slices, makespan = critical_path(spans)
    if slices:
        out.write("\n" + format_breakdown(slices, makespan, top=args.top) + "\n")
        out.write(
            f"critical path covers {work_coverage(slices, makespan):.1%} "
            f"of the {makespan:.0f}s makespan\n"
        )

    findings = diagnose(metrics, spans=spans)
    if findings:
        out.write("\ntroubleshooting findings (with evidence spans):\n")
        for d in findings:
            out.write(f"  - {d}\n")
    else:
        out.write("\nno troubleshooting findings — run looks healthy\n")
    return 0


def cmd_sweep(args, out) -> int:
    """Expand a sweep spec, execute its matrix, and write the payload."""
    from repro.sweep import format_sweep_table, load_spec, run_sweep, write_json

    try:
        spec = load_spec(args.spec)
    except OSError as exc:
        raise SystemExit(str(exc)) from None
    except ValueError as exc:
        raise SystemExit(f"{args.spec}: {exc}") from None
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")

    plans = spec.expand()
    out.write(
        f"sweep {spec.name!r}: scenario {spec.scenario!r}, "
        f"{len(plans)} runs across {len(spec.axes)} axes "
        f"(seed {spec.resolved_seed()}, jobs {args.jobs})\n"
    )
    if args.list_only:
        for plan in plans:
            out.write(f"  {plan.run_id}\n")
        return 0

    def progress(row):
        status = row.status if not row.resumed else f"{row.status} (resumed)"
        note = ""
        if row.ok and "makespan_s" in row.metrics:
            note = f"  makespan {row.metrics['makespan_s']:.0f}s"
        elif row.error:
            note = f"  {row.error}"
        out.write(f"  [{status:>4s}] {row.run_id}{note}\n")

    try:
        payload = run_sweep(
            spec,
            jobs=args.jobs,
            baseline=args.baseline,
            resume=args.resume,
            timeout_s=args.timeout,
            progress=progress,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    write_json(payload, args.out)
    out.write(f"\n{format_sweep_table(payload)}\n")
    out.write(f"wrote {args.out}\n")
    return 0 if payload["n_failed"] == 0 else 1


def _parse_params(pairs: List[str]) -> dict:
    """Parse repeated ``--param KEY=VALUE`` flags into scenario kwargs.

    Values are coerced int → float → string so ``--param workers=20``
    and ``--param wan_gbit=0.6`` both round-trip into the scenario
    builder's native types.
    """
    params: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key.replace("-", "_")] = value
    return params


def _des_scenario(args):
    """Look up ``--scenario`` as a sweep-registry DES run scenario.

    Returns ``(scenario, params)``: the ``--param`` overrides, with the
    seed defaulting to ``--seed``.
    """
    from repro.sweep import get_scenario, list_scenarios

    try:
        scenario = get_scenario(args.scenario)
    except KeyError:
        names = ", ".join(s.name for s in list_scenarios())
        raise SystemExit(
            f"unknown scenario {args.scenario!r} (available: {names})"
        ) from None
    if scenario.kind != "des":
        raise SystemExit(f"scenario {args.scenario!r} is not a DES run scenario")
    params = _parse_params(args.param)
    params.setdefault("seed", args.seed)
    return scenario, params


def cmd_dash(args, out) -> int:
    """Render a run as a static HTML ops dashboard.

    Live mode runs a DES scenario from the sweep registry with a
    :class:`~repro.monitor.RunMetrics` fold (and a
    :class:`~repro.monitor.SpanTracer`, so §5 diagnoses carry
    click-through evidence spans) attached to the bus; ``--replay``
    instead rebuilds the fold and the spans from a JSONL event
    recording.  Both paths render the same page for the same run.
    """
    from repro.monitor import RunMetrics, write_dashboard

    metrics = RunMetrics()
    if args.replay is not None:
        from repro.monitor import SpanStreamBuilder

        builder = SpanStreamBuilder()
        events = _replay_file(args.replay, metrics, builder)
        spans = builder.result()
        bus_stats = None
        title = f"replay of {args.replay}"
        out.write(f"replayed {len(events)} events from {args.replay}\n")
    else:
        from repro.desim import Environment
        from repro.monitor import BusCollector, SpanTracer

        scenario, params = _des_scenario(args)
        env = Environment()
        tracer = SpanTracer(env)
        BusCollector(env.bus, metrics)
        try:
            scenario.build(env, **params)
        except TypeError as exc:
            raise SystemExit(f"scenario {args.scenario!r}: {exc}") from None
        tracer.finalize()
        spans = list(tracer.spans)
        bus_stats = env.bus.stats()
        title = f"{args.scenario} (seed {params['seed']})"
        out.write(f"ran scenario {args.scenario!r}: {metrics.n_tasks} task records\n")

    write_dashboard(
        args.out,
        metrics,
        bin_width=args.bin_width,
        spans=spans,
        bus_stats=bus_stats,
        title=title,
    )
    out.write(f"dashboard written to {args.out}\n")
    return 0


def cmd_watch(args, out) -> int:
    """Watch a run live (or replay one) through the health engine.

    Live mode attaches a :class:`~repro.monitor.RunWatcher` (plus a
    ``RunMetrics`` fold for the dashboard and a span tracer) to a DES
    scenario from the sweep registry; every detector transition is
    printed as a greppable ``ALERT`` line and published on the bus, and
    ``--refresh-every`` re-renders the dashboard atomically at window
    closes.  ``--replay``
    runs the same engine over a JSONL recording — the alert stream is
    byte-identical to what the live run produced.
    """
    import json as _json

    from repro.monitor import RunMetrics, write_dashboard

    metrics = RunMetrics()
    if args.replay is not None:
        from repro.monitor import WatchEngine

        engine = WatchEngine(window=args.window)
        events = _replay_file(args.replay, engine, metrics)
        bus_stats = None
        bus_timeline = None
        now = max((float(e.get("t", 0.0)) for e in events), default=None)
        title = f"watch replay of {args.replay}"
        out.write(f"replayed {len(events)} events from {args.replay}\n")
    else:
        from repro.desim import Environment
        from repro.monitor import BusCollector, RunWatcher, SpanTracer

        scenario, params = _des_scenario(args)
        env = Environment()
        sink = _attach_events_sink(env, args)
        tracer = SpanTracer(env)
        BusCollector(env.bus, metrics)
        watcher = RunWatcher(env.bus, window=args.window)
        engine = watcher.engine

        refreshes = [0]
        if args.refresh_every is not None:
            last = [0.0]
            sample_bus = engine.on_window  # the watcher's stats sampler

            def on_window(w_idx: int, t: float) -> None:
                sample_bus(w_idx, t)
                if t - last[0] >= args.refresh_every:
                    last[0] = t
                    write_dashboard(
                        args.out,
                        metrics,
                        bin_width=args.window,
                        bus_stats=env.bus.stats(),
                        title=f"{args.scenario} (live, t={t:.0f}s)",
                        alerts=engine.alerts,
                        watch_history=engine.history,
                        bus_timeline=watcher.bus_timeline,
                        now=t,
                    )
                    refreshes[0] += 1

            engine.on_window = on_window

        try:
            scenario.build(env, **params)
        except TypeError as exc:
            raise SystemExit(f"scenario {args.scenario!r}: {exc}") from None
        tracer.finalize()
        if sink is not None:
            sink.close()
            out.write(f"recorded {sink.count} events to {sink.path}\n")
        bus_stats = env.bus.stats()
        bus_timeline = watcher.bus_timeline
        now = float(env.now)
        title = f"{args.scenario} (seed {params['seed']})"
        out.write(
            f"watched {engine.events_seen} events across "
            f"{engine.windows_closed} windows"
            + (f", {refreshes[0]} mid-run refreshes\n"
               if args.refresh_every is not None else "\n")
        )

    for a in engine.alerts:
        verb = "RAISE" if a["topic"].endswith("raise") else "clear"
        out.write(
            f"ALERT {verb} t={a['t']:.0f} {a['alert']} {a['severity']} "
            f"window={a['window']} level={a['level']:.4g}\n"
        )
    raised = len(engine.alerts_raised())
    cleared = len(engine.alerts_cleared())
    out.write(f"alerts: {raised} raised, {cleared} cleared\n")

    if args.alerts_out is not None:
        with open(args.alerts_out, "w", encoding="utf-8") as fh:
            _json.dump(engine.alerts, fh, sort_keys=True, indent=1)
            fh.write("\n")
        out.write(f"alert stream written to {args.alerts_out}\n")

    write_dashboard(
        args.out,
        metrics,
        bin_width=args.window,
        bus_stats=bus_stats,
        title=title,
        alerts=engine.alerts,
        watch_history=engine.history,
        bus_timeline=bus_timeline,
        now=now,
    )
    out.write(f"dashboard written to {args.out}\n")
    if args.fail_on_alert and raised:
        return 1
    return 0


_COMMANDS = {
    "quickstart": cmd_quickstart,
    "simulate": cmd_simulate,
    "process": cmd_process,
    "chaos": cmd_chaos,
    "crashtest": cmd_crashtest,
    "tasksize": cmd_tasksize,
    "profiles": cmd_profiles,
    "topology": cmd_topology,
    "events": cmd_events,
    "trace": cmd_trace,
    "sweep": cmd_sweep,
    "dash": cmd_dash,
    "watch": cmd_watch,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:  # e.g. `python -m repro events run.jsonl | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
