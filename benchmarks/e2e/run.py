#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, run the way users run it.

Each workload is one or more ``python -m repro`` commands, each started
in a fresh interpreter by ``probe.py``, one at a time (a closed loop from
this single process, no threads).  Wall-clock phases are taken from
outside the program at its public boundaries: process spawn, the end of
``import repro.cli``, entry to and exit from
``repro.scenarios.execute_prepared``, and process exit.  A traced round
runs the same commands under cProfile and splits self-time by layer
(``layers.py``).  See README.md for the metrics and the workloads.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload NAME]... [--seed S]
        [--repeats N] [--trace] [--out PATH]
    python benchmarks/e2e/run.py --workload NAME --seed S --seconds T
        --trace 0|1
    python benchmarks/e2e/run.py --compare BASE.json NEW.json
    python benchmarks/e2e/run.py --list

The first form runs a set: one warm-up process, then ``--repeats``
interleaved rounds with the workload order rotating each round, and
writes ``BENCH_e2e.json``.  The second runs one workload for about
``--seconds`` of rounds and prints one JSON result as the last line of
stdout: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import pstats
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from layers import bucket

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
WORK = HERE / ".work"
DEFAULT_OUT = HERE / "out" / "BENCH_e2e.json"
SCHEMA = "repro.bench/1"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: End-to-end metrics: name -> (unit, better, absolute floor of the bound).
E2E = {
    "wall_s": ("s", "lower", 0.05),
    "setup_s": ("s", "lower", 0.03),
    "sim_s": ("s", "lower", 0.0),
    "report_s": ("s", "lower", 0.05),
    "replay_s": ("s", "lower", 0.0),
    "tasks_per_s": ("tasks/s", "higher", 0.0),
    "peak_rss_mb": ("MB", "lower", 0.0),
}
#: Relative bounds of the metrics BENCHMARK.json leaves out: ``replay_s``
#: exists on ``record_replay`` only, and ``report_s`` (mostly interpreter
#: teardown, ~0.1 s) spreads by up to 30% across timed runs on a noisy host.
SET_ONLY_BOUNDS = {"report_s": 0.25, "replay_s": 0.25}
BOUNDS = {**{m["name"]: m["bound"] for m in SPEC["end_to_end"]}, **SET_ONLY_BOUNDS}

INVOCATION_TIMEOUT_S = 120.0
#: A timed run (``--seconds``) must end well inside three minutes.
RUN_DEADLINE_S = 170.0
#: A timed run's medians need at least this many rounds to shrug off
#: one round slowed by a noisy host, even if that overruns ``--seconds``.
MIN_ROUNDS = 3
#: A cProfile'd round takes up to about this many plain rounds.
TRACE_SLOWDOWN = 4
WARMUP_IMPORTS = "import repro.cli, repro.scenarios, repro.faults, scipy.stats"


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


@dataclass
class Invocation:
    """One ``python -m repro`` command of a workload.

    ``{seed}`` and ``{tmp}`` in *argv* are filled per round; *produces*
    names the files it writes into ``{tmp}``, which must be non-empty and
    are digested; each of *checks* returns the problems it finds.
    """

    argv: Sequence[str]
    produces: Sequence[str] = ()
    checks: Sequence[Callable] = ()


@dataclass
class Workload:
    """The first invocation is the live run; any others replay its files.

    Why each workload exists is recorded in BENCHMARK.json.
    """

    name: str
    invocations: Sequence[Invocation]

    @property
    def why(self) -> str:
        return next(w["why"] for w in SPEC["workloads"] if w["name"] == self.name)


def _recovered(res: "InvocationResult", live: "InvocationResult") -> List[str]:
    runs = res.probe["runs"]
    if len(runs) >= 2 and runs[0]["crashed"] and not runs[-1]["crashed"]:
        return []
    return ["no crashed run followed by a recovered run"]


def _task_records_match(res: "InvocationResult", live: "InvocationResult") -> List[str]:
    found = re.search(r"^task records: (\d+)", res.stdout, re.MULTILINE)
    want = sum(r["tasks_recorded"] for r in live.probe["runs"])
    if found is None or int(found.group(1)) != want:
        got = found.group(1) if found else "none"
        return [f"replayed task records {got} != live tasks_recorded {want}"]
    return []


def _no_orphans(res: "InvocationResult", live: "InvocationResult") -> List[str]:
    return [] if ", 0 orphans\n" in res.stdout else ["trace replay has orphan spans"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_dispatch",
            [Invocation(["simulate", "--profile", "gensim", "--events", "2000000",
                         "--seed", "{seed}"])],
        ),
        Workload(
            "data_fabric",
            [Invocation(["process", "--files", "600", "--seed", "{seed}"])],
        ),
        Workload(
            "chaos_recovery",
            [Invocation(["chaos", "--files", "600", "--machines", "24",
                         "--bit-rot", "3", "--truncate", "3", "--duplicates", "3",
                         "--master-crash-at", "7200", "--seed", "{seed}"],
                        checks=[_recovered])],
        ),
        Workload(
            "record_replay",
            [
                Invocation(["process", "--files", "150", "--events-out",
                            "{tmp}/R.jsonl", "--dash-out", "{tmp}/D.html",
                            "--seed", "{seed}"],
                           produces=["R.jsonl", "D.html"]),
                Invocation(["events", "{tmp}/R.jsonl"], checks=[_task_records_match]),
                Invocation(["trace", "--replay", "{tmp}/R.jsonl"], checks=[_no_orphans]),
                Invocation(["dash", "--replay", "{tmp}/R.jsonl", "--out", "{tmp}/D2.html"],
                           produces=["D2.html"]),
                Invocation(["watch", "--replay", "{tmp}/R.jsonl", "--alerts-out",
                            "{tmp}/A.json"],
                           produces=["A.json"]),
            ],
        ),
        Workload(
            "quickstart_cold",
            [Invocation(["quickstart", "--events", "20000", "--seed", "{seed}"])],
        ),
    )
}


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------


@dataclass
class InvocationResult:
    argv: List[str]
    t_spawn: float
    t_exit: float
    rc: Optional[int]
    max_rss_kb: int
    stdout: str
    probe: Optional[dict]
    profile: Optional[Path]
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)

    @property
    def t_end(self) -> float:
        """Process exit, less the time the probe spent after ``main``."""
        return self.t_exit - self.probe["post_s"]

    @property
    def wall_s(self) -> float:
        return self.t_end - self.t_spawn


@dataclass
class RoundResult:
    workload: str
    invocations: List[InvocationResult]
    metrics: Optional[Dict[str, float]]
    counts: Dict[str, float]
    layers: Optional[Dict[str, float]] = None

    @property
    def failed(self) -> int:
        return sum(1 for r in self.invocations if r.problems)


def _child_env(cwd: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(cwd))


def _digest(data: bytes, tmp: Path) -> str:
    return hashlib.sha256(data.replace(str(tmp).encode(), b"$TMP")).hexdigest()


def _invoke(argv: List[str], cwd: Path, trace: bool, timeout: float) -> InvocationResult:
    """Run *argv* under the probe in a fresh process and reap it."""
    result_path = cwd / "probe.json"
    profile = cwd / "profile.pstats" if trace else None
    cmd = [sys.executable, str(PROBE), str(result_path), str(profile or "-"), *argv]
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(cwd), stdout=out, stderr=err)
        # A pidfd wakes select() the moment the child exits, so the exit
        # time is exact; Popen.wait(timeout) polls in steps of up to 50 ms.
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            t_exit = time.monotonic()
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe = None
    if ready and result_path.exists():
        probe = json.loads(result_path.read_text(encoding="utf-8"))
    res = InvocationResult(
        argv=argv,
        t_spawn=t_spawn,
        t_exit=t_exit,
        rc=proc.returncode if ready else None,
        max_rss_kb=usage.ru_maxrss,
        stdout=(cwd / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
        probe=probe,
        profile=profile,
    )
    if not ready:
        res.problems.append(f"timed out after {timeout:.0f} s")
    elif res.rc != 0 or probe is None:
        tail = (cwd / "stderr.txt").read_text(errors="replace").strip().splitlines()
        res.problems.append(f"exit code {res.rc}: {tail[-1] if tail else 'no stderr'}")
    return res


def _check_run(res: InvocationResult) -> List[str]:
    """Checks that hold for every invocation that ran a scenario."""
    problems = [f"invariant: {p}" for p in res.probe["invariants"]]
    for label, wf in res.probe["runs"][-1]["workflows"].items():
        if wf["tasklets_done"] != wf["tasklets"]:
            problems.append(
                f"workflow {label}: {wf['tasklets_done']}/{wf['tasklets']} tasklets done"
            )
    return problems


def run_round(
    workload: Workload, seed: int, trace: bool = False, deadline: float = float("inf")
) -> RoundResult:
    """Run every invocation of *workload* once, in order, and check them."""
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        results: List[InvocationResult] = []
        for i, inv in enumerate(workload.invocations):
            cwd = tmp / str(i)
            cwd.mkdir()
            argv = [a.format(seed=seed, tmp=tmp) for a in inv.argv]
            timeout = min(INVOCATION_TIMEOUT_S, deadline - time.monotonic())
            res = _invoke(argv, cwd, trace, timeout)
            results.append(res)
            if res.problems:
                break  # later invocations read this one's files
            res.digests["stdout"] = _digest(res.stdout.encode(), tmp)
            for name in inv.produces:
                path = tmp / name
                if not path.exists() or path.stat().st_size == 0:
                    res.problems.append(f"{name} is missing or empty")
                else:
                    res.digests[name] = _digest(path.read_bytes(), tmp)
            if res.probe["runs"]:
                res.problems += _check_run(res)
            for check in inv.checks:
                res.problems += check(res, results[0])
        complete = len(results) == len(workload.invocations) and not any(
            r.problems for r in results
        )
        metrics = _round_metrics(results) if complete else None
        counts = _round_counts(results, tmp) if complete else {}
        layers = None
        if trace and complete:
            layers = bucket(pstats.Stats(*(str(r.profile) for r in results)).stats)
        return RoundResult(workload.name, results, metrics, counts, layers)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _round_metrics(results: List[InvocationResult]) -> Dict[str, float]:
    live, replays = results[0], results[1:]
    spans = live.probe["execute"]
    sim_s = sum(end - start for start, end in spans)
    tasks = sum(r["tasks_recorded"] for r in live.probe["runs"])
    metrics = {
        "wall_s": sum(r.wall_s for r in results),
        "setup_s": spans[0][0] - live.t_spawn,
        "sim_s": sim_s,
        "report_s": live.t_end - spans[-1][1],
        "tasks_per_s": tasks / sim_s,
        "peak_rss_mb": max(r.max_rss_kb for r in results) / 1024.0,
    }
    if replays:
        metrics["replay_s"] = sum(r.wall_s for r in replays)
    return metrics


def _round_counts(results: List[InvocationResult], tmp: Path) -> Dict[str, float]:
    """Per-layer values read from a plain (untraced) round."""
    live = results[0]
    counts = {
        "desim.core.events": live.probe["kernel_events"],
        "desim.bus.published": live.probe["bus"]["published"],
        "desim.bus.delivered": live.probe["bus"]["delivered"],
        "import.wall_s": live.probe["import_done"] - live.t_spawn,
        "monitor.recorded_events": 0,
        "monitor.recorded_bytes": 0,
    }
    recording = tmp / "R.jsonl"
    if recording.exists():
        data = recording.read_bytes()
        counts["monitor.recorded_events"] = data.count(b"\n")
        counts["monitor.recorded_bytes"] = len(data)
    return counts


def warm_up() -> None:
    """Compile ``.pyc`` files and fill the page cache, untimed: one
    process importing every module the workloads load, lazy ones too."""
    WORK.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "-c", WARMUP_IMPORTS],
        cwd=WORK, env=_child_env(WORK), check=True, timeout=INVOCATION_TIMEOUT_S,
    )


# --------------------------------------------------------------------------
# Statistics and reports
# --------------------------------------------------------------------------


def quartiles(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def _nondeterminism(rounds: List[RoundResult]) -> None:
    """Mark invocations whose digests differ from the first complete round."""
    reference = next((r for r in rounds if r.metrics is not None), None)
    if reference is None:
        return
    for rnd in rounds:
        for ref, res in zip(reference.invocations, rnd.invocations):
            for name, digest in res.digests.items():
                if ref.digests.get(name) != digest:
                    res.problems.append(f"nondeterministic: {name} differs from round 1")


def summarise(workload: Workload, rounds: List[RoundResult], traced: Optional[RoundResult]):
    """The BENCH_e2e.json entry of one workload."""
    everything = rounds + ([traced] if traced else [])
    _nondeterminism(everything)
    attempted = sum(len(r.invocations) for r in everything)
    failed = sum(r.failed for r in everything)
    good = [r for r in rounds if r.metrics is not None and not r.failed]
    metrics = {}
    for name in E2E:
        samples = [r.metrics[name] for r in good if name in r.metrics]
        if samples:
            metrics[name] = {"unit": E2E[name][0], **quartiles(samples), "samples": samples}
    entry = {
        "why": workload.why,
        "argv": [list(inv.argv) for inv in workload.invocations],
        "metrics": metrics,
        "failed_ops": {
            "value": failed / attempted,
            "failed": failed,
            "attempted": attempted,
        },
        "failures": sorted({
            f"{res.argv[0]}: {p}"
            for rnd in everything for res in rnd.invocations for p in res.problems
        }),
    }
    if good:
        first = good[0]
        per_layer = {
            name: statistics.median(r.counts[name] for r in good) for name in first.counts
        }
        live_runs = first.invocations[0].probe["runs"]
        entry["outputs"] = {
            "digests": {
                f"{i}.{name}": digest
                for i, res in enumerate(first.invocations)
                for name, digest in res.digests.items()
            },
            "makespan_s": live_runs[-1]["finished"],
            "efficiency": live_runs[-1]["overall_efficiency"],
            "tasks": {
                key: sum(r[key] for r in live_runs)
                for key in ("tasks_recorded", "tasks_succeeded", "tasks_failed",
                            "tasks_requeued")
            },
        }
        if traced is not None and traced.layers is not None:
            per_layer.update(traced.layers)
            per_layer["trace.overhead"] = (
                traced.metrics["wall_s"] / metrics["wall_s"]["median"]
            )
        entry["per_layer"] = per_layer
    return entry


def contract_result(entry: dict, trace: bool) -> dict:
    """The one-line result a timed run prints: the BENCHMARK.json metrics."""
    if trace:
        values = entry.get("per_layer", {})
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"] if m["name"] in values
        }
    else:
        metrics = {
            m["name"]: {"value": entry["metrics"][m["name"]]["median"], "unit": m["unit"]}
            for m in SPEC["end_to_end"] if m["name"] in entry["metrics"]
        }
    failed_ops = entry["failed_ops"]
    return {
        "correct": failed_ops["failed"] == 0,
        "attempted": failed_ops["attempted"],
        "failed": failed_ops["failed"],
        "metrics": metrics,
    }


def format_set(payload: dict) -> str:
    lines = []
    for name, entry in payload["workloads"].items():
        fo = entry["failed_ops"]
        lines.append(f"{name}  (failed_ops = {fo['value']:.4g}: "
                     f"{fo['failed']}/{fo['attempted']} invocations)")
        for metric, m in entry["metrics"].items():
            lines.append(
                f"  {metric:<12s} {m['median']:12.4f} {m['unit']:<8s} "
                f"[q1 {m['q1']:.4f}, q3 {m['q3']:.4f}]  n={m['n']}"
            )
        for failure in entry["failures"]:
            lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def _git_state() -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                 text=True, timeout=30)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    return {"git_sha": git("rev-parse", "HEAD"),
            "src_modified": bool(git("status", "--porcelain", "--", "src"))}


# --------------------------------------------------------------------------
# Compare
# --------------------------------------------------------------------------


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float,
            floor: float = 0.0) -> str:
    """``better``, ``worse``, ``same`` or ``unresolved`` for one metric.

    The tolerance is the bound as a share of the base median, at least
    *floor*.  A row is unresolved when either side's IQR is wider than
    the tolerance, unless every NEW run beats every BASE run.
    """
    sign = 1.0 if better == "lower" else -1.0
    b, n = quartiles(base), quartiles(new)
    tol = max(bound * abs(b["median"]), floor)
    worse_by = sign * (n["median"] - b["median"])
    if max(b["q3"] - b["q1"], n["q3"] - n["q1"]) > tol:
        beats = all(sign * (x - y) < 0 for x in new for y in base)
        return "better" if beats else "unresolved"
    if worse_by > tol:
        return "worse"
    if -worse_by > tol:
        return "better"
    return "same"


def compare(base: dict, new: dict) -> List[tuple]:
    """One row per (workload, metric) present on both sides."""
    rows = []
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            continue
        for metric, (unit, better, floor) in E2E.items():
            if metric in b["metrics"] and metric in n["metrics"]:
                bs, ns = b["metrics"][metric]["samples"], n["metrics"][metric]["samples"]
                rows.append((name, metric, unit, quartiles(bs)["median"],
                             quartiles(ns)["median"],
                             verdict(bs, ns, better, BOUNDS[metric], floor)))
        bf, nf = b["failed_ops"]["value"], n["failed_ops"]["value"]
        rows.append((name, "failed_ops", "ratio", bf, nf,
                     "worse" if nf > bf else "better" if nf < bf else "same"))
    return rows


def format_compare(rows: List[tuple]) -> str:
    lines = [f"{'workload':<16s} {'metric':<12s} {'base':>12s} {'new':>12s} "
             f"{'change':>8s}  verdict"]
    for workload, metric, unit, b, n, v in rows:
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        lines.append(f"{workload:<16s} {metric:<12s} {b:12.4f} {n:12.4f} {change:>8s}  "
                     f"{v} ({unit})")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _round_line(rnd: RoundResult) -> str:
    if rnd.metrics is None or rnd.failed:
        return f"  {rnd.workload:<16s} FAILED"
    m = rnd.metrics
    return (f"  {rnd.workload:<16s} wall {m['wall_s']:7.3f} s  setup {m['setup_s']:6.3f} s"
            f"  sim {m['sim_s']:7.3f} s  report {m['report_s']:6.3f} s")


def timed_run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds of one workload for about *seconds*, then a traced round."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    warm_up()
    start = time.monotonic()
    rounds: List[RoundResult] = []
    while True:
        rnd = run_round(workload, seed, deadline=deadline)
        rounds.append(rnd)
        _log(_round_line(rnd))
        elapsed = time.monotonic() - start
        mean = elapsed / len(rounds)
        # Past the minimum, start another round only if it should end
        # inside the window.  Never start one that, with the traced round
        # (a few times slower), could run past the deadline.
        if (
            rnd.failed
            or (len(rounds) >= MIN_ROUNDS and elapsed + mean > seconds)
            or time.monotonic() + mean * (1 + TRACE_SLOWDOWN * trace) > deadline
        ):
            break
    traced = run_round(workload, seed, trace=True, deadline=deadline) if trace else None
    return summarise(workload, rounds, traced)


def run_set(workloads: List[Workload], seed: int, repeats: int, trace: bool) -> dict:
    warm_up()
    rounds: Dict[str, List[RoundResult]] = {w.name: [] for w in workloads}
    for r in range(repeats):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        _log(f"round {r + 1}/{repeats}")
        for w in order:
            rnd = run_round(w, seed)
            rounds[w.name].append(rnd)
            _log(_round_line(rnd))
    traced = {}
    if trace:
        _log("traced round")
        for w in workloads:
            traced[w.name] = run_round(w, seed, trace=True)
            _log(_round_line(traced[w.name]))
    return {
        "schema": SCHEMA,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        **_git_state(),
        "config": {"seed": seed, "repeats": repeats, "trace": trace,
                   "order": "interleaved, rotating each round"},
        "workloads": {
            w.name: summarise(w, rounds[w.name], traced.get(w.name)) for w in workloads
        },
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="run only this workload (repeatable)")
    p.add_argument("--seed", type=int, default=0,
                   help="passed as --seed to every scenario invocation")
    p.add_argument("--repeats", type=int, default=5, help="rounds per set")
    p.add_argument("--seconds", type=float, default=None,
                   help="timed run of one workload; prints one JSON result line")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="add a cProfile round per workload for per-layer metrics")
    p.add_argument("--out", type=Path, default=DEFAULT_OUT, help="where a set is written")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), type=Path)
    p.add_argument("--list", action="store_true", help="list the workloads and exit")
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.list:
        for w in WORKLOADS.values():
            print(f"{w.name}: {w.why}")
            for inv in w.invocations:
                print(f"    python -m repro {' '.join(inv.argv)}")
        return 0
    if args.compare:
        base, new = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        rows = compare(base, new)
        print(format_compare(rows))
        return 1 if any(row[-1] == "worse" for row in rows) else 0
    if not (SRC / "repro" / "cli.py").is_file():
        _log(f"error: no simulator sources under {SRC}")
        return 2
    names = args.workload or list(WORKLOADS)
    if args.seconds is not None:
        if len(names) != 1:
            _log("error: --seconds runs exactly one --workload")
            return 2
        entry = timed_run(WORKLOADS[names[0]], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(contract_result(entry, bool(args.trace))))
        return 0
    payload = run_set([WORKLOADS[n] for n in names], args.seed, args.repeats,
                      bool(args.trace))
    print(format_set(payload))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
