"""The main Lobster process (paper §3).

`LobsterRun` glues everything together: it queries DBS for the dataset
metadata, decomposes the workflow into tasklets, groups tasklets into
tasks sized per §4.1, keeps the Work Queue master's ready buffer topped
up (400 tasks in the paper), consumes results, retries failed tasklets,
interleaves merge tasks, records everything in the SQLite Lobster DB,
and feeds the monitoring subsystem.

Workers are provided externally — usually glide-ins started through
:class:`repro.batch.CondorPool` with the payload factory this class
provides — exactly mirroring the paper's "the user must start workers by
one means or another".
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, Optional


from ..batch.condor import WorkerSlot
from ..cvmfs import CacheMode, ParrotCache
from ..desim import Environment, Interrupt, Topics
from ..monitor import BusCollector, RunMetrics
from ..storage import StoredFile
from ..storage.integrity import IntegrityError
from ..wq import Foreman, Master, Task, TaskResult, Worker
from .config import DataAccess, LobsterConfig, MergeMode, WorkflowConfig
from .jobit_db import LobsterDB
from .adaptive import AdaptiveTaskSizer
from .merge import MergeGroup, MergeManager
from .services import Services
from .unit import TaskPayload, TaskletStore
from .wrapper import Wrapper

__all__ = ["LobsterRun", "WorkflowState"]


class WorkflowState:
    """Everything Lobster tracks for one workflow."""

    def __init__(
        self,
        cfg: LobsterConfig,
        workflow: WorkflowConfig,
        services: Services,
        seed: int,
        db: Optional[LobsterDB] = None,
    ):
        self.config = workflow
        self.tasklets: Optional[TaskletStore] = None  # built at start
        self.merge = MergeManager(cfg, workflow, services, db=db)
        self.wrapper = Wrapper(cfg, workflow, services, seed=seed)
        self.outputs_created = 0
        self.tasks_created = 0
        self.quarantined_outputs = 0
        #: Every output file this workflow produced (feeds chained children).
        self.output_files = []
        self.final_merge_submitted = False
        self.hadoop_proc = None
        #: Optional §8-style feedback controller for the task size.
        self.sizer: Optional[AdaptiveTaskSizer] = (
            AdaptiveTaskSizer(
                initial_size=workflow.tasklets_per_task,
                window=cfg.adaptive_window,
            )
            if cfg.adaptive_task_size
            else None
        )

    @property
    def tasklets_per_task(self) -> int:
        """Current task size: adaptive if enabled, else the configured one."""
        if self.sizer is not None:
            return self.sizer.size
        return self.config.tasklets_per_task

    @property
    def label(self) -> str:
        return self.config.label

    @property
    def processing_complete(self) -> bool:
        return self.tasklets is not None and self.tasklets.complete

    @property
    def merge_done(self) -> bool:
        mode = self.config.merge_mode
        if mode == MergeMode.NONE:
            return True
        if mode == MergeMode.HADOOP:
            if self.merge.unmerged:
                return False  # merge not yet started
            if self.hadoop_proc is not None:
                return not self.hadoop_proc.is_alive
            return True  # nothing ever needed merging
        return self.final_merge_submitted and self.merge.complete

    @property
    def complete(self) -> bool:
        """Processing finished and every merge obligation discharged."""
        return self.processing_complete and self.merge_done


class LobsterRun:
    """One invocation of the main Lobster process."""

    def __init__(
        self,
        env: Environment,
        config: LobsterConfig,
        services: Services,
        master: Optional[Master] = None,
        foremen: Optional[List[Foreman]] = None,
        db: Optional[LobsterDB] = None,
        recover: bool = False,
    ):
        self.env = env
        self.config = config
        self.services = services
        if master is None:
            # A warm restart shares the fabric with the crashed master,
            # whose node/link linger (dead processes don't detach);
            # the replacement head process needs a fresh address.
            name, n = "master", 0
            while services.fabric.has_node(name):
                n += 1
                name = f"master-r{n}"
            master = Master(
                env, name=name, fabric=services.fabric,
                recovery=config.recovery,
            )
        self.master = master
        self.foremen = list(foremen) if foremen else []
        self.db = db or LobsterDB(config.db_path)
        #: Resume from the Lobster DB after a scheduler crash (§3 footnote):
        #: tasklet states are restored instead of regenerated.
        self.recover = recover
        #: Monitoring is bus-driven: the collector subscribes to the
        #: environment's event bus and folds ``task.*`` events into
        #: metrics; this class only *publishes*.
        self.metrics = RunMetrics()
        self.collector = BusCollector(
            env.bus, self.metrics, workflows=[wf.label for wf in config.workflows]
        )
        # Merge output names must never collide with ones a previous
        # (crashed) scheduler already committed to this DB — and neither
        # may task ids, which analysis output names embed.
        MergeGroup.seed_ids(self.db.max_merge_group_id() + 1)
        Task.seed_ids(self.db.max_task_id() + 1)
        # Announce every durable DB transition on the bus; the crashtest
        # fuzzer snapshots at these checkpoints.
        self.db.bind_bus(env.bus)
        self.workflows: Dict[str, WorkflowState] = {
            wf.label: WorkflowState(
                config, wf, services, seed=config.seed, db=self.db
            )
            for wf in config.workflows
        }
        #: Duplicate deliveries caught by the output ledger (the master
        #: counts the ones it drops itself in ``tasks_duplicate``).
        self.duplicates_dropped = 0
        self._upstream_rr = count()
        self._workflow_rr = count()
        self._cache_by_machine: Dict[str, ParrotCache] = {}
        self.process = None  #: the control Process once started
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: True after a MasterCrash fault killed the control loop; the
        #: DB and storage element survive for a warm restart.
        self.crashed = False

    # -- worker provisioning -----------------------------------------------------
    def worker_payload(self, slot: WorkerSlot):
        """Payload factory for :meth:`repro.batch.CondorPool.submit`."""
        machine = slot.machine
        cache = self._cache_for(machine)
        upstream = self._next_upstream()
        worker = Worker(
            self.env,
            machine,
            upstream,
            cores=self.config.cores_per_worker,
            context={Wrapper.CACHE_KEY: cache},
        )
        return worker.run()

    def _cache_for(self, machine) -> ParrotCache:
        mode = self.config.cache_mode
        if mode is CacheMode.PRIVATE:
            # Per-instance caches: a fresh cache per worker placement.
            return ParrotCache(self.env, machine, self.services.proxies, mode=mode)
        cache = self._cache_by_machine.get(machine.name)
        if cache is None:
            cache = ParrotCache(self.env, machine, self.services.proxies, mode=mode)
            self._cache_by_machine[machine.name] = cache
        return cache

    def _next_upstream(self):
        if not self.foremen:
            return self.master
        return self.foremen[next(self._upstream_rr) % len(self.foremen)]

    # -- run control --------------------------------------------------------------
    def start(self):
        """Start the main control loop; returns its Process."""
        if self.process is not None:
            raise RuntimeError("run already started")
        if self.config.fast_abort_multiplier is not None:
            self.master.enable_fast_abort(self.config.fast_abort_multiplier)
        self.process = self.env.process(self._control(), name="lobster-main")
        return self.process

    def _control(self):
        self.started_at = self.env.now
        try:
            yield from self._build_tasklets()
            self._progress()
            self._fill_buffer()

            # ---- unified loop: every workflow progresses independently
            # through processing → final merges → (hadoop merge) → chained
            # children, so stage-2 workflows start the moment their parent
            # finishes.
            while not all(w.complete for w in self.workflows.values()):
                get = self.master.wait()
                hadoop_procs = [
                    w.hadoop_proc
                    for w in self.workflows.values()
                    if w.hadoop_proc is not None and w.hadoop_proc.is_alive
                ]
                outcome = yield self.env.any_of([get] + hadoop_procs)
                if get in outcome:
                    self._handle_result(outcome[get])
                else:
                    get.cancel()
                self._progress()
                self._fill_buffer()
        except Interrupt:
            # A MasterCrash fault: the scheduler process dies where it
            # stands.  Nothing is flushed or handed over — only the
            # Lobster DB and the storage element survive.  A later
            # LobsterRun(recover=True) on the same DB re-derives the rest.
            self.crashed = True
            self.master.crash()
            self.finished_at = self.env.now
            return self.summary()

        # ---- wind down -------------------------------------------------
        self.master.drain()
        self.finished_at = self.env.now
        return self.summary()

    def _progress(self) -> None:
        """Advance per-workflow state machines (merges, chaining)."""
        for w in self.workflows.values():
            wf = w.config
            # Corrupt outputs spotted by the merge layer since the last
            # pass are re-derived before any completeness check.
            self._drain_quarantine(w)
            # Chained workflows: build tasklets once the parent is done.
            if w.tasklets is None and wf.parent is not None:
                parent = self.workflows[wf.parent]
                if parent.complete:
                    w.tasklets = self._tasklets_from_parent(w, parent)
                    self.db.record_workflow(
                        wf.label, f"parent:{wf.parent}", w.tasklets.total
                    )
                    self.db.record_tasklets(w.tasklets)
            if w.tasklets is None or not w.tasklets.complete:
                continue
            # Processing done: discharge merge obligations.
            if (
                wf.merge_mode in (MergeMode.SEQUENTIAL, MergeMode.INTERLEAVED)
                and not w.final_merge_submitted
            ):
                w.final_merge_submitted = True
                for task in w.merge.make_tasks(1.0, final=True):
                    self.master.submit(self._trace_task(task))
                # Planning screens inputs; anything it rejected must be
                # re-derived, which re-opens the final merge round.
                self._drain_quarantine(w)
            elif (
                wf.merge_mode == MergeMode.HADOOP
                and w.hadoop_proc is None
                and w.merge.unmerged
            ):
                w.hadoop_proc = self.env.process(
                    w.merge.run_hadoop_merge(),
                    name=f"hadoop-merge-{wf.label}",
                )

    def _tasklets_from_parent(
        self, child: WorkflowState, parent: WorkflowState
    ) -> TaskletStore:
        """Decompose the parent's outputs into the child's tasklets."""
        sources = list(parent.merge.merged_files)
        if not sources:
            sources = list(parent.output_files)
        store = TaskletStore(child.label)
        per_event = parent.config.code.output_bytes_per_event
        for f in sources:
            n_events = max(1, int(round(f.size_bytes / per_event))) if per_event > 0 else 1
            chunk = child.config.events_per_tasklet
            remaining = n_events
            while remaining > 0:
                n = min(chunk, remaining)
                store.add(
                    n_events=n,
                    input_bytes=f.size_bytes * n / n_events,
                    lfn=f.name,
                )
                remaining -= n
        return store

    # -- internals ------------------------------------------------------------------
    def _build_tasklets(self):
        for w in self.workflows.values():
            wf = w.config
            if self.recover and self.db.has_tasklets(wf.label):
                # Scheduler crash recovery: reload persisted state.  Any
                # tasklet that was assigned to an in-flight task returns
                # to pending; done/failed tasklets are not re-run.  The
                # ledger reconciliation in _recover_outputs runs before
                # the restored states are persisted so a crash *during*
                # recovery replays the same reconciliation.
                w.tasklets = TaskletStore.restore(
                    wf.label, self.db.load_tasklets(wf.label)
                )
                stats = self._recover_outputs(w)
                self.db.update_tasklets(w.tasklets)
                self.env.bus.port(Topics.RECOVERY_RESUME).emit(
                    workflow=wf.label,
                    tasklets=w.tasklets.total,
                    done=w.tasklets.done_count,
                    pending=w.tasklets.pending_count,
                    **stats,
                )
                continue
            if wf.parent is not None:
                continue  # built later, from the parent's outputs
            if wf.dataset is not None:
                if self.services.dbs is None:
                    raise RuntimeError(
                        f"workflow {wf.label!r} needs a DBS client in Services"
                    )
                files = yield from self.services.dbs.files_async(wf.dataset)
                from ..dbs import Dataset

                ds = Dataset(wf.dataset, files)
                w.tasklets = TaskletStore.from_dataset(
                    wf.label, ds, lumis_per_tasklet=wf.lumis_per_tasklet
                )
            else:
                w.tasklets = TaskletStore.from_event_count(
                    wf.label, wf.n_events, wf.events_per_tasklet
                )
            self.db.record_workflow(wf.label, wf.dataset, w.tasklets.total)
            self.db.record_tasklets(w.tasklets)

    def _fill_buffer(self) -> None:
        """Top the master's ready queue up to the configured buffer."""
        while self.master.ready_count < self.config.task_buffer:
            task = self._next_task()
            if task is None:
                break
            self.master.submit(self._trace_task(task))

    def _trace_task(self, task: Task) -> Task:
        """Attach the work-unit trace to a task (no-op when untraced).

        The trace id derives from the *work*, not the Task object —
        first tasklet for analysis tasks, the merge output name for
        merge tasks — so a re-packaged retry or a quarantine-reopen
        re-enters the same trace and shows up as a sibling attempt."""
        tr = self.env.spans
        payload = task.payload
        if tr is None or payload is None:
            return task
        if getattr(payload, "tasklets", None):
            first = min(t.tasklet_id for t in payload.tasklets)
            trace_id = f"{payload.workflow}:u{first:06d}"
        elif getattr(payload, "merge_output_name", None):
            trace_id = f"{payload.workflow}:m:{payload.merge_output_name}"
        else:
            trace_id = f"{payload.workflow}:t{task.task_id}"
        root = tr.unit_root(
            trace_id, workflow=payload.workflow, category=task.category
        )
        task.trace = root.ctx
        return task

    def _next_task(self) -> Optional[Task]:
        """Create one analysis task from the best workflow with work.

        Higher-priority workflows go first; within a priority level the
        buffer is shared round-robin so siblings progress together.
        """
        candidates = [
            w
            for w in self.workflows.values()
            if w.tasklets is not None and w.tasklets.pending_count > 0
        ]
        if not candidates:
            return None
        top = max(w.config.priority for w in candidates)
        tier = [w for w in candidates if w.config.priority == top]
        start = next(self._workflow_rr)
        for i in range(len(tier)):
            w = tier[(start + i) % len(tier)]
            wf = w.config
            claimed = w.tasklets.claim(w.tasklets_per_task)
            payload = TaskPayload(workflow=wf.label, tasklets=claimed)
            task = Task(
                executor=w.wrapper,
                payload=payload,
                sandbox_bytes=self.config.sandbox_bytes,
                wq_input_bytes=(
                    payload.input_bytes if wf.data_access == DataAccess.WQ else 0.0
                ),
                category="analysis",
            )
            w.tasks_created += 1
            self.db.record_task_mapping(
                task.task_id, wf.label, [t.tasklet_id for t in claimed]
            )
            return task
        return None  # pragma: no cover - tier is never empty here

    def _output_name(self, result: TaskResult) -> str:
        return (
            f"/store/user/{result.task.payload.workflow}/out/"
            f"task_{result.task.task_id:06d}.root"
        )

    def _handle_result(self, result: TaskResult) -> None:
        payload: TaskPayload = result.task.payload
        w = self.workflows[payload.workflow]
        # Exactly-once gate: an analysis output whose name is already in
        # the ledger was delivered before — this is a late duplicate
        # (e.g. an evicted task's output landing after its retry).  Drop
        # it before it touches any accounting.
        if (
            result.task.category == "analysis"
            and result.succeeded
            and result.report is not None
            and result.report.output_bytes > 0
            and self.db.ledger_state(self._output_name(result)) is not None
        ):
            self.duplicates_dropped += 1
            self.env.bus.port(Topics.TASK_DUPLICATE).emit(
                task_id=result.task.task_id,
                category=result.task.category,
                source="ledger",
                name=self._output_name(result),
                workflow=payload.workflow,
            )
            return
        self.env.bus.port(Topics.TASK_RESULT).emit(
            workflow=payload.workflow,
            task_id=result.task.task_id,
            category=result.task.category,
            exit_code=int(result.exit_code),
            submitted=result.submitted,
            started=result.started,
            finished=result.finished,
            segments=dict(result.segments),
            wq_stage_in=result.wq_stage_in,
            wq_stage_out=result.wq_stage_out,
            lost_time=result.task.lost_time,
            output_bytes=(result.report.output_bytes if result.report else 0.0),
        )
        self.db.record_result(payload.workflow, result, len(payload.tasklets))

        if result.task.category == "merge":
            retry = w.merge.on_result(result)
            if retry is not None:
                self.master.submit(self._trace_task(retry))
            return

        # ---- analysis result -------------------------------------------
        # The commit/quarantine paths persist the tasklet states inside
        # the same ledger transaction (crash between them is otherwise
        # unrecoverable — see LobsterDB.ledger_commit_with_tasklets).
        persisted = False
        if result.succeeded:
            report = result.report
            out = StoredFile(
                name=self._output_name(result),
                size_bytes=report.output_bytes if report else 0.0,
                created=result.finished,
                source=payload.workflow,
                checksum=report.output_checksum if report else "",
            )
            if out.size_bytes > 0:
                # Two-phase commit: pending in the ledger, store, verify
                # the staged bytes, then commit.  A corrupted stage-out
                # (truncated transfer) is rejected here and the tasklets
                # retry like any failed attempt.
                se = self.services.se
                self.db.ledger_begin(
                    out.name,
                    payload.workflow,
                    "analysis",
                    checksum=out.checksum,
                    size_bytes=out.size_bytes,
                    task_id=result.task.task_id,
                    created=result.finished,
                )
                se.store(out)
                try:
                    se.verify(out.name)
                except IntegrityError:
                    se.delete(out.name)
                    self.env.bus.port(Topics.INTEGRITY_QUARANTINE).emit(
                        name=out.name,
                        workflow=payload.workflow,
                        kind="analysis",
                        stage="stage-out",
                        task_id=result.task.task_id,
                    )
                    w.quarantined_outputs += 1
                    w.tasklets.mark_failed_attempt(
                        payload.tasklets, w.config.max_retries
                    )
                    self.db.ledger_quarantine_with_tasklets(
                        out.name, payload.tasklets
                    )
                    persisted = True
                else:
                    w.tasklets.mark_done(payload.tasklets)
                    self.db.ledger_commit_with_tasklets(
                        out.name, self.env.now, payload.tasklets
                    )
                    persisted = True
                    self.env.bus.port(Topics.INTEGRITY_COMMIT).emit(
                        name=out.name,
                        workflow=payload.workflow,
                        kind="analysis",
                        checksum=out.checksum,
                        nbytes=out.size_bytes,
                        task_id=result.task.task_id,
                    )
                    w.merge.add_output(out)
                    w.output_files.append(out)
                    w.outputs_created += 1
            else:
                w.tasklets.mark_done(payload.tasklets)
        else:
            w.tasklets.mark_failed_attempt(
                payload.tasklets, w.config.max_retries
            )
        if not persisted:
            self.db.update_tasklets(payload.tasklets)

        if w.sizer is not None:
            w.sizer.observe(result)

        # ---- interleaved merging -------------------------------------
        if w.config.merge_mode == MergeMode.INTERLEAVED and w.tasklets is not None:
            for task in w.merge.make_tasks(
                w.tasklets.processed_fraction, final=False
            ):
                self.master.submit(self._trace_task(task))

    def _drain_quarantine(self, w: WorkflowState) -> None:
        """Re-derive outputs the merge layer found corrupt.

        The corrupt file is removed from the storage element and ledger,
        and the tasklets of the task that produced it return to PENDING —
        the same path task.exhausted re-packaging uses — so the work runs
        again and a clean output eventually re-enters the merge pool.
        """
        files = w.merge.take_quarantined()
        if not files:
            return
        bus = self.env.bus
        se = self.services.se
        for f in files:
            task_id = self.db.ledger_task_id(f.name)
            bus.port(Topics.INTEGRITY_QUARANTINE).emit(
                name=f.name,
                workflow=w.label,
                kind="analysis",
                stage="merge",
                task_id=task_id,
            )
            if se.exists(f.name):
                se.delete(f.name)
            w.output_files = [o for o in w.output_files if o.name != f.name]
            w.quarantined_outputs += 1
            reopened = []
            if task_id is not None and w.tasklets is not None:
                reopened = w.tasklets.reopen(self.db.tasklets_for_task(task_id))
            # One transaction: the output leaves the committed set and its
            # tasklets reopen together, or neither happens.
            self.db.ledger_quarantine_with_tasklets(f.name, reopened)
        # The final merge round must re-fire once re-derived outputs land.
        w.final_merge_submitted = False

    def _recover_outputs(self, w: WorkflowState) -> Dict[str, int]:
        """Rebuild output state from the ledger after a scheduler crash.

        Pending rows are half-written orphans of the dead scheduler and
        are swept (their work is simply re-planned); committed analysis
        outputs re-enter the merge pool; committed merged outputs are
        final.  On top of that, three reconciliation passes make recovery
        idempotent from *any* checkpoint — including a crash during a
        previous recovery:

        * tasklets whose output is already committed/merged are settled
          DONE even if the crash beat the tasklet update to disk;
        * DONE tasklets whose only output was quarantined are reopened so
          their events are re-derived rather than silently lost;
        * storage-element files a committed merge already consumed are
          garbage-collected (the child delete raced the crash).

        Returns the audit counters published on ``recovery.resume``.
        """
        bus = self.env.bus
        se = self.services.se
        wf = w.config
        stats = {
            "orphans_swept": 0,
            "outputs_recovered": 0,
            "merged_recovered": 0,
            "settled": 0,
            "reopened": 0,
            "children_gcd": 0,
        }
        for name in self.db.ledger_sweep_orphans(wf.label):
            if se.exists(name):
                se.delete(name)
            bus.port(Topics.INTEGRITY_ORPHAN).emit(name=name, workflow=wf.label)
            stats["orphans_swept"] += 1
        # ---- ledger ↔ tasklet reconciliation ---------------------------
        satisfied: set = set()
        for state in ("committed", "merged"):
            for _n, _c, _s, _cr, tid in self.db.ledger_outputs(
                wf.label, "analysis", state
            ):
                if tid is not None:
                    satisfied.update(self.db.tasklets_for_task(tid))
        stats["settled"] = len(w.tasklets.settle_done(satisfied))
        quarantined_ids: set = set()
        for _n, _c, _s, _cr, tid in self.db.ledger_outputs(
            wf.label, "analysis", "quarantined"
        ):
            if tid is not None:
                quarantined_ids.update(self.db.tasklets_for_task(tid))
        stats["reopened"] = len(w.tasklets.reopen(quarantined_ids - satisfied))
        # ---- re-pool committed outputs ---------------------------------
        for name, checksum, size, created, _tid in self.db.ledger_outputs(
            wf.label, "analysis", "committed"
        ):
            if se.exists(name):
                f = se.stat(name)
            else:
                f = StoredFile(name, size, created, wf.label, checksum)
                se.store(f)
            w.merge.add_output(f)
            w.output_files.append(f)
            w.outputs_created += 1
            stats["outputs_recovered"] += 1
        for name, checksum, size, created, _tid in self.db.ledger_outputs(
            wf.label, "merge", "committed"
        ):
            if se.exists(name):
                merged = se.stat(name)
            else:
                merged = StoredFile(name, size, created, wf.label, checksum)
                se.store(merged)
            w.merge.merged_files.append(merged)
            stats["merged_recovered"] += 1
            for child in self.db.merge_children_of(name):
                if se.exists(child):
                    se.delete(child)
                    stats["children_gcd"] += 1
        return stats

    # -- publication ---------------------------------------------------------------
    def publish_workflow(self, label: str, publisher, events_per_byte=None):
        """Verify and publish a workflow's final outputs exactly once.

        Merged files (or raw outputs when merging is off) are checked
        against the commit ledger and checksum-verified against the
        storage element immediately before registration — a corrupt
        file raises rather than being silently published.
        """
        w = self.workflows[label]
        files = list(w.merge.merged_files) or list(w.output_files)
        if events_per_byte is None:
            per_event = w.config.code.output_bytes_per_event
            events_per_byte = (1.0 / per_event) if per_event > 0 else 0.0
        return publisher.publish(
            label,
            files,
            events_per_byte,
            parent=w.config.dataset,
            verify_with=self.services.se,
            ledger=self.db,
            bus=self.env.bus,
        )

    # -- crash consistency -----------------------------------------------------------
    def check_invariants(self) -> List[str]:
        """Structural crash-consistency checks over the DB + SE.

        Empty list means clean; see :meth:`LobsterDB.check_invariants`.
        Tests call this at shutdown, the crashtest fuzzer at every
        snapshot.
        """
        return self.db.check_invariants(se=self.services.se)

    # -- reporting -----------------------------------------------------------------
    def report(self, bin_width: float = 1800.0) -> str:
        """The full §5-style text report for this run."""
        from ..monitor import render_report

        return render_report(self, bin_width=bin_width)

    def export(self, directory: str, bin_width: float = 1800.0) -> dict:
        """Dump the run's task records and timelines as CSVs."""
        from ..monitor import export_run

        return export_run(self.metrics, directory, bin_width=bin_width)

    def summary(self) -> dict:
        """Headline numbers for the finished (or current) run."""
        out = {
            "started": self.started_at,
            "finished": self.finished_at,
            "workflows": {},
            "tasks_recorded": self.metrics.n_tasks,
            "tasks_succeeded": self.metrics.n_succeeded(),
            "tasks_failed": self.metrics.n_failed(),
            "tasks_requeued": self.master.tasks_requeued,
            "overall_efficiency": self.metrics.overall_efficiency(),
            "duplicates_dropped": (
                self.duplicates_dropped + self.master.tasks_duplicate
            ),
            "crashed": self.crashed,
        }
        for label, w in self.workflows.items():
            out["workflows"][label] = {
                "tasklets": w.tasklets.total if w.tasklets else 0,
                "tasklets_done": w.tasklets.done_count if w.tasklets else 0,
                "tasklets_failed": w.tasklets.failed_count if w.tasklets else 0,
                "outputs": w.outputs_created,
                "merged_files": len(w.merge.merged_files),
                "merge_tasks": w.merge.merge_tasks_created,
                "outputs_quarantined": w.quarantined_outputs,
            }
        return out
