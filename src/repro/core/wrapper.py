"""The instrumented task wrapper (paper §3, §5).

Every Lobster task is a wrapper around the real application.  The
wrapper is broken into logical segments — machine validation, software
environment setup, input acquisition, execution, output stage-out — and
each segment records its duration and a distinct failure code.  The
record travels back to the master and into the Lobster DB, enabling the
drill-down troubleshooting of §5.

The wrapper is *defensive*: every infrastructure failure (squid timeout,
federation outage, Chirp overload, bad machine) is caught and converted
into an exit code so the scheduler can retry the tasklets; only eviction
interrupts propagate (Work Queue handles those by re-queuing).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..analysis import AnalysisCode, ExitCode, FrameworkReport
from ..cvmfs import ParrotCache, SquidTimeout
from ..desim import Topics
from ..storage import ChirpError, XrootdError, compute_checksum
from .config import DataAccess, LobsterConfig, WorkflowConfig
from .services import Services
from .unit import TaskPayload

__all__ = ["Wrapper", "Segment"]


class Segment:
    """Canonical wrapper segment names."""

    VALIDATE = "validate"
    SETUP = "setup"
    STAGE_IN = "stage_in"
    CPU = "cpu"
    IO = "io"
    STAGE_OUT = "stage_out"

    ORDER = (VALIDATE, SETUP, STAGE_IN, CPU, IO, STAGE_OUT)


#: Chunks used to interleave streaming reads with computation.
_STREAM_CHUNKS = 8


class _SegmentSpans:
    """Tracks the wrapper's open segment span for causal tracing.

    The wrapper runs inside a process whose ambient trace context is the
    task's attempt span, so each segment span lands under the attempt
    and (via ``activate``) becomes the ambient parent of any fabric
    flows, squid fetches, or Chirp requests the segment performs.  A
    no-op when tracing is off or the task is untraced.
    """

    __slots__ = ("tr", "span")

    def __init__(self, tr):
        self.tr = tr
        self.span = None

    def enter(self, name: str) -> None:
        tr = self.tr
        if tr is None:
            return
        if self.span is not None:
            tr.end(self.span)
        elif tr.current() is None:
            # Untraced task (no attempt span): don't fabricate orphans.
            self.tr = None
            return
        self.span = tr.start(f"wrapper.{name}", activate=True)

    def close(self, status: str) -> None:
        if self.tr is not None and self.span is not None:
            self.tr.end(self.span, status=status)
            self.span = None


class Wrapper:
    """Executor factory: one instance per workflow, called per task."""

    def __init__(
        self,
        cfg: LobsterConfig,
        workflow: WorkflowConfig,
        services: Services,
        seed: int = 0,
    ):
        self.cfg = cfg
        self.workflow = workflow
        self.services = services
        self.seed = seed
        # One Wrapper instance serves every task of the workflow, so it
        # is where cross-task degradation state lives: consecutive
        # stream failures, and whether the workflow has fallen back from
        # XrootD streaming to Chirp staging (graceful degradation under
        # a broken WAN, cf. the Fig 10 failure burst).
        self.stream_failures = 0
        self.fallback_active = False
        self.fallback_at: Optional[float] = None
        # Per-topic fast path: wrapper.segment fires several times per
        # task, so the whole narration loop is skipped when unwanted.
        self._p_segment = services.env.bus.port(Topics.WRAPPER_SEGMENT)

    # Worker context keys the wrapper expects.
    CACHE_KEY = "parrot_cache"

    @staticmethod
    def _work_identity(task) -> tuple:
        """(key, retry) identifying the unit of work, not the Task object."""
        payload = task.payload
        if payload is not None and getattr(payload, "tasklets", None):
            key = min(t.tasklet_id for t in payload.tasklets)
            # Tasklet attempts advance when a task fails and its work is
            # re-packaged, so the retry must re-draw its fortunes.
            retry = max(t.attempts for t in payload.tasklets)
        else:
            key = task.task_id
            retry = 0
        return key, retry

    def _rng(self, task) -> np.random.Generator:
        # Key the stream on the *work*, not the Task object: the task id
        # counter is process-global, so two otherwise identical runs in
        # one process would draw different numbers.  Retries (attempts)
        # intentionally re-draw.
        key, retry = self._work_identity(task)
        import zlib

        wf_hash = zlib.crc32(self.workflow.label.encode())
        return np.random.default_rng(
            (self.seed, wf_hash, key, retry, task.attempts)
        )

    def __call__(self, worker, task):
        """DES process run on the worker for one task.

        Returns ``(exit_code, segments, report)``.  Raises only on
        eviction interrupts.
        """
        segs = _SegmentSpans(worker.env.spans)
        try:
            exit_code, segments, report = yield from self._run(worker, task, segs)
        except BaseException:
            # Eviction (or a crash) mid-segment: the open span records
            # where the attempt died.
            segs.close("aborted")
            raise
        segs.close("ok" if exit_code == ExitCode.SUCCESS else "failed")
        port = self._p_segment
        if port.on:
            for seg in Segment.ORDER:
                if seg in segments:
                    port.emit(
                        task_id=task.task_id,
                        workflow=self.workflow.label,
                        segment=seg,
                        seconds=segments[seg],
                        exit_code=int(exit_code),
                    )
        return exit_code, segments, report

    def _run(self, worker, task, segs: Optional[_SegmentSpans] = None):
        env = worker.env
        services = self.services
        wf = self.workflow
        code: AnalysisCode = wf.code
        payload: TaskPayload = task.payload
        rng = self._rng(task)
        segments: Dict[str, float] = {}
        report = FrameworkReport()
        if segs is None:
            segs = _SegmentSpans(None)

        # ---- 1. machine validation ------------------------------------
        segs.enter(Segment.VALIDATE)
        t0 = env.now
        yield env.timeout(self.cfg.validate_seconds)
        segments[Segment.VALIDATE] = env.now - t0
        if getattr(worker.machine, "black_hole", False):
            # A misconfigured node fails everything it touches, fast —
            # the signature the master's blacklisting keys on.
            report.exit_code = ExitCode.BAD_MACHINE
            report.annotations["failed_segment"] = Segment.VALIDATE
            return report.exit_code, segments, report
        if rng.random() < self.cfg.bad_machine_rate:
            report.exit_code = ExitCode.BAD_MACHINE
            report.annotations["failed_segment"] = Segment.VALIDATE
            return report.exit_code, segments, report

        # ---- 2. software environment (CVMFS via Parrot + conditions) ---
        segs.enter(Segment.SETUP)
        t0 = env.now
        cache: Optional[ParrotCache] = worker.context.get(self.CACHE_KEY)
        try:
            if cache is not None:
                yield from cache.setup(services.repository)
            # Conditions/calibration data: through Frontier when wired
            # (IOV-cached at the squids), else a plain proxy fetch.
            if services.frontier is not None and code.conditions_volume > 0:
                run = 1
                for t in payload.tasklets:
                    lumis = getattr(t, "lumis", ())
                    if lumis:
                        run = lumis[0].run
                        break
                yield from services.frontier.fetch(
                    run, client_link=worker.machine.nic
                )
            elif code.conditions_volume > 0:
                yield from services.proxies.fetch(
                    10, code.conditions_volume, client_link=worker.machine.nic
                )
        except SquidTimeout:
            segments[Segment.SETUP] = env.now - t0
            report.exit_code = ExitCode.SETUP_FAILED
            report.annotations["failed_segment"] = Segment.SETUP
            return report.exit_code, segments, report
        segments[Segment.SETUP] = env.now - t0

        # ---- 3. input acquisition --------------------------------------
        input_bytes = payload.input_bytes + code.pileup_bytes_per_event * payload.n_events
        # Graceful degradation: once the workflow has fallen back,
        # streaming tasks stage their input via Chirp instead.
        access = wf.data_access
        if access == DataAccess.XROOTD and self.fallback_active:
            access = DataAccess.CHIRP
        stream = None
        segs.enter(Segment.STAGE_IN)
        t0 = env.now
        try:
            if access == DataAccess.XROOTD and payload.input_bytes > 0:
                # Streaming: open now, read during execution.
                stream = yield from services.xrootd.open(
                    payload.lfns[0] if payload.lfns else "/store/unknown"
                )
            elif access == DataAccess.CHIRP and input_bytes > 0:
                yield from services.chirp.get(
                    input_bytes, client_link=worker.machine.nic
                )
            # DataAccess.WQ: input was moved by Work Queue before the
            # wrapper started (task.wq_input_bytes); nothing to do here.
            if (
                wf.is_simulation
                and code.pileup_bytes_per_event > 0
                and access != DataAccess.CHIRP
            ):
                # Pile-up overlay comes from the local SE via Chirp.
                yield from services.chirp.get(
                    code.pileup_bytes_per_event * payload.n_events,
                    client_link=worker.machine.nic,
                )
        except XrootdError:
            self._note_stream_failure(env)
            segments[Segment.STAGE_IN] = env.now - t0
            report.exit_code = ExitCode.FILE_OPEN_FAILED
            report.annotations["failed_segment"] = Segment.STAGE_IN
            return report.exit_code, segments, report
        except ChirpError:
            segments[Segment.STAGE_IN] = env.now - t0
            report.exit_code = ExitCode.STAGE_IN_FAILED
            report.annotations["failed_segment"] = Segment.STAGE_IN
            return report.exit_code, segments, report
        segments[Segment.STAGE_IN] = env.now - t0

        # ---- 4. execution ------------------------------------------------
        segs.enter("exec")
        cpu_total = code.cpu_time(rng, payload.n_events)
        fails = code.draw_failure(rng)
        fail_at = rng.uniform(0.05, 0.95) if fails else 1.1
        cpu_done = 0.0
        io_time = 0.0
        try:
            if stream is not None:
                # Interleave: read a chunk (I/O), process it (CPU).  Only
                # read_fraction of the input is actually pulled — HEP
                # analyses read a subset of branches, which is why
                # streaming beats staging in Fig 4.
                stream_bytes = payload.input_bytes * wf.read_fraction
                for i in range(_STREAM_CHUNKS):
                    frac_done = i / _STREAM_CHUNKS
                    if fails and frac_done >= fail_at:
                        raise _IntrinsicFailure()
                    t_io = env.now
                    yield from stream.read(
                        stream_bytes / _STREAM_CHUNKS,
                        client_link=worker.machine.nic,
                    )
                    io_time += env.now - t_io
                    t_cpu = env.now
                    yield env.timeout(cpu_total / _STREAM_CHUNKS)
                    cpu_done += env.now - t_cpu
                stream.close()
                self.stream_failures = 0  # a full read: the WAN is fine
            else:
                # Staged input: local read from node disk, then compute.
                if input_bytes > 0:
                    t_io = env.now
                    flow = worker.machine.disk.transfer(input_bytes)
                    try:
                        yield flow
                    except BaseException:
                        flow.cancel()
                        raise
                    io_time += env.now - t_io
                run_for = cpu_total * min(fail_at, 1.0)
                t_cpu = env.now
                yield env.timeout(run_for)
                cpu_done += env.now - t_cpu
                if fails:
                    raise _IntrinsicFailure()
        except XrootdError:
            self._note_stream_failure(env)
            segments[Segment.CPU] = cpu_done
            segments[Segment.IO] = io_time
            report.exit_code = ExitCode.FILE_READ_FAILED
            report.annotations["failed_segment"] = Segment.IO
            return report.exit_code, segments, report
        except _IntrinsicFailure:
            segments[Segment.CPU] = cpu_done
            segments[Segment.IO] = io_time
            report.exit_code = ExitCode.APPLICATION_FAILED
            report.annotations["failed_segment"] = Segment.CPU
            return report.exit_code, segments, report
        segments[Segment.CPU] = cpu_done
        segments[Segment.IO] = io_time
        report.cpu_seconds = cpu_done
        report.io_seconds = io_time
        report.events_read = payload.n_events if not wf.is_simulation else 0
        report.events_written = payload.n_events
        report.input_bytes = payload.input_bytes

        # ---- 5. stage-out -------------------------------------------------
        output_bytes = code.output_bytes(payload.n_events)
        report.output_bytes = output_bytes
        if output_bytes > 0 and self.cfg.verify_outputs:
            # Content digest keyed on the work itself: the same tasklets
            # at the same retry always produce the same bytes, and a
            # re-derived attempt gets a fresh digest.
            key, retry = self._work_identity(task)
            report.output_checksum = compute_checksum(
                wf.label, key, retry, round(output_bytes)
            )
        segs.enter(Segment.STAGE_OUT)
        t0 = env.now
        if wf.output_mode == DataAccess.CHIRP and output_bytes > 0:
            try:
                yield from services.chirp.put(
                    output_bytes, client_link=worker.machine.nic
                )
            except ChirpError:
                segments[Segment.STAGE_OUT] = env.now - t0
                report.exit_code = ExitCode.STAGE_OUT_FAILED
                report.annotations["failed_segment"] = Segment.STAGE_OUT
                return report.exit_code, segments, report
        elif wf.output_mode == DataAccess.WQ:
            # Leave the bytes for Work Queue to move after the wrapper;
            # the digest travels with them so ship() can verify delivery.
            task.wq_output_bytes = output_bytes
            task.wq_output_checksum = report.output_checksum
        segments[Segment.STAGE_OUT] = env.now - t0

        report.exit_code = ExitCode.SUCCESS
        return ExitCode.SUCCESS, segments, report

    def _note_stream_failure(self, env) -> None:
        """Count a consecutive XrootD failure; degrade past threshold."""
        self.stream_failures += 1
        threshold = self.workflow.stream_fallback_threshold
        if (
            threshold is None
            or self.fallback_active
            or self.stream_failures < threshold
        ):
            return
        self.fallback_active = True
        self.fallback_at = env.now
        port = env.bus.port(Topics.RECOVERY_FALLBACK)
        if port:
            port.emit(
                workflow=self.workflow.label,
                failures=self.stream_failures,
                frm=DataAccess.XROOTD,
                to=DataAccess.CHIRP,
            )


class _IntrinsicFailure(Exception):
    """Internal: the application failed for its own reasons."""
