"""Tests for monitoring: time series, records, breakdown, troubleshooting."""

from itertools import count

import numpy as np
import pytest

from repro.analysis.report import ExitCode
from repro.desim import Topics
from repro.monitor import (
    EventLog,
    RunMetrics,
    TimeSeries,
    diagnose,
)


# ---------------------------------------------------------------- TimeSeries
def test_timeseries_append_order_enforced():
    ts = TimeSeries()
    ts.append(1.0, 5)
    with pytest.raises(ValueError):
        ts.append(0.5, 3)


def test_timeseries_at_step_interpolation():
    ts = TimeSeries(samples=[(0.0, 1.0), (10.0, 3.0)])
    assert ts.at(-1) == 0.0
    assert ts.at(0.0) == 1.0
    assert ts.at(5.0) == 1.0
    assert ts.at(10.0) == 3.0
    assert ts.at(100.0) == 3.0


def test_timeseries_binned_mean_time_weighted():
    ts = TimeSeries(samples=[(0.0, 0.0), (5.0, 10.0), (10.0, 10.0)])
    starts, vals = ts.binned(10.0, agg="mean")
    # First bin: 0 for 5 s, 10 for 5 s → mean 5.
    assert vals[0] == pytest.approx(5.0)


def test_timeseries_binned_max_and_last():
    ts = TimeSeries(samples=[(1.0, 2.0), (2.0, 9.0), (3.0, 4.0), (15.0, 1.0)])
    starts, vals = ts.binned(10.0, agg="max")
    assert vals[0] == 9.0
    starts, vals = ts.binned(10.0, agg="last")
    assert vals[0] == 4.0
    assert vals[1] == 1.0


def test_timeseries_binned_validation():
    ts = TimeSeries(samples=[(0.0, 1.0)])
    with pytest.raises(ValueError):
        ts.binned(0)
    with pytest.raises(ValueError):
        ts.binned(10.0, agg="median")


def test_empty_timeseries_binned():
    starts, vals = TimeSeries().binned(10.0)
    assert len(starts) == 0 and len(vals) == 0


# ---------------------------------------------------------------- EventLog
def test_eventlog_counts_per_bin():
    log = EventLog()
    for t in (1.0, 2.0, 11.0):
        log.record(t, "ok")
    log.record(12.0, "failed")
    starts, counts = log.counts(10.0)
    assert list(counts) == [2, 2]
    starts, counts = log.counts(10.0, category="ok")
    assert list(counts) == [2, 1]


def test_eventlog_rate():
    log = EventLog()
    for t in range(10):
        log.record(float(t))
    starts, rate = log.rate(10.0)
    assert rate[0] == pytest.approx(1.0)


# ---------------------------------------------------------------- RunMetrics
_task_ids = count(1)


def fake_result(
    exit_code=ExitCode.SUCCESS,
    started=0.0,
    finished=100.0,
    segments=None,
    lost_time=0.0,
    category="analysis",
    output_bytes=0.0,
):
    """The fields of one ``task.result`` bus event."""
    return dict(
        workflow="wf",
        task_id=next(_task_ids),
        category=category,
        exit_code=int(exit_code),
        submitted=0.0,
        started=started,
        finished=finished,
        segments=segments or {"cpu": 70.0, "io": 20.0, "setup": 5.0},
        wq_stage_in=3.0,
        wq_stage_out=2.0,
        lost_time=lost_time,
        output_bytes=output_bytes,
    )


def feed(metrics, fields):
    metrics.ingest(Topics.TASK_RESULT, fields["finished"], fields)


def feed_running(metrics, samples):
    for t, running in samples:
        metrics.ingest(Topics.TASK_START, t, {"running": running})


def test_runtime_breakdown_buckets():
    m = RunMetrics()
    feed(m, fake_result())
    feed(
        m,
        fake_result(exit_code=ExitCode.FILE_READ_FAILED, started=0.0, finished=50.0),
    )
    b = m.runtime_breakdown()
    assert b.task_cpu == pytest.approx(70.0)
    assert b.task_io == pytest.approx(20.0)
    assert b.task_failed == pytest.approx(50.0)
    assert b.wq_stage_in == pytest.approx(3.0)
    assert b.wq_stage_out == pytest.approx(2.0)
    fr = b.fractions()
    assert sum(fr.values()) == pytest.approx(1.0)
    rows = b.rows()
    assert rows[0][0] == "Task CPU Time"


def test_breakdown_counts_lost_time_as_failed():
    m = RunMetrics()
    feed(m, fake_result(lost_time=30.0))
    b = m.runtime_breakdown()
    assert b.task_failed == pytest.approx(30.0)


def test_breakdown_excludes_merge_tasks_by_default():
    m = RunMetrics()
    feed(m, fake_result(category="merge"))
    b = m.runtime_breakdown()
    assert b.total == 0.0


def test_efficiency_timeline_shape():
    m = RunMetrics()
    feed(m, fake_result(started=0.0, finished=95.0))
    feed(m, fake_result(started=100.0, finished=250.0))
    starts, eff = m.efficiency_timeline(100.0)
    assert len(starts) == len(eff)
    # Bin 0 holds the first task: cpu 70 / wall 95.
    assert eff[0] == pytest.approx(70.0 / 95.0)
    assert np.all(eff <= 1.0)


def test_counts_and_overall_efficiency():
    m = RunMetrics()
    feed(m, fake_result())
    feed(m, fake_result(exit_code=ExitCode.SETUP_FAILED))
    assert m.n_tasks == 2
    assert m.n_succeeded() == 1
    assert m.n_failed() == 1
    assert 0 < m.overall_efficiency() < 1


def test_segment_timeline():
    m = RunMetrics()
    feed(m, fake_result(finished=10.0, segments={"setup": 100.0}))
    feed(m, fake_result(finished=20.0, segments={"setup": 50.0}))
    t, v = m.segment_timeline("setup")
    assert list(t) == [10.0, 20.0]
    assert list(v) == [100.0, 50.0]


def test_failure_codes_timeline():
    m = RunMetrics()
    feed(m, fake_result(exit_code=ExitCode.SETUP_FAILED, finished=5.0))
    timeline = m.failure_codes_timeline()
    assert timeline == [(5.0, "SETUP_FAILED")]


def test_running_samples_ingested():
    m = RunMetrics()
    feed_running(m, [(0.0, 1), (5.0, 2), (10.0, 1)])
    assert m.running.at(6.0) == 2


def test_running_samples_drop_out_of_order_without_copying(monkeypatch):
    """Each sample checks order against the last list element, never by
    materialising ``TimeSeries.times`` (a full copy per sample)."""

    def no_copy(self):
        raise AssertionError("TimeSeries.times copied on ingest")

    monkeypatch.setattr(TimeSeries, "times", property(no_copy))
    m = RunMetrics()
    feed_running(m, [(0.0, 1), (5.0, 2), (3.0, 7), (10.0, 1)])
    assert len(m.running) == 3
    assert m.running.at(4.0) == 1
    assert m.running.at(6.0) == 2


# ---------------------------------------------------------------- diagnose
def test_diagnose_clean_run_is_quiet():
    m = RunMetrics()
    feed(m, fake_result())
    assert diagnose(m) == []


def test_diagnose_high_lost_runtime():
    m = RunMetrics()
    feed(m, fake_result(lost_time=1000.0))
    ds = diagnose(m)
    assert any(d.symptom == "high-lost-runtime" for d in ds)
    assert any("task size" in d.suggestion for d in ds)


def test_diagnose_slow_setup():
    m = RunMetrics()
    for _ in range(3):
        feed(
            m, fake_result(segments={"cpu": 100.0, "setup": 2000.0})
        )
    ds = diagnose(m)
    assert any(d.symptom == "slow-environment-setup" for d in ds)
    assert any("squid" in d.suggestion for d in ds)


def test_diagnose_slow_chirp():
    m = RunMetrics()
    feed(
        m,
        fake_result(segments={"cpu": 10.0, "stage_in": 200.0, "stage_out": 200.0}),
    )
    ds = diagnose(m)
    assert any(d.symptom == "slow-stage-in-out" for d in ds)
    assert any("Chirp" in d.suggestion for d in ds)


def test_diagnose_slow_sandbox_stage_in():
    m = RunMetrics()
    r = fake_result()
    r["wq_stage_in"] = 500.0
    feed(m, r)
    ds = diagnose(m)
    assert any(d.symptom == "slow-sandbox-stage-in" for d in ds)
    assert any("foremen" in d.suggestion for d in ds)


# ---------------------------------------------------------------- report
def test_ascii_bar_bounds():
    from repro.monitor import ascii_bar

    assert ascii_bar(0.0, 10) == "[" + " " * 10 + "]"
    assert ascii_bar(1.0, 10) == "[" + "#" * 10 + "]"
    assert ascii_bar(5.0, 10) == "[" + "#" * 10 + "]"  # clamped
    assert ascii_bar(-1.0, 10) == "[" + " " * 10 + "]"


def test_ascii_timeline_resamples():
    from repro.monitor import ascii_timeline

    strip = ascii_timeline(range(200), width=50)
    assert len(strip) == 50
    assert ascii_timeline([]) == ""
    assert set(ascii_timeline([0, 0, 0])) == {" "}


def test_render_report_end_to_end():
    from repro.analysis import simulation_code
    from repro.batch import CondorPool, GlideinRequest, MachinePool
    from repro.core import LobsterConfig, LobsterRun, Services, WorkflowConfig
    from repro.desim import Environment
    from repro.monitor import render_report

    env = Environment()
    services = Services.default(env)
    cfg = LobsterConfig(
        workflows=[
            WorkflowConfig(
                label="mc",
                code=simulation_code(intrinsic_failure_rate=0.0),
                n_events=8_000,
                events_per_tasklet=500,
                tasklets_per_task=4,
            )
        ],
        cores_per_worker=4,
        bad_machine_rate=0.0,
    )
    run = LobsterRun(env, cfg, services)
    run.start()
    machines = MachinePool.homogeneous(env, 4, cores=4)
    pool = CondorPool(env, machines, seed=1)
    pool.submit(GlideinRequest(n_workers=4, cores_per_worker=4), run.worker_payload)
    env.run(until=run.process)
    pool.drain()

    text = render_report(run)
    assert "LOBSTER RUN REPORT" in text
    assert "runtime breakdown" in text
    assert "mc:" in text
    assert "infrastructure:" in text
    assert "troubleshooting" in text
    assert "frontier hit rate" in text


# ---------------------------------------------------------------- §7 context
def test_contextualize_paper_scale():
    from repro.monitor import contextualize

    statements = contextualize(10_000)
    by_ref = {s.reference: s for s in statements}
    # The paper's claims: more than all US T3s, comparable to FNAL T1
    # and the largest T2, ~1/4 of all US T2s, ~10% of the Global Pool.
    assert by_ref["us_t3_total_cores"].ratio > 1.0
    assert 0.8 < by_ref["us_t1_fnal_cores"].ratio < 1.0
    assert 0.8 < by_ref["us_t2_largest_cores"].ratio < 1.0
    assert 0.2 < by_ref["us_t2_total_cores"].ratio < 0.3
    assert 0.08 < by_ref["global_pool_record_jobs"].ratio < 0.11
    assert all(s.text for s in statements)


def test_contextualize_validation():
    from repro.monitor import contextualize
    import pytest as _pytest

    with _pytest.raises(ValueError):
        contextualize(-1)


def test_output_written_cumulative():
    m = RunMetrics()
    feed(m, fake_result(finished=10.0))
    # fake_result writes no output by default; craft records with output.

    def with_output(finished, nbytes):
        return fake_result(
            finished=finished, segments={"cpu": 1.0}, output_bytes=nbytes
        )

    feed(m, with_output(20.0, 100.0))
    feed(m, with_output(40.0, 50.0))
    times, cum = m.output_written()
    assert list(times) == [20.0, 40.0]
    assert list(cum) == [100.0, 150.0]
    starts, vals = m.output_written(bin_width=25.0)
    assert vals[0] == 100.0  # by t=25
    assert vals[-1] == 150.0


def test_output_written_empty():
    m = RunMetrics()
    times, cum = m.output_written()
    assert len(times) == 0 and len(cum) == 0


# ---------------------------------------------------------------- export
def test_export_run_writes_csvs(tmp_path):
    from repro.monitor import export_run, load_task_records

    m = RunMetrics()
    feed(m, fake_result(started=0.0, finished=95.0))
    feed(m, fake_result(exit_code=ExitCode.SETUP_FAILED, finished=40.0))
    feed_running(m, [(0.0, 1), (50.0, 2)])
    paths = export_run(m, str(tmp_path), bin_width=50.0)
    assert set(paths) == {"tasks", "segments", "timeline", "breakdown"}
    for p in paths.values():
        assert tmp_path / p.split("/")[-1]

    records = load_task_records(paths["tasks"])
    assert len(records) == 2
    assert records[0].workflow == "wf"
    assert records[0].succeeded != records[1].succeeded

    import csv

    with open(paths["segments"]) as fh:
        seg_rows = list(csv.DictReader(fh))
    assert any(r["segment"] == "cpu" for r in seg_rows)
    with open(paths["breakdown"]) as fh:
        bd = list(csv.DictReader(fh))
    assert any(r["phase"] == "Task CPU Time" for r in bd)
    with open(paths["timeline"]) as fh:
        tl = list(csv.DictReader(fh))
    assert len(tl) >= 1


def test_export_empty_run(tmp_path):
    from repro.monitor import export_run

    paths = export_run(RunMetrics(), str(tmp_path))
    import csv

    with open(paths["timeline"]) as fh:
        assert list(csv.DictReader(fh)) == []
