"""Evidence-backed diagnosis: every §5 heuristic cites its worst spans.

One pair of tests per heuristic: it fires above its threshold with
evidence spans attached (when spans are supplied), and stays silent
below the threshold.
"""

from itertools import count

from repro.analysis.report import ExitCode
from repro.desim import Topics
from repro.monitor import EvidenceSpan, RunMetrics, diagnose
from repro.monitor.tracing import Span

_task_ids = count(1)


def fake_result(
    exit_code=ExitCode.SUCCESS,
    started=0.0,
    finished=100.0,
    segments=None,
    lost_time=0.0,
    wq_stage_in=3.0,
):
    """The fields of one ``task.result`` bus event."""
    return dict(
        workflow="wf",
        task_id=next(_task_ids),
        category="analysis",
        exit_code=int(exit_code),
        submitted=0.0,
        started=started,
        finished=finished,
        segments=segments or {"cpu": 70.0, "io": 20.0, "setup": 5.0},
        wq_stage_in=wq_stage_in,
        wq_stage_out=2.0,
        lost_time=lost_time,
        output_bytes=0.0,
    )


def feed(metrics, fields):
    metrics.ingest(Topics.TASK_RESULT, fields["finished"], fields)


def _span(span_id, name, start, end, status="ok", trace="wf:u000001"):
    return Span(span_id, trace, 1, name, start, end=end, status=status)


def _find(findings, symptom):
    matches = [d for d in findings if d.symptom == symptom]
    assert len(matches) == 1, f"{symptom}: {findings}"
    return matches[0]


# ---------------------------------------------------------------------------
# 1. high-lost-runtime → evidence: lost attempt spans
# ---------------------------------------------------------------------------
def test_high_lost_runtime_cites_lost_attempts():
    m = RunMetrics()
    feed(m, fake_result(lost_time=1000.0))
    spans = [
        _span(2, "attempt", 0.0, 900.0, status="eviction"),
        _span(3, "attempt", 0.0, 400.0, status="fast-abort"),
        _span(4, "attempt", 0.0, 100.0, status="ok"),  # not lost: excluded
    ]
    d = _find(diagnose(m, spans=spans), "high-lost-runtime")
    assert d.metric > d.threshold
    assert [e.span_id for e in d.evidence] == [2, 3]  # largest loss first
    assert all(isinstance(e, EvidenceSpan) for e in d.evidence)
    assert d.evidence[0].seconds == 900.0
    assert d.evidence[0].status == "eviction"
    assert d.evidence[0].trace_id == "wf:u000001"
    # Evidence lands in the rendered diagnosis too.
    assert "trace=wf:u000001" in str(d)


def test_high_lost_runtime_silent_below_threshold():
    m = RunMetrics()
    feed(m, fake_result(lost_time=1.0))
    assert all(
        d.symptom != "high-lost-runtime" for d in diagnose(m, spans=[])
    )


# ---------------------------------------------------------------------------
# 2. slow-sandbox-stage-in → evidence: wq.stage_in spans
# ---------------------------------------------------------------------------
def test_slow_sandbox_stage_in_cites_wq_stage_in_spans():
    m = RunMetrics()
    feed(m, fake_result(wq_stage_in=500.0))
    spans = [
        _span(2, "wq.stage_in", 0.0, 480.0),
        _span(3, "wq.stage_in", 0.0, 520.0),
        _span(4, "wrapper.stage_in", 0.0, 999.0),  # wrong name: excluded
    ]
    d = _find(diagnose(m, spans=spans), "slow-sandbox-stage-in")
    assert [e.span_id for e in d.evidence] == [3, 2]
    assert all(e.name == "wq.stage_in" for e in d.evidence)


def test_slow_sandbox_stage_in_silent_below_threshold():
    m = RunMetrics()
    feed(m, fake_result(wq_stage_in=10.0))
    assert all(
        d.symptom != "slow-sandbox-stage-in" for d in diagnose(m)
    )


# ---------------------------------------------------------------------------
# 3. slow-environment-setup → evidence: wrapper.setup / cvmfs.fill spans
# ---------------------------------------------------------------------------
def test_slow_setup_cites_setup_and_cache_fill_spans():
    m = RunMetrics()
    for _ in range(3):
        feed(m, fake_result(segments={"cpu": 100.0, "setup": 2000.0}))
    spans = [
        _span(2, "wrapper.setup", 0.0, 1900.0),
        _span(3, "cvmfs.fill", 0.0, 1500.0),
        _span(4, "wrapper.exec", 0.0, 9000.0),  # wrong name: excluded
    ]
    d = _find(diagnose(m, spans=spans), "slow-environment-setup")
    assert [e.name for e in d.evidence] == ["wrapper.setup", "cvmfs.fill"]


def test_slow_setup_silent_below_threshold():
    m = RunMetrics()
    for _ in range(3):
        feed(m, fake_result(segments={"cpu": 100.0, "setup": 30.0}))
    assert all(
        d.symptom != "slow-environment-setup" for d in diagnose(m)
    )


# ---------------------------------------------------------------------------
# 4. slow-stage-in-out → evidence: wrapper.stage_in / wrapper.stage_out
# ---------------------------------------------------------------------------
def test_slow_chirp_stages_cite_wrapper_stage_spans():
    m = RunMetrics()
    feed(
        m,
        fake_result(segments={"cpu": 10.0, "stage_in": 200.0, "stage_out": 200.0}),
    )
    spans = [
        _span(2, "wrapper.stage_in", 0.0, 190.0),
        _span(3, "wrapper.stage_out", 200.0, 410.0),
        _span(4, "wq.stage_in", 0.0, 999.0),  # wrong name: excluded
    ]
    d = _find(diagnose(m, spans=spans), "slow-stage-in-out")
    assert [e.span_id for e in d.evidence] == [3, 2]
    assert {e.name for e in d.evidence} == {
        "wrapper.stage_in", "wrapper.stage_out"
    }


def test_slow_chirp_stages_silent_below_threshold():
    m = RunMetrics()
    feed(
        m,
        fake_result(segments={"cpu": 10.0, "stage_in": 5.0, "stage_out": 5.0}),
    )
    assert all(d.symptom != "slow-stage-in-out" for d in diagnose(m))


# ---------------------------------------------------------------------------
# cross-cutting evidence behavior
# ---------------------------------------------------------------------------
def test_untraced_run_fires_with_empty_evidence():
    m = RunMetrics()
    feed(m, fake_result(lost_time=1000.0))
    d = _find(diagnose(m), "high-lost-runtime")
    assert d.evidence == ()
    assert "evidence" not in str(d)


def test_evidence_capped_at_three_worst():
    m = RunMetrics()
    feed(m, fake_result(wq_stage_in=500.0))
    spans = [
        _span(i, "wq.stage_in", 0.0, 100.0 * i) for i in range(2, 8)
    ]
    d = _find(diagnose(m, spans=spans), "slow-sandbox-stage-in")
    assert len(d.evidence) == 3
    assert [e.span_id for e in d.evidence] == [7, 6, 5]


def test_open_spans_never_cited():
    m = RunMetrics()
    feed(m, fake_result(wq_stage_in=500.0))
    open_span = Span(2, "wf:u000001", 1, "wq.stage_in", 0.0)  # end=None
    d = _find(diagnose(m, spans=[open_span]), "slow-sandbox-stage-in")
    assert d.evidence == ()
