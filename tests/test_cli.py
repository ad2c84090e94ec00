"""Tests for the command-line interface and the profile catalog."""

import io
import json

import pytest

from repro.analysis.profiles import PROFILES, list_profiles, profile
from repro.cli import build_parser, main


# ---------------------------------------------------------------- profiles
def test_profile_catalog_complete():
    assert {"skim", "ntuple", "rereco", "gensim", "digi-reco-mc"} <= set(PROFILES)
    for name in PROFILES:
        code = profile(name)
        assert code.per_event_cpu.mean() > 0
        assert code.output_bytes_per_event > 0


def test_profile_unknown_raises():
    with pytest.raises(KeyError, match="unknown profile"):
        profile("does-not-exist")


def test_profiles_have_expected_shape():
    # A skim computes far less per event than reconstruction.
    assert profile("skim").per_event_cpu.mean() < profile("rereco").per_event_cpu.mean() / 10
    # GEN-SIM is the CPU heavyweight and needs no real input.
    gensim = profile("gensim")
    assert gensim.input_bytes_per_event == 0.0
    assert gensim.per_event_cpu.mean() > 10
    # Ntupling reduces output by > 10x relative to input.
    nt = profile("ntuple")
    assert nt.output_bytes_per_event * 10 < nt.input_bytes_per_event


def test_list_profiles():
    listing = list_profiles()
    assert "ntuple" in listing
    assert "simulation" in listing["gensim"]


# ---------------------------------------------------------------- CLI
def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_profiles():
    code, text = run_cli(["profiles"])
    assert code == 0
    assert "ntuple" in text
    assert "gensim" in text


def test_cli_tasksize_small():
    code, text = run_cli(
        ["tasksize", "--tasklets", "500", "--workers", "50", "--eviction", "constant"]
    )
    assert code == 0
    assert "optimal:" in text
    assert "efficiency" in text


def test_cli_quickstart_small():
    code, text = run_cli(["quickstart", "--events", "4000", "--workers", "2"])
    assert code == 0
    assert "LOBSTER RUN REPORT" in text
    assert "succeeded" in text


def test_cli_simulate_rejects_data_profile():
    with pytest.raises(SystemExit):
        run_cli(["simulate", "--profile", "ntuple", "--events", "1000"])


def test_cli_process_rejects_mc_profile():
    with pytest.raises(SystemExit):
        run_cli(["process", "--profile", "gensim"])


def test_cli_process_small():
    code, text = run_cli(
        ["process", "--files", "10", "--machines", "2", "--cores", "4"]
    )
    assert code == 0
    assert "LOBSTER RUN REPORT" in text


def test_cli_simulate_small():
    code, text = run_cli(
        ["simulate", "--events", "8000", "--machines", "2", "--cores", "4"]
    )
    assert code == 0
    assert "LOBSTER RUN REPORT" in text


# ---------------------------------------------------------------- foreign recordings
REPLAY_COMMANDS = (
    ["events"],
    ["trace", "--replay"],
    ["dash", "--replay"],
    ["watch", "--replay"],
)


def _replay_argv(command, path, tmp_path):
    argv = command + [str(path)]
    if command[0] in ("dash", "watch"):
        argv += ["--out", str(tmp_path / "dash.html")]
    return argv


def _one_line_recording(tmp_path, **overrides):
    """A recording of a single ``task.result``; a None override drops
    that field."""
    fields = dict(
        t=100.0, topic="task.result", workflow="wf", task_id=1,
        category="analysis", exit_code=0, submitted=0.0, started=10.0,
        finished=100.0, segments={"cpu": 60.0}, wq_stage_in=0.0,
        wq_stage_out=0.0, lost_time=0.0, output_bytes=0.0,
    )
    fields.update(overrides)
    path = tmp_path / "foreign.jsonl"
    path.write_text(
        json.dumps({k: v for k, v in fields.items() if v is not None}) + "\n"
    )
    return path


@pytest.mark.parametrize("command", REPLAY_COMMANDS, ids=lambda c: c[0])
def test_replay_accepts_exit_code_outside_the_enum(tmp_path, command):
    path = _one_line_recording(tmp_path, exit_code=999)
    code, text = run_cli(_replay_argv(command, path, tmp_path))
    assert code == 0
    if command == ["events"]:
        assert "(0 ok, 1 failed)" in text


@pytest.mark.parametrize("command", REPLAY_COMMANDS, ids=lambda c: c[0])
def test_replay_names_a_missing_field_in_one_line(tmp_path, command):
    path = _one_line_recording(tmp_path, category=None)
    with pytest.raises(SystemExit) as exc:
        run_cli(_replay_argv(command, path, tmp_path))
    message = exc.value.code
    assert isinstance(message, str)  # printed to stderr, exit status 1
    assert "event 0 (task.result): missing field 'category'" in message
    assert "\n" not in message
