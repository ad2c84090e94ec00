"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; they are
outside the tier-1 ``testpaths``.
"""

import json
import re

import pytest

import layers
import run

REPRO = layers.REPRO_DIR
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _stat(nc, tt, callers=None):
    return (nc, nc, tt, tt, callers or {})


# -- layer bucketing -------------------------------------------------------


@pytest.mark.parametrize(
    "func, layer",
    [
        ((REPRO + "wq/worker.py", 128, "_fits"), "wq"),
        ((REPRO + "desim/resources.py", 402, "_trigger"), "desim.resources"),
        ((REPRO + "desim/core.py", 228, "step"), "desim.core"),
        ((REPRO + "desim/bus.py", 1, "emit"), "desim.bus"),
        ((REPRO + "desim/events.py", 1, "succeed"), "desim.other"),
        ((REPRO + "monitor/tracing/spans.py", 1, "on_event"), "monitor.tracing"),
        ((REPRO + "monitor/rollup.py", 1, "fold"), "monitor"),
        ((REPRO + "cli.py", 1, "main"), "cli"),
        ((REPRO + "scenarios.py", 1, "execute_prepared"), "cli"),
        ((REPRO + "sweep/engine.py", 1, "run_sweep"), "cli"),
        ((REPRO + "net/allocator.py", 26, "waterfill"), "net"),
        ((REPRO + "hadoop/hdfs.py", 1, "read"), "other"),
        (("/usr/lib/python3/site-packages/scipy/stats/_distn.py", 1, "ppf"), "scipy"),
        (("/usr/lib/python3/site-packages/numpy/core/fromnumeric.py", 1, "sum"), "numpy"),
        (("/usr/lib/python3.11/json/decoder.py", 1, "raw_decode"), "json"),
        (("/usr/lib/python3.11/sqlite3/__init__.py", 1, "<module>"), "sqlite"),
        (("<frozen importlib._bootstrap>", 1, "_find_and_load"), "import"),
        (("/usr/lib/python3.11/inspect.py", 1, "cleandoc"), "other"),
        (("~", 0, "<method 'execute' of 'sqlite3.Connection' objects>"), "sqlite"),
        (("~", 0, "<built-in method _json.encode_basestring_ascii>"), "json"),
        (("~", 0, "<built-in method marshal.loads>"), "import"),
        (("~", 0, "<built-in method _imp.create_dynamic>"), "import"),
        (("~", 0, "<built-in method builtins.len>"), None),
    ],
)
def test_layer_of(func, layer):
    assert layers.layer_of(func) == layer


def test_bucket_splits_builtins_pro_rata_among_callers():
    fits = (REPRO + "wq/worker.py", 128, "_fits")
    waterfill = (REPRO + "net/allocator.py", 26, "waterfill")
    execute = ("~", 0, "<method 'execute' of 'sqlite3.Connection' objects>")
    length = ("~", 0, "<built-in method builtins.len>")
    stats = {
        fits: _stat(1000, 3.0),
        waterfill: _stat(10, 1.0),
        execute: _stat(7, 0.5),
        length: _stat(40, 2.0, {fits: (30, 30, 1.5, 1.5), waterfill: (10, 10, 0.5, 0.5)}),
    }
    out = layers.bucket(stats)
    assert out["wq.self_s"] == pytest.approx(4.5)
    assert out["net.self_s"] == pytest.approx(1.5)
    assert out["sqlite.self_s"] == pytest.approx(0.5)
    assert out["wq.calls"] == 1030 and out["net.calls"] == 20
    assert out["wq.share"] == pytest.approx(4.5 / 6.5)
    assert sum(v for k, v in out.items() if k.endswith(".share")) == pytest.approx(1.0)
    assert out["wq.fits_calls"] == 1000
    assert out["net.waterfill_calls"] == 10
    assert out["sqlite.statements"] == 7


def test_bucket_falls_back_to_call_counts_and_other():
    fits = (REPRO + "wq/worker.py", 128, "_fits")
    core = (REPRO + "core/unit.py", 1, "complete")
    stats = {
        fits: _stat(1, 0.0),
        core: _stat(1, 0.0),
        ("~", 0, "<built-in method builtins.min>"): _stat(
            4, 1.0, {fits: (3, 3, 0.0, 0.0), core: (1, 1, 0.0, 0.0)}
        ),
        ("~", 0, "<built-in method builtins.max>"): _stat(2, 0.25),
    }
    out = layers.bucket(stats)
    assert out["wq.self_s"] == pytest.approx(0.75)
    assert out["core.self_s"] == pytest.approx(0.25)
    assert out["other.self_s"] == pytest.approx(0.25)


# -- compare rule ----------------------------------------------------------

BASE = [1.00, 1.01, 0.99, 1.00, 1.02]


@pytest.mark.parametrize(
    "new, better, expected",
    [
        ([1.01, 1.00, 1.02, 0.99, 1.00], "lower", "same"),
        ([1.30, 1.31, 1.29, 1.30, 1.32], "lower", "worse"),
        ([0.70, 0.71, 0.69, 0.70, 0.72], "lower", "better"),
        ([0.70, 0.71, 0.69, 0.70, 0.72], "higher", "worse"),
        ([0.60, 1.40, 0.80, 1.20, 1.00], "lower", "unresolved"),
        ([0.50, 0.90, 0.60, 0.80, 0.70], "lower", "better"),
    ],
)
def test_verdict(new, better, expected):
    assert run.verdict(BASE, new, better, 0.10) == expected


def test_verdict_floor_absorbs_tiny_absolute_changes():
    base = [0.010, 0.010, 0.011, 0.010, 0.010]
    assert run.verdict(base, [0.020] * 5, "lower", 0.10) == "worse"
    assert run.verdict(base, [0.020] * 5, "lower", 0.10, floor=0.05) == "same"


def _payload(samples, failed):
    return {
        "workloads": {
            "quickstart_cold": {
                "metrics": {"wall_s": {"samples": samples}},
                "failed_ops": {"value": failed / 10, "failed": failed, "attempted": 10},
            }
        }
    }


def test_compare_flags_failed_ops_rise(tmp_path, capsys):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_payload(BASE, 0)))
    new.write_text(json.dumps(_payload(BASE, 1)))
    assert run.main(["--compare", str(base), str(base)]) == 0
    assert run.main(["--compare", str(base), str(new)]) == 1
    rows = run.compare(_payload(BASE, 0), _payload(BASE, 1))
    assert [(r[1], r[-1]) for r in rows] == [("wall_s", "same"), ("failed_ops", "worse")]
    assert "failed_ops" in capsys.readouterr().out


# -- BENCHMARK.json <-> harness --------------------------------------------


def test_benchmark_json_matches_harness():
    spec = run.SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == set(run.E2E) - set(run.SET_ONLY_BOUNDS)
    assert set(run.BOUNDS) == set(run.E2E)
    for name, m in e2e.items():
        unit, better, _ = run.E2E[name]
        assert (m["unit"], m["better"]) == (unit, better)
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in spec["per_layer"]:
        name = m["name"]
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith(".share") or name == "trace.overhead" else
                "count")
        assert m["unit"] == unit, name


@pytest.fixture(scope="module")
def quickstart_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "BENCH_e2e.json"
    assert run.main(["--workload", "quickstart_cold", "--repeats", "1", "--trace",
                     "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_real_quickstart_run(quickstart_set):
    assert quickstart_set["schema"] == run.SCHEMA
    entry = quickstart_set["workloads"]["quickstart_cold"]
    assert entry["failed_ops"] == {"value": 0.0, "failed": 0, "attempted": 2}
    # replay_s exists only on workloads with replays.
    assert set(entry["metrics"]) == set(run.E2E) - {"replay_s"}
    assert all(m["median"] > 0 for m in entry["metrics"].values())
    assert entry["outputs"]["tasks"]["tasks_recorded"] > 0
    shares = [v for k, v in entry["per_layer"].items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_contract_result_prints_exactly_the_declared_metrics(quickstart_set):
    entry = quickstart_set["workloads"]["quickstart_cold"]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.contract_result(entry, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in run.SPEC[key]]
        assert all(v["value"] > 0 for v in result["metrics"].values())
