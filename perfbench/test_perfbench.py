"""Tests for the benchmark itself, at TINY scale.

Run with ``python -m pytest perfbench -q`` from the repository root (the
default test run does not collect this directory, so tier-1 stays as fast
as it was).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1"]
        + ["--seconds", "0", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_prints_every_end_to_end_metric(workload):
    done = _bench("--workload", workload, "--trace", "0", "--scale", "tiny")
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS
    units = _units("end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert result["metrics"][name]["value"] > 0
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in done.stdout.splitlines()
        ), f"{name} [{unit}] not printed"
    assert "host: " in done.stdout


def test_traced_run_reports_every_per_layer_metric():
    trace_out = run.TRACE_DIR / "trace-live-tiny-seed1.json"
    trace_out.unlink(missing_ok=True)
    done = _bench("--workload", "live", "--trace", "1", "--scale", "tiny")
    result = _result(done)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("per_layer")
    self_times = sum(m["value"] for n, m in metrics.items() if n.endswith(".self_s"))
    assert 0 < self_times <= metrics["traced_run_s"]["value"]
    live_layers = (
        "simulation.run_until",
        "cluster.refresh",
        "harness.epoch_fold",
        "services.p99_latency",
    )
    for layer in live_layers:
        assert metrics[f"{layer}.calls"]["value"] > 0
    events = json.loads(trace_out.read_text(encoding="utf-8"))["traceEvents"]
    calls = sum(m["value"] for n, m in metrics.items() if n.endswith(".calls"))
    assert len(events) == calls
    cells = {e["args"]["cell"] for e in events if e["name"] == tracer.CELL_SPAN}
    assert cells == {"YARN-PT", "YARN-H"}
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0
        if event["name"] != tracer.CELL_SPAN:
            assert event["args"]["cell"] in cells
            assert 0 <= event["args"]["parent"] < event["args"]["span"]


def _wrapped_attributes():
    from repro.harness.runners import RUNNERS, ScenarioRunner
    from repro.jobs.scheduler_variants import HarvestingCluster

    targets = [tracer._resolve(entry.target) for entry in tracer.ENTRY_POINTS]
    targets += [(cls, "run_cell") for cls in {ScenarioRunner, *RUNNERS.values()}]
    targets.append((HarvestingCluster, "__init__"))
    return {(cls, attr): cls.__dict__.get(attr) for cls, attr in targets}


def test_tracer_restores_every_method_and_keeps_the_fingerprint():
    api = run.load_api()
    workload = WORKLOADS["storm"]
    before = _wrapped_attributes()
    plain = workload.run(api, "tiny", 1).fingerprint()
    with tracer.LayerTracer() as layers:
        assert any(c.__dict__.get(a) is not orig for (c, a), orig in before.items())
        traced = workload.run(api, "tiny", 1).fingerprint()
    assert traced == plain
    assert all(cls.__dict__.get(attr) is orig for (cls, attr), orig in before.items())
    metrics = tracer.layer_metrics(layers.spans)
    assert metrics["storage.run_replication.calls"] > 0
    assert metrics["cluster.refresh.calls"] == 0

    with pytest.raises(RuntimeError):
        with tracer.LayerTracer():
            raise RuntimeError("stop mid-run")
    assert all(cls.__dict__.get(attr) is orig for (cls, attr), orig in before.items())


def test_injected_fingerprint_mismatch_is_a_failed_operation(
    tmp_path, monkeypatch, capsys
):
    references = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    references["tiny"]["storm"]["1"]["fingerprint"] = "0" * 64
    path = tmp_path / "references.json"
    path.write_text(json.dumps(references), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCES", path)
    argv = ["--workload", "storm", "--seed", "1", "--seconds", "0", "--trace", "0"]
    assert run.main(argv + ["--scale", "tiny"]) == 0
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == run.MIN_RUNS and result["failed"] == 1
    assert "seed 1: wrong result: fingerprint" in err


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    done = _bench("--workload", "place", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
