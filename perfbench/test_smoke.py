"""Smoke test of the benchmark itself, at tiny problem sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that only sweep-small reports its times through the speed probe
and how they are scaled, that a corrupted record or a failed command is
counted as a failure, and that the benchmark refuses to run without the
sources.
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]
    if not trace:
        assert ("speed factor" in done.stdout) == (workload == "sweep-small")


def test_reference_speed_divides_times_and_multiplies_rates():
    import harness

    measured = dict.fromkeys(harness.END_TO_END, 2.0)
    scaled = harness.at_reference_speed(measured, factor=2.0)
    assert scaled["steady_s"] == scaled["run_s"] == 1.0
    assert scaled["cmds_per_s"] == 4.0
    assert scaled["setup_s"] == scaled["peak_rss_mb"] == 2.0


@pytest.fixture
def sweep(tmp_path):
    import harness
    import workloads

    return workloads.sweep_small(str(tmp_path), 7, harness.run_cli, smoke=True)


def _with_cli(monkeypatch, rewrite):
    """Route meq.cli.run through ``rewrite(argv, code, text) -> (code, text)``."""
    import meq.cli

    real_run = meq.cli.run

    def fake_run(argv, stdout=None, stderr=None):
        buffer = io.StringIO()
        code = real_run(argv, stdout=buffer, stderr=stderr)
        code, text = rewrite(argv, code, buffer.getvalue())
        stdout.write(text)
        return code

    monkeypatch.setattr(meq.cli, "run", fake_run)


def test_corrupted_record_counts_as_failure(sweep, monkeypatch):
    import harness

    def corrupt_ptrace(argv, code, text):
        if argv[0] != "ptrace":
            return code, text
        record = json.loads(text)
        record["results"]["rho_reduced"][0][0][0] += 1e-3
        return code, json.dumps(record)

    _with_cli(monkeypatch, corrupt_ptrace)
    result = harness.RunResult()
    harness.run_pass(sweep, result)
    failed = [s for s in result.samples if s.error]
    assert len(result.samples) == len(sweep.commands)
    assert [s.argv[0] for s in failed] == ["ptrace"] * (len(sweep.commands) // 5)
    line = json.loads(harness.result_line(result, {}, {}))
    assert line["failed"] == len(failed) and not line["correct"]


def test_failed_exit_and_malformed_output_count(sweep, monkeypatch):
    import harness

    def break_two(argv, code, text):
        if argv[0] == "spectrum":
            return 3, ""
        if argv[0] == "evolve":
            return code, text[: len(text) // 2]
        return code, text

    _with_cli(monkeypatch, break_two)
    result = harness.RunResult()
    harness.run_pass(sweep, result)
    failed = sorted(s.argv[0] for s in result.samples if s.error)
    assert failed == sorted(["spectrum", "evolve"] * (len(sweep.commands) // 5))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
