"""Closed-loop client: runs a workload's passes through ``meq.cli.run``.

One client in one process issues each command after the previous one
returns.  A run repeats the workload's pass until ``seconds`` have elapsed
(at least one pass), times every command, checks every record, and reduces
the samples to the end-to-end metrics.  A traced run alternates untraced and
traced passes, so the tracing overhead is the difference of their medians.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import meq.cli

from speed import SpeedProbe
from tracing import Tracer
from workloads import KINDS, Workload

# name -> unit of every end-to-end metric; the order is the print order.
# A workload with a speed probe reports its times, set-up aside, at the
# probe's reference speed (see speed.py).
END_TO_END = {
    "setup_s": "s",
    "steady_s": "s",
    "linsolve_s": "s",
    "spectrum_s": "s",
    "evolve_s": "s",
    "negativity_s": "s",
    "cmd_p50_s": "s",
    "cmd_p90_s": "s",
    "cmds_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def run_cli(argv) -> tuple[int, str, str]:
    """One in-process ``meq`` invocation; returns (exit code, stdout, stderr).

    ``meq.cli.run`` is looked up on every call so that wrappers installed on
    the module are seen.  An exception escaping the CLI is a failed command,
    reported with its traceback, not a crash of the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        code = meq.cli.run(list(argv), stdout=out, stderr=err)
    except Exception:  # the boundary: count it and keep the run going
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


@dataclass
class Sample:
    argv: tuple[str, ...]
    kinds: tuple[str, ...]
    seconds: float
    error: str | None


@dataclass
class RunResult:
    samples: list[Sample] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    traced_pass_seconds: list[float] = field(default_factory=list)
    loop_seconds: float = 0.0
    probe: SpeedProbe | None = None

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.error)


def run_pass(workload: Workload, result: RunResult) -> float:
    """Every command of the workload once, with any speed probes that fall
    due between them; returns the pass wall time without the probes."""
    scratch: dict = {}
    start = time.perf_counter()
    probing = 0.0
    for command in workload.commands:
        t0 = time.perf_counter()
        code, out, err = run_cli(command.argv)
        seconds = time.perf_counter() - t0
        error = check_record(command, code, out, err, scratch)
        result.samples.append(Sample(command.argv, command.kinds, seconds, error))
        if error:
            print(f"FAILED {' '.join(command.argv)}: {error}", file=sys.stderr)
        if result.probe:
            probing += result.probe.between_commands()
    return time.perf_counter() - start - probing


def check_record(command, code: int, out: str, err: str, scratch: dict) -> str | None:
    if code != 0:
        return f"exit code {code}: {err.strip()[-500:]}"
    try:
        record = json.loads(out)
        return command.check(record, scratch)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed record: {exc!r}"


def run_loop(workload: Workload, seconds: float, tracer: Tracer | None = None) -> RunResult:
    """Closed loop of passes for ``seconds`` (one pass at least).

    With a tracer, passes alternate untraced and traced, starting untraced,
    and the loop runs until both kinds have at least one pass.  A workload
    with a speed probe probes once before the first pass and then between
    commands; the probes' time is left out of the pass and loop times.
    """
    result = RunResult(probe=SpeedProbe() if workload.speed_probe else None)
    start = time.perf_counter()
    if result.probe:
        result.probe.take()
    traced_next = False
    while True:
        elapsed = time.perf_counter() - start
        enough = result.pass_seconds and (tracer is None or result.traced_pass_seconds)
        if enough and elapsed >= seconds:
            break
        if traced_next:
            tracer.install()
            try:
                result.traced_pass_seconds.append(run_pass(workload, result))
            finally:
                tracer.close()
        else:
            result.pass_seconds.append(run_pass(workload, result))
        traced_next = tracer is not None and not traced_next
    probing = result.probe.spent if result.probe else 0.0
    result.loop_seconds = time.perf_counter() - start - probing
    return result


def end_to_end_metrics(result: RunResult, setup_seconds: float) -> dict[str, float]:
    """The end-to-end metrics of an untraced run, as measured."""
    latencies = [s.seconds for s in result.samples]
    metrics = {"setup_s": setup_seconds}
    for kind in KINDS:
        by_command: dict[tuple[str, ...], list[float]] = {}
        for s in result.samples:
            if kind in s.kinds:
                by_command.setdefault(s.argv, []).append(s.seconds)
        metrics[f"{kind}_s"] = statistics.fmean(map(statistics.median, by_command.values()))
    metrics["cmd_p50_s"] = statistics.median(latencies)
    metrics["cmd_p90_s"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    metrics["cmds_per_s"] = len(latencies) / result.loop_seconds
    metrics["run_s"] = statistics.median(result.pass_seconds)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def at_reference_speed(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Measured metrics restated at the probe's reference speed.

    ``factor`` is the run's mean probe time over the reference probe time:
    times are divided by it and rates multiplied.  Memory stays as it is,
    and so does ``setup_s``: set-up is process start, imports and file
    writing, which the probe does not resemble.
    """
    scaled = dict(metrics)
    for key, unit in END_TO_END.items():
        if unit == "s" and key != "setup_s":
            scaled[key] = metrics[key] / factor
        elif unit == "1/s":
            scaled[key] = metrics[key] * factor
    return scaled


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def tracing_overhead(result: RunResult) -> float:
    return statistics.median(result.traced_pass_seconds) - statistics.median(result.pass_seconds)


def result_line(result: RunResult, metrics: dict[str, float], units: dict[str, str]) -> str:
    failed = result.failed
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(result.samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def describe(workload: Workload, result: RunResult, metrics: dict[str, float],
             units: dict[str, str]) -> list[str]:
    """Human-readable summary lines, printed before the result line."""
    attempted = len(result.samples)
    lines = [
        f"# workload {workload.name}: {attempted} commands in "
        f"{len(result.pass_seconds) + len(result.traced_pass_seconds)} passes, "
        f"{result.loop_seconds:.2f} s; failed_frac {result.failed / attempted:g}",
    ]
    lines += [f"#   {k:28s} {metrics[k]:.6g} {units[k]}" for k in units]
    return lines


def environment_line() -> str:
    import numpy
    import platform
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    return (
        f"# threads {threads} (MEQ_THREADS {os.environ.get('MEQ_THREADS')}), "
        f"nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {numpy.__version__} ({blas['name']} {blas['version']}), "
        f"scipy {scipy.__version__} ({scipy_blas['name']} {scipy_blas['version']})"
    )

