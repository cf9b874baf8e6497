"""Benchmark entry point: one workload, one process, one result line.

    python3 perfbench/run.py --workload cascade-2025 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``meq`` from ``src/``.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it, starting with ``#``, describe the machine and the run.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Set-up time counts from here: after interpreter start-up and the few
# milliseconds of standard-library imports above.
START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# One BLAS thread: steadier figures on a small shared machine.  These must be
# set before numpy is first imported, which the CLI's MEQ_THREADS cannot do
# for a process that has already loaded it.
THREADS = "1"
THREAD_VARS = (
    "MEQ_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Set-up is taken this many times per run (this process and the rest in
# child processes), and the median is reported.
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for checking the benchmark itself")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def import_program():
    """Import ``meq`` from this checkout's ``src/``, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "meq", "cli.py")):
        print(f"perfbench: no meq sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import meq

    if os.path.dirname(os.path.abspath(meq.__file__)) != os.path.join(SRC, "meq"):
        print(f"perfbench: imported meq from {meq.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def set_up(args, workdir):
    """Generate the inputs and run the untimed warm-up; returns the workload."""
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        sys.exit(2)
    workload = workloads.WORKLOADS[args.workload](
        workdir, args.seed, harness.run_cli, args.smoke)
    for argv in workload.warmup:
        code, _, err = harness.run_cli(argv)
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} failed: {err}")
    return workload


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process running the same set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    import_program()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = set_up(args, workdir)
        setup_seconds = time.perf_counter() - START
        if args.setup_only:
            print(repr(setup_seconds))
            return 0
        return measure(args, workload, setup_seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup_seconds: float) -> int:
    import harness
    import tracing

    print(harness.environment_line())
    if args.trace:
        tracer = tracing.Tracer()
        result = harness.run_loop(workload, args.seconds, tracer)
        metrics = tracer.layer_metrics(len(result.traced_pass_seconds))
        units = tracing.LAYER_METRICS
        spans_path = os.path.join(WORK, f"spans-{workload.name}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.span_records(), handle)
        print(f"# tracing overhead {harness.tracing_overhead(result):.6f} s per pass "
              f"(traced minus untraced run_s); spans in {spans_path}")
    else:
        setups = [setup_seconds] + [child_setup_seconds(args)
                                    for _ in range(SETUP_REPEATS - 1)]
        result = harness.run_loop(workload, args.seconds)
        measured = harness.end_to_end_metrics(result, statistics.median(setups))
        metrics, units = measured, harness.END_TO_END
        print(f"# setup_s samples {[round(s, 4) for s in setups]}")
        if result.probe:
            factor = result.probe.factor()
            metrics = harness.at_reference_speed(measured, factor)
            print(f"# times at the speed probe's reference speed: speed factor "
                  f"{factor:.4f} from {len(result.probe.samples)} probes; measured values:")
            print("#   " + ", ".join(f"{k} {measured[k]:.6g}" for k in units))
    for line in harness.describe(workload, result, metrics, units):
        print(line)
    print(harness.result_line(result, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
