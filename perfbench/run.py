#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload diurnal|fleet_pingpong|wan_return \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the library from src/
plus the driver) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later calls rebuild incrementally. The driver
binary runs the workload and prints human-readable lines followed by one
JSON result line, which this script checks against BENCHMARK.json's metric
list and re-prints as the last line of stdout. Build output goes to stderr.

Exit status: 0 when the run passed every check; 1 when the build failed,
the driver failed a check, crashed or timed out, or its result line is
malformed. A failed build prints no result line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("diurnal", "fleet_pingpong", "wan_return")
BINARY = "vecycle_perfbench"
# A run measures for --seconds and then finishes its last iteration; the
# slowest iteration takes about 15 s on a 4-core machine.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    command = ["cmake", "--build", str(build_dir), "--target", BINARY,
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir / BINARY


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    manifest = Path("BENCHMARK.json")
    if not manifest.exists():
        return None
    spec = json.loads(manifest.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns a list of problems with the driver's result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {missing}, extra {extra}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve() / "perfbench"
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(exist_ok=True)
        command += ["--spans",
                    str(spans_dir / f"{args.workload}-{args.seed}.jsonl")]
    # Library switches read from the environment (audit, tracing, fault
    # plans, worker count) would change what is measured.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("VECYCLE_")}
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 1

    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log(f"driver exited {proc.returncode} without a result line")
        return 1
    problems = check_result(result, args.trace)
    for problem in problems:
        log(problem)
    if problems:
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
