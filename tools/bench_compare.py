#!/usr/bin/env python3
"""Validate and compare bench_perf JSON reports.

Validates the shape of a BENCH_perf.json emitted by bench/bench_perf
(schema vecycle.bench_perf.v1) and, when --baseline is given, fails if
any benchmark regressed by more than --max-regression in ns_per_op, or
if a benchmark is present in only one of the two reports. A rename or a
dropped row must not silently pass the gate; a benchmark that is being
added on purpose (it has no baseline yet) is declared with --allow-new
so the comparison stays strict for everything else.

Wire bytes are gated exactly: when a baseline row carries tx_bytes (the
simulated benches), the current row must carry the same value. They are
a deterministic model output, so any difference is a behaviour change
that lands with a baseline refresh, never noise.

Usage:
  bench_compare.py BENCH_perf.json                       # validate only
  bench_compare.py BENCH_perf.json --baseline BASE.json  # and compare
  bench_compare.py CUR.json --baseline BASE.json --allow-new fleet_pdes_w8
"""

import argparse
import json
import sys

SCHEMA = "vecycle.bench_perf.v1"
REQUIRED_FIELDS = ("name", "iters", "ns_per_op", "ops_per_sec")


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict):
        raise ValueError(f"{path}: top level must be an object")
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: schema is {report.get('schema')!r}, expected {SCHEMA!r}"
        )
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ValueError(f"{path}: 'benchmarks' must be a non-empty list")
    by_name = {}
    for entry in benchmarks:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: benchmark entries must be objects")
        for field in REQUIRED_FIELDS:
            if field not in entry:
                raise ValueError(
                    f"{path}: benchmark {entry.get('name', '?')!r} "
                    f"missing field {field!r}"
                )
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise ValueError(f"{path}: benchmark name must be a string")
        if name in by_name:
            raise ValueError(f"{path}: duplicate benchmark {name!r}")
        for field in ("iters", "ns_per_op", "ops_per_sec"):
            value = entry[field]
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"{path}: {name}.{field} must be a positive number, "
                    f"got {value!r}"
                )
        if "bytes_per_sec" in entry:
            value = entry["bytes_per_sec"]
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"{path}: {name}.bytes_per_sec must be positive"
                )
        if "tx_bytes" in entry:
            value = entry["tx_bytes"]
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(
                    f"{path}: {name}.tx_bytes must be a non-negative "
                    f"integer, got {value!r}"
                )
        by_name[name] = entry
    return by_name


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="BENCH_perf.json to validate")
    parser.add_argument(
        "--baseline", help="baseline BENCH_perf.json to compare against"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="maximum allowed ns_per_op regression vs the baseline "
        "(fraction; default 0.30 = 30%%)",
    )
    parser.add_argument(
        "--allow-new",
        action="append",
        default=[],
        metavar="NAME",
        help="benchmark expected in the current report but not the "
        "baseline (repeatable); any other one-sided row fails",
    )
    args = parser.parse_args()

    try:
        current = load_report(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"INVALID: {err}", file=sys.stderr)
        return 1
    print(f"{args.current}: valid ({len(current)} benchmarks)")

    if args.baseline is None:
        return 0

    try:
        baseline = load_report(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"INVALID baseline: {err}", file=sys.stderr)
        return 1

    failed = False
    for name, base in sorted(baseline.items()):
        if name not in current:
            print(f"FAIL {name}: present in baseline, missing from current")
            failed = True
            continue
        base_ns = float(base["ns_per_op"])
        cur_ns = float(current[name]["ns_per_op"])
        delta = cur_ns / base_ns - 1.0
        verdict = "FAIL" if delta > args.max_regression else "ok"
        print(
            f"{verdict:4s} {name}: {base_ns:.1f} -> {cur_ns:.1f} ns/op "
            f"({delta:+.1%})"
        )
        if delta > args.max_regression:
            failed = True
        if "tx_bytes" in base:
            base_tx = base["tx_bytes"]
            cur_tx = current[name].get("tx_bytes")
            if cur_tx != base_tx:
                shown = "missing" if cur_tx is None else cur_tx
                print(f"FAIL {name}: tx_bytes {base_tx} -> {shown} "
                      "(wire bytes must match the baseline exactly)")
                failed = True
    allow_new = set(args.allow_new)
    for name in sorted(set(current) - set(baseline)):
        cur_ns = float(current[name]["ns_per_op"])
        if name in allow_new:
            print(f"new  {name}: {cur_ns:.1f} ns/op (allowed)")
        else:
            print(
                f"FAIL {name}: present in current, missing from baseline "
                "(renamed benchmark? pass --allow-new if added on purpose)"
            )
            failed = True
    for name in sorted(allow_new - set(current)):
        print(f"FAIL {name}: listed in --allow-new but not in current")
        failed = True

    if failed:
        print(
            f"benchmark mismatch or regression beyond "
            f"{args.max_regression:.0%} detected",
            file=sys.stderr,
        )
        return 1
    print("no regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
