#!/usr/bin/env python3
"""Fixture tests for tools/bench_compare.py.

Runs the comparer against small synthetic reports and asserts the exit
code for every combination the CI gate relies on: matched reports pass,
regressions fail, rows present on only one side fail loudly, --allow-new
exempts exactly the declared names (and itself fails when a declared
name never shows up), and tx_bytes must match the baseline exactly.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
COMPARE = REPO / "tools" / "bench_compare.py"


def report(path, rows):
    """Rows are (name, ns_per_op) or (name, ns_per_op, tx_bytes)."""
    benchmarks = []
    for name, ns, *tx in rows:
        row = {"name": name, "iters": 100, "ns_per_op": ns,
               "ops_per_sec": 1e9 / ns}
        if tx:
            row["tx_bytes"] = tx[0]
        benchmarks.append(row)
    payload = {"schema": "vecycle.bench_perf.v1", "benchmarks": benchmarks}
    path.write_text(json.dumps(payload))
    return path


def run(*argv):
    proc = subprocess.run(
        [sys.executable, str(COMPARE), *map(str, argv)],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc


def main():
    failures = []

    def check(label, proc, want_rc, want_text=None):
        ok = proc.returncode == want_rc and (
            want_text is None or want_text in proc.stdout + proc.stderr
        )
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)
            print(f"  rc={proc.returncode} (wanted {want_rc})")
            print("  stdout:", proc.stdout.strip())
            print("  stderr:", proc.stderr.strip())

    with tempfile.TemporaryDirectory() as raw:
        tmp = pathlib.Path(raw)
        base = report(tmp / "base.json", [("alpha", 100.0), ("beta", 200.0)])
        same = report(tmp / "same.json", [("alpha", 101.0), ("beta", 199.0)])
        slow = report(tmp / "slow.json", [("alpha", 150.0), ("beta", 200.0)])
        extra = report(
            tmp / "extra.json",
            [("alpha", 100.0), ("beta", 200.0), ("gamma", 50.0)],
        )
        short = report(tmp / "short.json", [("alpha", 100.0)])

        check("validate only", run(same), 0)
        check("matched reports pass", run(same, "--baseline", base), 0)
        check(
            "regression beyond threshold fails",
            run(slow, "--baseline", base),
            1,
        )
        check(
            "undeclared new row fails",
            run(extra, "--baseline", base),
            1,
            "missing from baseline",
        )
        check(
            "declared new row passes",
            run(extra, "--baseline", base, "--allow-new", "gamma"),
            0,
            "(allowed)",
        )
        check(
            "row dropped from current fails",
            run(short, "--baseline", base),
            1,
            "missing from current",
        )
        check(
            "allow-new name that never appears fails",
            run(same, "--baseline", base, "--allow-new", "gamma"),
            1,
            "listed in --allow-new but not in current",
        )
        check(
            "allow-new does not mask a dropped baseline row",
            run(short, "--baseline", base, "--allow-new", "beta"),
            1,
            "missing from current",
        )

        # Wire bytes: exact equality whenever the baseline row has them.
        wire = report(tmp / "wire.json", [("alpha", 100.0, 4096),
                                          ("beta", 200.0)])
        check(
            "equal tx_bytes pass",
            run(report(tmp / "wire_same.json",
                       [("alpha", 120.0, 4096), ("beta", 200.0)]),
                "--baseline", wire),
            0,
        )
        check(
            "tx_bytes one byte more fails",
            run(report(tmp / "wire_up.json",
                       [("alpha", 100.0, 4097), ("beta", 200.0)]),
                "--baseline", wire),
            1,
            "tx_bytes 4096 -> 4097",
        )
        check(
            "tx_bytes one byte less fails",
            run(report(tmp / "wire_down.json",
                       [("alpha", 100.0, 4095), ("beta", 200.0)]),
                "--baseline", wire),
            1,
            "tx_bytes 4096 -> 4095",
        )
        check(
            "tx_bytes dropped from current fails",
            run(report(tmp / "wire_gone.json",
                       [("alpha", 100.0), ("beta", 200.0)]),
                "--baseline", wire),
            1,
            "tx_bytes 4096 -> missing",
        )
        check(
            "rows without tx_bytes on either side pass",
            run(same, "--baseline", base),
            0,
        )

    if failures:
        print(f"{len(failures)} fixture check(s) failed", file=sys.stderr)
        return 1
    print("all bench_compare fixture checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
