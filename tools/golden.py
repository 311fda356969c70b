#!/usr/bin/env python3
"""Checks or refreshes the golden stdout of the deterministic binaries.

The paper-figure, ablation and fault benches and the examples print only
model outputs, so each one's stdout is a pure function of the source
tree. tests/golden/<binary>.txt holds the expected stdout of <binary>.

  tools/golden.py check   --build BUILD [--workdir DIR] [BINARY ...]
  tools/golden.py refresh --build BUILD [BINARY ...]

`check` runs each binary and compares its stdout with its golden file
byte for byte, printing a unified diff on mismatch; it exits 1 if any
binary differs or exits nonzero. `refresh` rewrites the golden files from
the binaries' stdout. With no BINARY, every file in tests/golden/ is
covered. Binaries are found in BUILD/bench and BUILD/examples. Each runs
in --workdir (default: a fresh temporary directory), because the trace
and metrics reporters write their JSON to the current directory. The
environment passes through, so VECYCLE_AUDIT=1 VECYCLE_TRACE=1 check the
instrumented runs against the same files.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                          "tests", "golden")


def find_binary(build, name):
    for subdir in ("bench", "examples"):
        path = os.path.abspath(os.path.join(build, subdir, name))
        if os.access(path, os.X_OK):
            return path
    sys.exit(f"golden: no binary {name} under {build}/bench or "
             f"{build}/examples")


def check(name, out):
    path = os.path.join(GOLDEN_DIR, name + ".txt")
    with open(path, "rb") as f:
        expected = f.read()
    if out == expected:
        print(f"golden: {name} matches")
        return True
    print(f"golden: {name} differs from tests/golden/{name}.txt")
    sys.stdout.writelines(difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(keepends=True),
        out.decode("utf-8", "replace").splitlines(keepends=True),
        fromfile=f"tests/golden/{name}.txt", tofile=f"{name} stdout"))
    return False


def refresh(name, out):
    with open(os.path.join(GOLDEN_DIR, name + ".txt"), "wb") as f:
        f.write(out)
    print(f"golden: wrote tests/golden/{name}.txt")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("check", "refresh"))
    parser.add_argument("--build", required=True,
                        help="CMake build tree holding bench/ and examples/")
    parser.add_argument("--workdir",
                        help="directory to run the binaries in")
    parser.add_argument("binaries", nargs="*", metavar="BINARY")
    args = parser.parse_intermixed_args()

    names = args.binaries or sorted(
        f[:-len(".txt")] for f in os.listdir(GOLDEN_DIR) if f.endswith(".txt"))
    action = check if args.mode == "check" else refresh
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        workdir = args.workdir or scratch
        os.makedirs(workdir, exist_ok=True)
        for name in names:
            result = subprocess.run([find_binary(args.build, name)],
                                    cwd=workdir, capture_output=True,
                                    check=False)
            if result.returncode != 0:
                # A failed run never matches, nor overwrites a golden.
                print(f"golden: {name} exited {result.returncode}")
                sys.stdout.write(result.stderr.decode("utf-8", "replace"))
                ok = False
            elif not action(name, result.stdout):
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
