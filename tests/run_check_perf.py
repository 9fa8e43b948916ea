#!/usr/bin/env python3
"""Local check of the perf-smoke validator (ctest: check_perf).

Runs the multiprogramming sweep without timing blocks and asserts that
tools/check_perf.py accepts its report, then that the validator rejects
(exit 1, "unknown benchmark kind") a report of no known kind: one
without a "benchmark" field and one of the retired "hotpath" kind.

Usage: run_check_perf.py <bench_multiprog binary>
"""

import json
import os
import subprocess
import sys
import tempfile

CHECK_PERF = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "check_perf.py")

UNKNOWN_KINDS = [
    {"results": []},
    {"benchmark": "hotpath", "designs": []},
]


def fail(message: str) -> None:
    print(f"check_perf test: FAIL: {message}")
    sys.exit(1)


def validate(path: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, CHECK_PERF, path],
                          capture_output=True, text=True)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: run_check_perf.py <bench_multiprog binary>")

    with tempfile.TemporaryDirectory() as tmpdir:
        report = os.path.join(tmpdir, "multiprog.json")
        run = subprocess.run(
            [sys.argv[1], "--jobs", "2", "--no-timing", "--json", report],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if run.returncode != 0:
            fail(f"bench_multiprog exited {run.returncode}:\n{run.stderr}")
        result = validate(report)
        print(result.stdout, end="")
        if result.returncode != 0:
            fail(f"check_perf.py rejected the multiprog report "
                 f"(exit {result.returncode})")

        for i, doc in enumerate(UNKNOWN_KINDS):
            path = os.path.join(tmpdir, f"unknown{i}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            result = validate(path)
            if result.returncode != 1 or \
                    "unknown benchmark kind" not in result.stdout:
                fail(f"check_perf.py on {doc} exited {result.returncode} "
                     f"with {result.stdout.strip()!r}, expected exit 1 "
                     "and 'unknown benchmark kind'")

    print(f"check_perf test: OK: multiprog report accepted, "
          f"{len(UNKNOWN_KINDS)} unknown-kind reports rejected")


if __name__ == "__main__":
    main()
