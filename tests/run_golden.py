#!/usr/bin/env python3
"""Golden check for a figure's sweep (ctests: fig14_golden, fig16_golden,
fig18_golden).

Runs a fixed-seed mini-grid of one bench binary once per worker count
and asserts two things about the emitted JSON reports, ignoring the
recorded "jobs" field:

  - every worker count produces the same report (the sweep runner is
    deterministic across threads);
  - the first worker count's report equals the committed golden report
    (no change moved a modeled number).

The hot path carries several bit-exactness fast paths (L0 MRU filter,
SoA tag lanes, fused batch translation); any of them leaking into
modeled results shows up here as a mismatch, named by the first
differing grid point.

Usage: run_golden.py --golden <report.json> [--jobs 1,8]
                     <bench binary> [grid flags...]

The grid flags are passed to the binary as given, followed by
`--no-timing --jobs N --json <tmp>`. A golden is the `--no-timing`
report of the same flags with its "jobs" line removed.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def fail(name: str, message: str) -> None:
    print(f"{name}: FAIL: {message}")
    sys.exit(1)


def first_difference(expected, actual, path=""):
    """Dotted path of the first value that differs, or None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{path}.{key}"
            diff = first_difference(expected[key], actual[key],
                                    f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (a, b) in enumerate(zip(expected, actual)):
            diff = first_difference(a, b, f"{path}[{i}]")
            if diff:
                return diff
        if len(expected) != len(actual):
            return f"{path} (length {len(expected)} vs {len(actual)})"
        return None
    return None if expected == actual else path


def describe_golden_mismatch(golden: dict, report: dict) -> str:
    """Name the first grid point whose record differs from the golden."""
    expected = golden.get("results", [])
    actual = report.get("results", [])
    for i, (want, got) in enumerate(zip(expected, actual)):
        diff = first_difference(want, got)
        if diff:
            label = f"{want.get('section')}/{want.get('label')}"
            return (f"point {i} ({label}) differs at {diff.lstrip('.')}: "
                    f"golden {value_at(want, diff)!r}, "
                    f"got {value_at(got, diff)!r}")
    if len(expected) != len(actual):
        return (f"grid has {len(actual)} points, golden has "
                f"{len(expected)}")
    return f"report differs at {first_difference(golden, report)}"


def value_at(record, path: str):
    """Best-effort lookup of a dotted/indexed path inside a record."""
    value = record
    for part in path.lstrip(".").replace("[", ".[").split("."):
        if not part:
            continue
        try:
            if part.startswith("["):
                value = value[int(part[1:part.index("]")])]
            else:
                value = value[part]
        except (KeyError, IndexError, TypeError, ValueError):
            return "<missing>"
    return value


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Compare a bench's mini-grid report to a golden.")
    parser.add_argument("--golden", required=True,
                        help="committed --no-timing report")
    parser.add_argument("--jobs", default="1,8",
                        help="comma-separated worker counts")
    parser.add_argument("binary")
    parser.add_argument("flags", nargs=argparse.REMAINDER,
                        help="grid flags passed to the binary")
    args = parser.parse_args()
    name = os.path.splitext(os.path.basename(args.golden))[0]
    jobs = args.jobs.split(",")

    reports = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for n in jobs:
            path = os.path.join(tmpdir, f"report_j{n}.json")
            cmd = [args.binary, *args.flags, "--no-timing", "--jobs", n,
                   "--json", path]
            result = subprocess.run(
                cmd, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True
            )
            if result.returncode != 0:
                fail(
                    name,
                    f"--jobs {n} exited {result.returncode}:\n"
                    f"{result.stderr}"
                )
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
            report.pop("jobs", None)
            reports[n] = report

    first = reports[jobs[0]]
    for n in jobs[1:]:
        if reports[n] != first:
            fail(
                name,
                f"report with --jobs {n} differs from --jobs {jobs[0]} "
                "(beyond the 'jobs' field)"
            )

    with open(args.golden, encoding="utf-8") as handle:
        golden = json.load(handle)
    golden.pop("jobs", None)
    if first != golden:
        fail(
            name,
            f"--jobs {jobs[0]} report differs from {args.golden}: "
            f"{describe_golden_mismatch(golden, first)}"
        )
    print(
        f"{name}: OK: {len(jobs)} worker counts "
        f"({', '.join(jobs)}) produced identical reports, equal to "
        "the committed golden"
    )


if __name__ == "__main__":
    main()
