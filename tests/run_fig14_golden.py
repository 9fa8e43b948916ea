#!/usr/bin/env python3
"""Golden check for the fig14 sweep (ctest: fig14_golden).

Runs the fixed-seed fig14 mini-grid once per worker count and asserts
two things about the emitted JSON reports, ignoring the recorded
"jobs" field:

  - every worker count produces the same report (the sweep runner is
    deterministic across threads);
  - the first worker count's report equals the committed golden report
    tests/golden/fig14_mini.json (no change moved a modeled number).

The hot path carries several bit-exactness fast paths (L0 MRU filter,
SoA tag lanes, fused batch translation); any of them leaking into
modeled results shows up here as a mismatch, named by the first
differing grid point.

Usage: run_fig14_golden.py <fig14_mix_vs_split binary> [jobs...]
"""

import json
import os
import subprocess
import sys
import tempfile

MINI_GRID = [
    "--refs", "4000",
    "--footprint-mb", "192",
    "--footprint-4k-mb", "96",
    "--no-timing",
]

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "fig14_mini.json")


def fail(message: str) -> None:
    print(f"fig14_golden: FAIL: {message}")
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
    if len(sys.argv) < 2:
        fail("usage: run_fig14_golden.py <binary> [jobs...]")
    binary = sys.argv[1]
    jobs = sys.argv[2:] or ["1", "8"]

    reports = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for n in jobs:
            path = os.path.join(tmpdir, f"fig14_j{n}.json")
            cmd = [binary, *MINI_GRID, "--jobs", n, "--json", path]
            result = subprocess.run(
                cmd, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True
            )
            if result.returncode != 0:
                fail(
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
                f"report with --jobs {n} differs from --jobs {jobs[0]} "
                "(beyond the 'jobs' field)"
            )

    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    golden.pop("jobs", None)
    if first != golden:
        fail(
            f"--jobs {jobs[0]} report differs from {GOLDEN}: "
            f"{describe_golden_mismatch(golden, first)}"
        )
    print(
        f"fig14_golden: OK: {len(jobs)} worker counts "
        f"({', '.join(jobs)}) produced identical reports, equal to "
        "the committed golden"
    )


if __name__ == "__main__":
    main()
