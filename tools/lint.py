#!/usr/bin/env python3
"""Thin compatibility shim over tools/mixcheck.

The three historical lint rules (raw-assert, include-guard,
banned-random) now live in tools/mixcheck/legacy.py alongside the
repo-aware checkers (shift-width, determinism, hot-path-alloc,
hot-path-scan, layering, simd). This wrapper keeps `tools/lint.py [root]`
working for muscle memory and old CI configs; new callers should run
`python3 tools/mixcheck` directly.

Usage: tools/lint.py [root]   (exit 0 clean, 1 with findings)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "mixcheck"))

import cli  # noqa: E402


def main(argv):
    args = ["--root", argv[1]] if len(argv) > 1 else []
    return cli.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
