"""mixcheck command-line driver.

Usage: python3 tools/mixcheck [--root DIR] [--json FILE]
                              [--baseline FILE] [--write-baseline FILE]
                              [--version] [--require-version X.Y.Z]

Exit codes: 0 clean, 1 findings, 2 usage/setup error.
"""

import argparse
import json
import sys
from pathlib import Path

import determinism
import hotpath
import layering
import legacy
import shift
import simdcheck
from source import (RepoTables, SourceFile, apply_suppressions,
                    suppression_findings)

VERSION = "1.2.0"

CXX_EXTENSIONS = {".hh", ".cc", ".cpp", ".h"}
SCAN_DIRS = ("src", "bench", "examples", "tests", "tools")
STRICT_DIR = "src"  # shift/determinism/hot-path scope
EXCLUDE_PART = "mixcheck_fixtures"


def collect(root):
    files = []
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            # Exclude by root-relative parts so a fixture tree can
            # itself be scanned with --root.
            if path.suffix in CXX_EXTENSIONS and path.is_file() \
                    and EXCLUDE_PART not in path.relative_to(root).parts:
                files.append(path)
    return files


def run(root):
    """Run every checker; returns (findings, suppressed, files_checked)."""
    paths = collect(root)
    sources = [SourceFile(p, root) for p in paths]
    by_rel = {s.rel: s for s in sources}
    src_sources = [s for s in sources if s.rel.startswith(STRICT_DIR + "/")]

    tables = RepoTables()
    for source in src_sources:
        tables.ingest(source)
    tables.finalize()

    raw = []
    for source in src_sources:
        raw.extend(shift.check(source, tables))
        raw.extend(determinism.check(source, tables))
        companion = None
        if source.rel.endswith(".cc"):
            companion = by_rel.get(source.rel[:-3] + ".hh")
        raw.extend(hotpath.check(source, tables, companion))
    raw.extend(layering.check(sources))
    for source in sources:
        raw.extend(legacy.check(source))
        raw.extend(simdcheck.check(source))

    kept, suppressed = [], []
    for source in sources:
        mine = [f for f in raw if f.file == source.rel]
        file_kept, file_supp = apply_suppressions(source, mine)
        kept.extend(file_kept)
        suppressed.extend(file_supp)
        kept.extend(suppression_findings(source))
    # Findings in files outside the scanned set (never happens today,
    # but don't silently drop them if a checker grows).
    rels = set(by_rel)
    kept.extend(f for f in raw if f.file not in rels)

    kept = sorted(set(kept), key=lambda f: (f.file, f.line, f.rule,
                                            f.message))
    suppressed = sorted(set(suppressed),
                        key=lambda f: (f.file, f.line, f.rule))
    return kept, suppressed, len(sources)


def load_baseline(path):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"mixcheck: cannot read baseline {path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    return {(f["file"], f["line"], f["rule"])
            for f in data.get("findings", [])}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mixcheck",
        description="Repo-aware static analysis for the Mix TLB "
                    "simulator (see DESIGN.md section 10).")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above "
                             "this package)")
    parser.add_argument("--json", metavar="FILE",
                        help="write machine-readable findings JSON")
    parser.add_argument("--baseline", metavar="FILE",
                        help="known-findings file; only new findings "
                             "fail the run")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write current findings as the baseline "
                             "and exit 0")
    parser.add_argument("--version", action="store_true",
                        help="print the analyzer version and exit")
    parser.add_argument("--require-version", metavar="X.Y.Z",
                        help="fail unless the analyzer version matches "
                             "(pins CI jobs to the same rule set)")
    args = parser.parse_args(argv)

    if args.version:
        print(VERSION)
        return 0
    if args.require_version and args.require_version != VERSION:
        print(f"mixcheck: version {VERSION} does not match required "
              f"{args.require_version}", file=sys.stderr)
        return 2

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent.parent
    if not root.is_dir():
        print(f"mixcheck: root {root} is not a directory", file=sys.stderr)
        return 2

    findings, suppressed, files_checked = run(root)

    baselined = 0
    if args.baseline:
        known = load_baseline(args.baseline)
        new = [f for f in findings
               if (f.file, f.line, f.rule) not in known]
        baselined = len(findings) - len(new)
        findings = new

    if args.write_baseline:
        payload = {
            "version": VERSION,
            "findings": [f._asdict() for f in findings],
        }
        Path(args.write_baseline).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"mixcheck: wrote {len(findings)} finding(s) to "
              f"{args.write_baseline}")
        return 0

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    for f in suppressed:
        print(f"{f.file}:{f.line}: [{f.rule}] suppressed")

    if args.json:
        payload = {
            "version": VERSION,
            "root": str(root),
            "files_checked": files_checked,
            "findings": [f._asdict() for f in findings],
            "suppressed": [f._asdict() for f in suppressed],
            "baselined": baselined,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n",
                                   encoding="utf-8")

    summary = (f"mixcheck {VERSION}: {files_checked} files, "
               f"{len(findings)} finding(s), {len(suppressed)} "
               f"suppressed, {baselined} baselined")
    print(summary)
    return 1 if findings else 0
