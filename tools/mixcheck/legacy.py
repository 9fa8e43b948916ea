"""The three original lint-script rules, ported as mixcheck checkers.

  raw-assert      no raw assert( / #include <cassert>; contracts
                  (MIX_EXPECT / MIX_AUDIT) are the only sanctioned
                  invariant checks -- assert() vanishes under NDEBUG
                  and its message carries no context.
  include-guard   src/ headers guard with MIXTLB_<DIR>_<NAME>_HH so
                  guards never collide as directories grow.
  banned-random   no std::rand/srand/rand(): sweeps must be seeded and
                  deterministic (--jobs 1 == --jobs N); use
                  common/random.hh.
"""

import re
from pathlib import Path

RAW_ASSERT = re.compile(r"(?<![\w_])assert\s*\(")
STATIC_ASSERT = re.compile(r"static_assert\s*\(")
CASSERT = re.compile(r'#\s*include\s*[<"](cassert|assert\.h)[>"]')
BANNED_RANDOM = re.compile(r"(?<![\w_.:])(std::)?s?rand\s*\(")
GUARD = re.compile(r"#ifndef\s+(\S+)")


def expected_guard(rel):
    parts = Path(rel).parts
    assert parts[0] == "src"
    stem = Path(parts[-1]).stem
    pieces = list(parts[1:-1]) + [stem]
    return "MIXTLB_" + "_".join(p.upper().replace("-", "_")
                                for p in pieces) + "_HH"


def check(source):
    findings = []
    for lineno, line in enumerate(source.stripped_lines, 1):
        for match in RAW_ASSERT.finditer(line):
            before = line[: match.start() + len("assert")]
            if STATIC_ASSERT.search(before + "("):
                continue
            findings.append(source.finding(
                lineno, "raw-assert",
                "use MIX_EXPECT/MIX_AUDIT, not assert()"))
        if CASSERT.search(line):
            findings.append(source.finding(
                lineno, "raw-assert",
                "do not include <cassert>; use common/contracts.hh"))
        if BANNED_RANDOM.search(line):
            findings.append(source.finding(
                lineno, "banned-random",
                "rand()/srand() breaks sweep determinism; use "
                "common/random.hh"))

    if source.rel.endswith(".hh") and source.rel.startswith("src/"):
        match = GUARD.search(source.stripped)
        want = expected_guard(source.rel)
        if not match:
            findings.append(source.finding(
                1, "include-guard", f"missing include guard {want}"))
        elif match.group(1) != want:
            findings.append(source.finding(
                1, "include-guard",
                f"guard {match.group(1)} should be {want}"))
    return findings
