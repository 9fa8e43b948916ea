"""simd checker.

The probe scans in src/common/simd.hh are plain loops: the explicit
AVX2/SSE2/NEON kernels were measured, bought nothing on the gated
host-throughput workloads, and were removed (DESIGN.md section 13). A
raw `_mm256_cmpeq_epi64` anywhere in the tree would bring back an
unmeasured fast path that breaks non-x86 builds and whose first-index
semantics are unreviewed. Flag intrinsic includes and raw intrinsic
calls in every scanned file; `// mixcheck: allow(simd)` with a written
reason is the escape hatch.
"""

import re

RULE = "simd"

# Vendor intrinsic headers (x86 per-ISA headers and the umbrella ones,
# plus ARM NEON/SVE). <intrin.h> of MSVC is intentionally included.
INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"]('
    r'[a-z0-9]*intrin\.h'
    r'|arm_neon\.h|arm_sve\.h|arm_acle\.h'
    r')[>"]')

# Raw intrinsic calls: the _mm/_mm256/_mm512 x86 families and the NEON
# v<op>q_<type> / vld1q_/vst1q_ families (call syntax required so a
# comment-stripped identifier in prose does not fire).
INTRINSIC_RE = re.compile(
    r"\b(_mm(?:256|512)?_[a-z0-9_]+"
    r"|v(?:ld|st)\d[a-z0-9_]*q?_[a-z0-9_]+"
    r"|v[a-z]+q?_[usfp](?:8|16|32|64)(?:x\d+)?"
    r")\s*\(")


def check(source):
    """SIMD intrinsics anywhere in the tree."""
    out = []
    for lineno, line in enumerate(source.stripped_lines, 1):
        match = INCLUDE_RE.search(line)
        if match:
            out.append(source.finding(
                lineno, RULE,
                f"intrinsic header <{match.group(1)}>; use the "
                "simd:: probe scans"))
            continue
        match = INTRINSIC_RE.search(line)
        if match:
            out.append(source.finding(
                lineno, RULE,
                f"raw intrinsic {match.group(1)}(); use the simd:: "
                "probe scans"))
    return out
