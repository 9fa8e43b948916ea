"""hot-path-alloc checker.

Functions annotated `// mixcheck: hot` must stay allocation-free: PR 4
moved the whole translate path off the heap, and PR 5 found a
per-lookup std::vector that crept back into SkewTlb::lookup anyway.
The checker walks the annotated function's body -- and, transitively,
every same-file / companion-header function it calls -- and flags
`new`, make_unique/make_shared, push_back/emplace on anything not
declared as an InlineVec (or other fixed-capacity type), and local
construction of std::vector / std::list / std::deque / std::string.

std::vector::insert is not flagged. The TLB sets themselves no longer
use it: every set-associative design keeps its sets in one flat
TagLaneStore (tlb/tag_lane.hh) sized at construction, whose fills shift
tags within a set and reuse the evicted way's payload slot.

The hot-path-scan rule (PR 9) additionally flags linear `std::find_if`
entry scans inside hot functions: the repo's probe loops moved to
TagLaneStore's packed tag lanes, so a find_if over full entry structs on
the hot path is either a regression or an unconverted design. The
sanctioned scans — TagLaneSet's own lanes, or a deliberate reference
fallback — are annotated `// mixcheck: soa-scan` within the 3 lines
above the scan, which exempts them.
"""

import re

KEYWORDS = {"if", "while", "for", "switch", "return", "sizeof", "alignof",
            "catch", "do", "else", "case", "default", "new", "delete",
            "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
            "decltype", "noexcept", "throw", "alignas", "assert",
            "static_assert", "defined"}

BANNED_CALLS = {"make_unique", "make_shared", "malloc", "calloc",
                "realloc", "strdup", "to_string"}
GROWTH_CALLS = {"push_back", "emplace_back", "push_front", "emplace_front"}
HEAP_CONTAINERS = {"vector", "list", "deque", "string", "ostringstream",
                   "stringstream", "basic_string"}
SAFE_FAMILIES = {"InlineVec", "std::array", "std::span"}


def find_definitions(source):
    """Map function simple-name -> list of (name_token, body_lo, body_hi)
    using brace matching after a parameter list."""
    defs = {}
    tokens = source.tokens
    i = 0
    n = len(tokens)
    while i < n - 1:
        tok = tokens[i]
        if tok.kind != "id" or tok.text in KEYWORDS \
                or tokens[i + 1].text != "(":
            i += 1
            continue
        # Match the parameter list.
        depth = 0
        j = i + 1
        while j < n:
            if tokens[j].text == "(":
                depth += 1
            elif tokens[j].text == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= n:
            break
        k = j + 1
        # Skip cv-qualifiers / specifiers / ctor init lists.
        while k < n:
            text = tokens[k].text
            if text in ("const", "noexcept", "override", "final",
                        "volatile", "&", "&&"):
                k += 1
            elif text == ":":
                # Constructor initializer list: scan to the body brace.
                depth = 0
                while k < n:
                    if tokens[k].text in ("(", "{") and depth > 0:
                        pass
                    if tokens[k].text == "(":
                        depth += 1
                    elif tokens[k].text == ")":
                        depth -= 1
                    elif tokens[k].text == "{" and depth == 0:
                        break
                    k += 1
            else:
                break
        if k < n and tokens[k].text == "{":
            depth = 0
            m = k
            while m < n:
                if tokens[m].text == "{":
                    depth += 1
                elif tokens[m].text == "}":
                    depth -= 1
                    if depth == 0:
                        break
                m += 1
            defs.setdefault(tok.text, []).append((tok, k, m))
            i = k + 1
            continue
        i = j + 1
    return defs


def _receiver_name(tokens, dot_index):
    """Identifier naming the receiver of `recv.push_back(...)`."""
    i = dot_index - 1
    if i >= 0 and tokens[i].text in (")", "]"):
        depth = 0
        while i >= 0:
            if tokens[i].text in (")", "]"):
                depth += 1
            elif tokens[i].text in ("(", "["):
                depth -= 1
                if depth == 0:
                    i -= 1
                    break
            i -= 1
    if i >= 0 and tokens[i].kind == "id":
        return tokens[i].text
    return None


def _scan_body(source, tables, defs, lo, hi, func_name, origin,
               findings, visited, depth):
    tokens = source.tokens
    template = source.template_brackets
    i = lo
    while i <= hi:
        tok = tokens[i]
        if tok.kind == "id":
            if tok.text == "new":
                findings.append(source.finding(
                    tok.line, "hot-path-alloc",
                    f"'new' inside hot function {origin} "
                    f"(via {func_name})" if func_name != origin else
                    f"'new' inside hot function {origin}"))
            elif tok.text in BANNED_CALLS:
                findings.append(source.finding(
                    tok.line, "hot-path-alloc",
                    f"heap-allocating call '{tok.text}' inside hot "
                    f"function {origin}"))
            elif tok.text in GROWTH_CALLS and i > 0 \
                    and tokens[i - 1].text in (".", "->"):
                recv = _receiver_name(tokens, i - 1)
                families = tables.containers.get(recv, set()) if recv \
                    else set()
                if not families or not families <= SAFE_FAMILIES:
                    shown = "/".join(sorted(families)) or "unknown type"
                    findings.append(source.finding(
                        tok.line, "hot-path-alloc",
                        f"{tok.text} on '{recv}' ({shown}) inside hot "
                        f"function {origin}: only fixed-capacity "
                        "containers (InlineVec) may grow on the hot "
                        "path"))
            elif tok.text == "find_if" and i + 1 <= hi \
                    and tokens[i + 1].text == "(":
                sanctioned = any(
                    line in source.soa_scan_lines
                    for line in range(tok.line - 3, tok.line + 1))
                if not sanctioned:
                    findings.append(source.finding(
                        tok.line, "hot-path-scan",
                        f"linear find_if entry scan inside hot "
                        f"function {origin}: probe through a "
                        "TagLaneSet tag lane, or annotate a "
                        "deliberate reference scan with "
                        "'// mixcheck: soa-scan'"))
            elif tok.text in HEAP_CONTAINERS and i >= 2 \
                    and tokens[i - 1].text == "::" \
                    and tokens[i - 2].text == "std":
                findings.append(source.finding(
                    tok.line, "hot-path-alloc",
                    f"std::{tok.text} constructed/named inside hot "
                    f"function {origin}: use InlineVec or "
                    "preallocated members"))
            elif i + 1 <= hi and tokens[i + 1].text == "(" \
                    and tok.text in defs and depth < 4:
                key = (tok.text, origin)
                if key not in visited and tok.text not in KEYWORDS:
                    visited.add(key)
                    for _, blo, bhi in defs[tok.text]:
                        if blo <= i <= bhi:
                            continue  # recursion into self span
                        _scan_body(source, tables, defs, blo + 1, bhi - 1,
                                   tok.text, origin, findings, visited,
                                   depth + 1)
        i += 1


def check(source, tables, companion=None):
    """Check one file. `companion` is the same-stem header whose inline
    methods count as local callees of a .cc file's hot functions."""
    if not source.hot_lines:
        return []
    findings = []
    defs = find_definitions(source)
    comp_defs = find_definitions(companion) if companion else {}

    for hot_line in source.hot_lines:
        target = None
        for name, instances in defs.items():
            for name_tok, blo, bhi in instances:
                if hot_line < name_tok.line <= hot_line + 6:
                    if target is None or name_tok.line < target[1].line:
                        target = (name, name_tok, blo, bhi)
        if target is None:
            findings.append(source.finding(
                hot_line, "hot-path-alloc",
                "mixcheck: hot annotation is not followed by a "
                "function definition"))
            continue
        name, _, blo, bhi = target
        visited = set()
        _scan_body(source, tables, defs, blo + 1, bhi - 1, name, name,
                   findings, visited, 0)
        # Follow calls into the companion header's inline definitions.
        if companion is not None:
            body_calls = {t.text for idx, t in
                          enumerate(source.tokens[blo + 1:bhi])
                          if t.kind == "id"
                          and blo + 2 + idx < len(source.tokens)
                          and source.tokens[blo + 2 + idx].text == "("}
            for callee in sorted(body_calls & set(comp_defs)):
                for _, clo, chi in comp_defs[callee]:
                    _scan_body(companion, tables, comp_defs, clo + 1,
                               chi - 1, callee, name, findings, set(), 1)
    return findings
