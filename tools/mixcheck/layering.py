"""layering checker.

Enforces the module DAG
    common -> {mem, pt, cache, perf} -> {tlb, os, virt} -> workload
           -> sim -> bench/tests/examples
by include-graph extraction: a module may include same-rank or
lower-rank modules only, and the file-level include graph must stay
acyclic. Upward includes are how layering rots -- one "just this once"
include of sim/ from tlb/ makes every future test drag the whole
simulator in.
"""

import re
from pathlib import Path

INCLUDE_RE = re.compile(r'^[ \t]*(#)\s*include\s*"([^"]+)"', re.M)

RANKS = {
    "common": 0,
    "mem": 1, "pt": 1, "cache": 1, "perf": 1,
    "tlb": 2, "os": 2, "virt": 2,
    "workload": 3,
    "sim": 4,
    "bench": 5, "tests": 5, "examples": 5, "tools": 5,
}


def module_of(rel):
    parts = Path(rel).parts
    if parts[0] == "src" and len(parts) > 1:
        return parts[1]
    return parts[0]


def _resolve(source, include):
    """Resolve an include string to a repo-relative path."""
    if "/" in include:
        candidate = Path("src") / include
        if (source.root / candidate).is_file():
            return str(candidate)
        candidate = Path(source.rel).parent / include
        if (source.root / candidate).is_file():
            return str(candidate)
        return None
    candidate = Path(source.rel).parent / include
    if (source.root / candidate).is_file():
        return str(candidate)
    return None


def collect_includes(source):
    """[(line, include_text, resolved_rel_or_None)]

    Matched against the raw text: strip_code() blanks string-literal
    contents, which would erase the include path. A match whose `#` did
    not survive stripping sits inside a comment and is discarded
    (strip_code is width-preserving, so offsets line up)."""
    out = []
    for match in INCLUDE_RE.finditer(source.text):
        if source.stripped[match.start(1)] != "#":
            continue
        line = source.text.count("\n", 0, match.start()) + 1
        out.append((line, match.group(2), _resolve(source, match.group(2))))
    return out


def check(sources):
    """Run over the whole file set; returns findings plus the include
    graph used for cycle detection."""
    findings = []
    graph = {}
    by_rel = {s.rel: s for s in sources}
    for source in sources:
        includer_mod = module_of(source.rel)
        includer_rank = RANKS.get(includer_mod)
        edges = []
        for line, text, resolved in collect_includes(source):
            if resolved is None:
                continue
            if resolved in by_rel:
                edges.append(resolved)
            target_mod = module_of(resolved)
            target_rank = RANKS.get(target_mod)
            if includer_rank is None or target_rank is None:
                continue
            if target_rank > includer_rank:
                findings.append(source.finding(
                    line, "layering",
                    f"upward include: {includer_mod}/ (rank "
                    f"{includer_rank}) must not include '{text}' from "
                    f"{target_mod}/ (rank {target_rank}); invert the "
                    "dependency or move the shared type down"))
        graph[source.rel] = edges

    # File-level cycle detection (DFS, white/grey/black).
    state = {}
    stack = []

    def visit(node):
        state[node] = 1
        stack.append(node)
        for nxt in graph.get(node, ()):
            mark = state.get(nxt, 0)
            if mark == 1:
                cycle = stack[stack.index(nxt):] + [nxt]
                src = by_rel[node]
                findings.append(src.finding(
                    1, "layering",
                    "include cycle: " + " -> ".join(cycle)))
            elif mark == 0:
                visit(nxt)
        stack.pop()
        state[node] = 2

    for rel in sorted(graph):
        if state.get(rel, 0) == 0:
            visit(rel)
    return findings
