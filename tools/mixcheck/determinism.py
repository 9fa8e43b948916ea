"""determinism checker.

The sweep contract is `--jobs 1 == --jobs N` and byte-identical JSON
reports across runs. Hash-order iteration that feeds stats
registration, JSON/audit output, or fill/invalidate paths breaks that
silently (the PR 2 audit reports originally depended on
std::unordered_set layout). Also bans wall-clock time(),
std::random_device, and pointer-keyed ordered containers (pointer
order varies run to run).
"""

import re

# A range-for body containing any of these flows iteration order into
# observable output or simulated state.
SINKS = ("MIX_AUDIT_CHECK", "addScalar", "addCounter", "addFormula",
         ".fail(", "report.fail", "fill(", "->fill", "invalidate",
         "dump(", "writeFile", "Json", "json")

TIME_RE = re.compile(r"(?<![\w.:>])time\s*\(")
RANDOM_DEVICE_RE = re.compile(r"std\s*::\s*random_device")
PTR_KEYED_RE = re.compile(r"std::(?:map|set|multimap|multiset)\s*<"
                          r"\s*(?:const\s+)?[\w:]+\s*\*")


def _body_span(tokens, close_paren):
    """Token range of the loop body following the range-for's `)`."""
    i = close_paren + 1
    if i >= len(tokens):
        return i, i
    if tokens[i].text == "{":
        depth = 0
        j = i
        while j < len(tokens):
            if tokens[j].text == "{":
                depth += 1
            elif tokens[j].text == "}":
                depth -= 1
                if depth == 0:
                    return i, j
            j += 1
        return i, len(tokens) - 1
    j = i
    while j < len(tokens) and tokens[j].text != ";":
        j += 1
    return i, j


def check(source, tables):
    findings = []
    tokens = source.tokens
    text = source.stripped

    # Per-file unordered declarations (locals) on top of the repo table.
    unordered = set(tables.unordered)

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind == "id" and tok.text == "for" \
                and i + 1 < len(tokens) and tokens[i + 1].text == "(":
            # Find the `:` of a range-for at paren depth 1, then the
            # closing paren.
            depth = 0
            colon = close = None
            j = i + 1
            while j < len(tokens):
                if tokens[j].text == "(":
                    depth += 1
                elif tokens[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        close = j
                        break
                elif tokens[j].text == ":" and depth == 1 and colon is None:
                    prev = tokens[j - 1].text
                    if prev != ":" and (j + 1 >= len(tokens)
                                        or tokens[j + 1].text != ":"):
                        colon = j
                j += 1
            if colon is not None and close is not None:
                range_ids = [t for t in tokens[colon + 1:close]
                             if t.kind == "id"]
                range_name = range_ids[-1].text if range_ids else None
                if range_name in unordered:
                    lo, hi = _body_span(tokens, close)
                    body = " ".join(t.text for t in tokens[lo:hi + 1])
                    sink = None
                    for s in SINKS:
                        name = s.strip(".->(")
                        if re.search(r"\b" + re.escape(name), body):
                            sink = name
                            break
                    if sink:
                        findings.append(source.finding(
                            tok.line, "determinism",
                            f"iteration over unordered container "
                            f"'{range_name}' flows into '{sink}': "
                            "hash order is not deterministic across "
                            "libstdc++ versions; iterate a sorted "
                            "copy of the keys"))
            i = close if close is not None else i + 1
            continue
        i += 1

    for lineno, line in enumerate(source.stripped_lines, 1):
        if TIME_RE.search(line):
            findings.append(source.finding(
                lineno, "determinism",
                "time() breaks run-to-run reproducibility; derive "
                "timestamps from the seed or pass them in"))
        if RANDOM_DEVICE_RE.search(line):
            findings.append(source.finding(
                lineno, "determinism",
                "std::random_device is nondeterministic; use the "
                "seeded common/random.hh Rng"))
        if PTR_KEYED_RE.search(line):
            findings.append(source.finding(
                lineno, "determinism",
                "pointer-keyed ordered container: pointer order "
                "varies run to run; key on a stable id instead"))
    return findings
