#!/usr/bin/env python3
"""lsa_lint: repo-convention linter for the LightSecAgg C++ codebase.

Mechanizes the conventions that code review used to carry by hand. Every
rule is backed by a known-bad fixture under tools/lint/fixtures/ that MUST
trip it (and a known-good twin that must not) — `--selftest` proves each
rule is live, and runs as the `lint_selftest` ctest target.

Rules
-----
  field-no-modulo       src/field/: no `%` reduction outside *_reference
                        kernels. The fast paths are Barrett / Mersenne /
                        Goldilocks folds; a stray `%` is a 20-40x latency
                        regression that still passes every unit test.
                        Escape: `// mod-ok: <reason>` on the site.
  field-no-branch       src/field/: no if/while on a value compared against
                        the modulus, except the canonical conditional-
                        subtract idiom `if (x >= Q) x -= Q;` (compiles to
                        cmov). Data-dependent branches mispredict ~50% on
                        random field elements. Escape: `// branch-ok:`.
  no-thread-detach      src/: no `.detach()`. Every thread in this codebase
                        is joined by an owner (ThreadPool, SocketTransport
                        hub); a detached thread outliving its captures is
                        how the TSan suite turns red.
  atomic-explicit-order std::atomic ops must name a std::memory_order.
                        Defaulted seq_cst hides the author's intent and
                        costs a full fence on every access; the transport
                        planes document their edges explicitly.
  relaxed-justified     every `memory_order_relaxed` site must sit under a
                        `// relaxed: <why this cannot order anything>`
                        comment. A relaxed comment covers its own line and
                        the contiguous non-blank lines that follow it.
  no-raw-alloc          src/transport/, src/coding/: no raw `new X[]` /
                        malloc/calloc/realloc in the hot planes — buffers
                        come from BufferPool, matrices from FlatMatrix
                        arenas, everything else from standard containers.
  memcpy-payload        src/transport/, src/runtime/: a memcpy touching
                        frame payloads (`.bytes(` / `payload` in its args)
                        is a sanctioned single-copy site or a bug. Escape:
                        `// copy-ok: <which sanctioned copy this is>`;
                        fixed-size header peeks (literal size <= 16) pass.
  serial-stage          src/server/aggregation_server.h: a session's step
                        queue may only be mutated from the functions the
                        shard driver runs serially, between steps — a
                        step's ExecPolicy fan-out must never touch it.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import bisect
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

# ---------------------------------------------------------------------------
# findings


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# lexing: blank out comments/strings (preserving offsets and newlines) so
# rules match code only, and keep the comment channel for escape hatches.


def lex(text: str) -> tuple[str, str]:
    """Returns (code, comments), both exactly len(text).

    `code` has comments and string/char literals replaced by spaces;
    `comments` has everything EXCEPT comment bodies replaced by spaces.
    Newlines survive in both so line numbers line up with the original.
    """
    code = []
    comments = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                code.append("  ")
                comments.append("//")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                code.append("  ")
                comments.append("/*")
                i += 2
                continue
            if c == '"':
                state = STRING
                code.append(" ")
                comments.append(" ")
                i += 1
                continue
            if c == "'":
                state = CHAR
                code.append(" ")
                comments.append(" ")
                i += 1
                continue
            code.append(c)
            comments.append(c if c == "\n" else " ")
            i += 1
            continue
        if state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                code.append("\n")
                comments.append("\n")
            else:
                code.append(" ")
                comments.append(c)
            i += 1
            continue
        if state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                code.append("  ")
                comments.append("*/")
                i += 2
                continue
            code.append("\n" if c == "\n" else " ")
            comments.append(c)
            i += 1
            continue
        # STRING / CHAR: skip escapes, keep newlines (unterminated literals
        # never occur in well-formed code; be defensive anyway).
        if c == "\\" and i + 1 < n:
            code.append("  ")
            comments.append("  ")
            i += 2
            continue
        if (state == STRING and c == '"') or (state == CHAR and c == "'"):
            state = NORMAL
        code.append("\n" if c == "\n" else " ")
        comments.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(code), "".join(comments)


def blank_preprocessor(code: str) -> str:
    """Blanks preprocessor directives (and their `\\` continuations) from
    already-lexed code so `#if defined(Q)` never reads as a branch."""
    out = []
    cont = False
    for line in code.split("\n"):
        stripped = line.lstrip()
        if cont or stripped.startswith("#"):
            next_cont = line.rstrip().endswith("\\")
            out.append(" " * len(line))
            cont = next_cont
        else:
            out.append(line)
            cont = False
    return "\n".join(out)


def line_starts_of(text: str) -> list[int]:
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def line_of(pos: int, starts: list[int]) -> int:
    return bisect.bisect_right(starts, pos)  # 1-based


def balanced_args(code: str, open_paren: int) -> str | None:
    """Returns the argument text between the paren at `open_paren` and its
    match, or None if unbalanced (truncated file)."""
    depth = 0
    for j in range(open_paren, len(code)):
        c = code[j]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1 : j]
    return None


def split_top_level(args: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for c in args:
        if c in "([{<":
            # `<` tracking is heuristic (templates vs less-than); the size
            # argument we classify is the LAST part, which a stray `<`
            # never splits.
            depth += 1 if c != "<" else 0
        if c in ")]}>":
            depth -= 1 if c != ">" else 0
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


# ---------------------------------------------------------------------------
# escape-hatch coverage


def tagged_sites(text: str, comments: str, tag: str) -> set[int]:
    """Lines covered by a `// <tag>:` escape comment: the comment's own
    line(s), any continuation `//` lines, plus the first following code
    line. This is the conventional shape — a short justification comment
    immediately above (or trailing on) the site it sanctions."""
    lines = text.split("\n")
    comment_lines = comments.split("\n")
    covered: set[int] = set()
    pending = False
    for idx in range(len(lines)):
        if tag + ":" in comment_lines[idx]:
            covered.add(idx + 1)
            pending = True
            continue
        if pending:
            covered.add(idx + 1)
            if not lines[idx].lstrip().startswith("//"):
                pending = False  # consumed by the sanctioned code line
    return covered


def relaxed_covered(text: str, comments: str) -> set[int]:
    """`// relaxed:` covers its own line and every subsequent contiguous
    non-blank line until the first blank line — wide enough for a block
    comment to sanction the handful of loads/stores it explains."""
    lines = text.split("\n")
    comment_lines = comments.split("\n")
    covered: set[int] = set()
    active = False
    for idx in range(len(lines)):
        if "relaxed:" in comment_lines[idx]:
            active = True
        if lines[idx].strip() == "":
            active = False
        if active:
            covered.add(idx + 1)
    return covered


# ---------------------------------------------------------------------------
# function-scope tracking (textual, good enough for headers in this repo)

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                    "sizeof", "decltype", "alignof", "alignas",
                    "static_assert", "noexcept", "requires", "constexpr"}
LAMBDA_RE = re.compile(r"\[[^\]]*\]\s*\(")
CANDIDATE_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")


def scope_intervals(code: str) -> list[tuple[int, str | None]]:
    """Returns [(pos, scope_name)] breakpoints: the enclosing function name
    (or None for namespace/class scope) for every position >= pos until the
    next breakpoint. Lambdas inherit their enclosing function's name."""
    events: list[tuple[int, str | None]] = [(0, None)]
    stack: list[str | None] = [None]
    seg_start = 0
    for i, c in enumerate(code):
        if c in ";":
            seg_start = i + 1
        elif c == "{":
            buf = code[seg_start:i]
            name = stack[-1]
            if LAMBDA_RE.search(buf):
                pass  # lambda body: inherit
            else:
                m = CANDIDATE_RE.search(buf)
                if m and m.group(1) not in CONTROL_KEYWORDS:
                    name = m.group(1)
            stack.append(name)
            events.append((i, name))
            seg_start = i + 1
        elif c == "}":
            if len(stack) > 1:
                stack.pop()
            events.append((i, stack[-1]))
            seg_start = i + 1
    return events


def scope_at(events: list[tuple[int, str | None]], pos: int) -> str | None:
    idx = bisect.bisect_right(events, (pos, chr(0x10FFFF))) - 1
    return events[max(idx, 0)][1]


# ---------------------------------------------------------------------------
# rules


def rule_field_no_modulo(text, code, comments, relpath) -> list[Finding]:
    if not relpath.startswith("src/field/"):
        return []
    starts = line_starts_of(text)
    ok_lines = tagged_sites(text, comments, "mod-ok")
    events = scope_intervals(code)
    out = []
    for m in re.finditer(r"%", code):
        line = line_of(m.start(), starts)
        if line in ok_lines:
            continue
        scope = scope_at(events, m.start())
        if scope is not None and scope.endswith("_reference"):
            continue
        out.append(Finding(
            "field-no-modulo", relpath, line,
            "generic `%` reduction in a field kernel (use the Barrett/"
            "Mersenne/Goldilocks fold, move it into a *_reference kernel, "
            "or justify with `// mod-ok:`)"))
    return out


IDIOM_RE = re.compile(
    r"if\s*\(\s*([A-Za-z_]\w*)\s*>=\s*(Q|modulus|kModulus)\s*\)"
    r"\s*\1\s*-=\s*\2\s*;")
MODULUS_ID_RE = re.compile(r"\b(Q|modulus|kModulus)\b")


def rule_field_no_branch(text, code, comments, relpath) -> list[Finding]:
    if not relpath.startswith("src/field/"):
        return []
    starts = line_starts_of(text)
    ok_lines = tagged_sites(text, comments, "branch-ok")
    events = scope_intervals(code)
    out = []
    for m in re.finditer(r"\b(if|while)\s*\(", code):
        open_paren = m.end() - 1
        cond = balanced_args(code, open_paren)
        if cond is None or not MODULUS_ID_RE.search(cond):
            continue
        if IDIOM_RE.match(code, m.start()):
            continue  # canonical conditional-subtract, lowered to cmov
        line = line_of(m.start(), starts)
        if line in ok_lines:
            continue
        scope = scope_at(events, m.start())
        if scope is not None and scope.endswith("_reference"):
            continue
        out.append(Finding(
            "field-no-branch", relpath, line,
            "data-dependent branch on a modulus comparison (use mask/"
            "select or the `if (x >= Q) x -= Q;` idiom, or justify with "
            "`// branch-ok:`)"))
    return out


def rule_no_thread_detach(text, code, comments, relpath) -> list[Finding]:
    starts = line_starts_of(text)
    return [
        Finding("no-thread-detach", relpath, line_of(m.start(), starts),
                "`.detach()` — every thread must be joined by an owner "
                "(ThreadPool, transport hub); detached threads outlive "
                "their captures")
        for m in re.finditer(r"\.\s*detach\s*\(", code)
    ]


ATOMIC_OP_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")


def rule_atomic_explicit_order(text, code, comments, relpath) -> list[Finding]:
    starts = line_starts_of(text)
    out = []
    for m in ATOMIC_OP_RE.finditer(code):
        args = balanced_args(code, m.end() - 1)
        if args is None or "memory_order" in args:
            continue
        out.append(Finding(
            "atomic-explicit-order", relpath, line_of(m.start(), starts),
            f"`.{m.group(1)}()` without an explicit std::memory_order "
            "(defaulted seq_cst hides intent; name the edge)"))
    return out


def rule_relaxed_justified(text, code, comments, relpath) -> list[Finding]:
    starts = line_starts_of(text)
    covered = relaxed_covered(text, comments)
    out = []
    for m in re.finditer(r"\bmemory_order_relaxed\b", code):
        line = line_of(m.start(), starts)
        if line not in covered:
            out.append(Finding(
                "relaxed-justified", relpath, line,
                "memory_order_relaxed without a `// relaxed:` comment "
                "explaining why this access orders nothing"))
    return out


RAW_ALLOC_RE = re.compile(
    r"\bnew\s+[\w:<>,\s]*?\[|\b(malloc|calloc|realloc)\s*\(")


def rule_no_raw_alloc(text, code, comments, relpath) -> list[Finding]:
    if not (relpath.startswith("src/transport/")
            or relpath.startswith("src/coding/")):
        return []
    starts = line_starts_of(text)
    return [
        Finding("no-raw-alloc", relpath, line_of(m.start(), starts),
                "raw array/heap allocation in a hot plane (buffers come "
                "from BufferPool, matrices from FlatMatrix arenas)")
        for m in RAW_ALLOC_RE.finditer(code)
    ]


def rule_memcpy_payload(text, code, comments, relpath) -> list[Finding]:
    if not (relpath.startswith("src/transport/")
            or relpath.startswith("src/runtime/")):
        return []
    starts = line_starts_of(text)
    ok_lines = tagged_sites(text, comments, "copy-ok")
    out = []
    for m in re.finditer(r"\bmemcpy\s*\(", code):
        args = balanced_args(code, m.end() - 1)
        if args is None:
            continue
        if ".bytes(" not in args and "payload" not in args:
            continue
        parts = split_top_level(args)
        if len(parts) >= 3:
            size = parts[-1].strip()
            if re.fullmatch(r"\d+", size) and int(size) <= 16:
                continue  # fixed-size header peek
        line = line_of(m.start(), starts)
        if line in ok_lines:
            continue
        out.append(Finding(
            "memcpy-payload", relpath, line,
            "memcpy of frame payload bytes outside the sanctioned single-"
            "copy sites (frames move by BufferRef; justify a new copy "
            "with `// copy-ok:`)"))
    return out


# The shard driver's ownership rule: a session's step queue is only touched
# by the calls the shard task makes serially (enqueue before a drive, pop
# and abandon between steps), never from inside a step, whose ExecPolicy
# fan-out runs on pool lanes. Adding a queue mutator means growing this
# map — deliberately, in the same review.
SERIAL_STAGE_ALLOW: dict[str, set[str]] = {
    "queue_": {"enqueue_round", "enqueue_cycle", "clear_pending", "step"},
    "next_scheduled_cycle_": {"enqueue_scheduled_cycles"},
}

MUTATION_TEMPLATES = [
    r"\b{m}\s*=(?![=])",            # assignment (not ==)
    r"\b{m}\s*(?:\+=|-=)",          # compound update
    r"(?:\+\+|--)\s*{m}\b",         # pre-inc/dec
    r"\b{m}\s*(?:\+\+|--)",         # post-inc/dec
    r"\b{m}\s*\.\s*(?:push_back|push_front|pop_front|pop_back|clear|"
    r"emplace\w*|resize|assign|insert|erase)\s*\(",
]


def rule_serial_stage(text, code, comments, relpath) -> list[Finding]:
    if not relpath.endswith("server/aggregation_server.h"):
        return []
    starts = line_starts_of(text)
    events = scope_intervals(code)
    out = []
    for member, allowed in SERIAL_STAGE_ALLOW.items():
        for template in MUTATION_TEMPLATES:
            for m in re.finditer(template.format(m=member), code):
                scope = scope_at(events, m.start())
                if scope is None:
                    continue  # class-scope declaration / default initializer
                if scope in allowed:
                    continue
                out.append(Finding(
                    "serial-stage", relpath, line_of(m.start(), starts),
                    f"`{member}` mutated in `{scope}()`, which is not in "
                    f"its serial-step allowlist {sorted(allowed)} — only "
                    "the shard driver's serial calls may touch the queue; "
                    "a step's ExecPolicy fan-out must not"))
    return out


RULES = [
    ("field-no-modulo", rule_field_no_modulo, "src/field/fixture.h"),
    ("field-no-branch", rule_field_no_branch, "src/field/fixture.h"),
    ("no-thread-detach", rule_no_thread_detach, "src/sys/fixture.h"),
    ("atomic-explicit-order", rule_atomic_explicit_order,
     "src/transport/fixture.h"),
    ("relaxed-justified", rule_relaxed_justified, "src/transport/fixture.h"),
    ("no-raw-alloc", rule_no_raw_alloc, "src/transport/fixture.h"),
    ("memcpy-payload", rule_memcpy_payload, "src/transport/fixture.h"),
    ("serial-stage", rule_serial_stage, "src/server/aggregation_server.h"),
]


def run_rules(text: str, relpath: str) -> list[Finding]:
    code_raw, comments = lex(text)
    code = blank_preprocessor(code_raw)
    findings: list[Finding] = []
    for _, fn, _ in RULES:
        findings.extend(fn(text, code, comments, relpath))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---------------------------------------------------------------------------
# selftest: every rule must fire on its bad fixture and stay silent on the
# good twin — a rule without a failing fixture is dead weight.


def selftest() -> int:
    failures = 0
    for rule, _, fixture_relpath in RULES:
        slug = rule.replace("-", "_")
        bad = FIXTURE_DIR / f"{slug}_bad.cpp"
        good = FIXTURE_DIR / f"{slug}_good.cpp"
        for path, expect_hit in ((bad, True), (good, False)):
            if not path.exists():
                print(f"selftest FAIL: missing fixture {path}")
                failures += 1
                continue
            hits = [f for f in run_rules(path.read_text(), fixture_relpath)
                    if f.rule == rule]
            if expect_hit and not hits:
                print(f"selftest FAIL: {rule} did not fire on {path.name}")
                failures += 1
            elif not expect_hit and hits:
                print(f"selftest FAIL: {rule} fired on {path.name}:")
                for f in hits:
                    print(f"  {f}")
                failures += 1
            else:
                state = "fires on" if expect_hit else "silent on"
                print(f"selftest ok: {rule:>22} {state} {path.name}")
    if failures:
        print(f"selftest: {failures} failure(s)")
        return 1
    print(f"selftest: all {len(RULES)} rules live")
    return 0


# ---------------------------------------------------------------------------


def gather_files(args: list[str]) -> list[Path]:
    if args:
        roots = [Path(a) for a in args]
    else:
        roots = [REPO_ROOT / "src"]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        else:
            files.extend(sorted(root.rglob("*.h")))
            files.extend(sorted(root.rglob("*.cpp")))
    return sorted(set(files))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: <repo>/src)")
    parser.add_argument("--selftest", action="store_true",
                        help="prove every rule live against its fixtures")
    opts = parser.parse_args(argv)
    if opts.selftest:
        return selftest()
    findings: list[Finding] = []
    nfiles = 0
    for path in gather_files(opts.paths):
        try:
            relpath = path.resolve().relative_to(REPO_ROOT).as_posix()
        except ValueError:
            relpath = path.as_posix()
        findings.extend(run_rules(path.read_text(), relpath))
        nfiles += 1
    for f in findings:
        print(f)
    if findings:
        print(f"lsa_lint: {len(findings)} finding(s) in {nfiles} file(s)")
        return 1
    print(f"lsa_lint: clean ({nfiles} files, {len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
