#!/usr/bin/env python3
"""detlint: the determinism linter for the P4Update simulator.

The repo's headline guarantee is that campaign results are a pure function
of (spec, seed) — byte-identical JSONL/CSV reports for any --jobs N. The
bug classes that silently break it are statically detectable, and this
checker bans them:

  wall-clock      std::chrono::{system,steady,high_resolution}_clock,
                  clock_gettime, gettimeofday, ::time(...) — real time must
                  never feed simulation state or reports.
  raw-rand        rand(), srand(), std::random_device, drand48 — all
                  randomness must come from the seeded sim::Rng.
  env-read        getenv/secure_getenv/setenv/putenv — behavior must not
                  depend on the environment of the invoking shell.
  unordered-iter  iteration over std::unordered_map/std::unordered_set in
                  campaign-critical code (default: src/). Hash-order
                  iteration feeding a report, a merge, or a float
                  accumulation makes output depend on insertion history
                  and platform hash seeds; iterate a sorted view instead,
                  or annotate why the order cannot escape.
  inlinefn-capture  default-by-reference lambda captures ([&] / [&, ...])
                  passed to schedule_at/schedule_in in campaign-critical
                  code. A deferred event body runs long after the enclosing
                  scope returned; a blanket &-capture silently keeps
                  references to locals that may be dead by fire time.
                  Capture what the event needs explicitly (by value, or by
                  reference to objects that provably outlive the queue).
  thread-containment  raw threading primitives (std::thread/jthread, the
                  mutex family, condition variables, atomics, futures,
                  latches/barriers/semaphores) in campaign-critical code
                  outside the campaign job runner (--thread-allow,
                  default: src/harness/parallel_runner*). Ad-hoc threading
                  is how nondeterminism leaks into merged reports; parallel
                  work must be whole seeded jobs on that runner, each with
                  its own simulator, merged in job order.
                  Template-argument mentions (e.g. lock_guard<std::mutex>)
                  are not flagged — the primitive's declaration site is the
                  containment point.

Suppressions: a finding is allowed by an inline annotation on the same
line or the line directly above:

    // p4u-detlint: allow(<rule>[,<rule>...]) <reason>

The reason is mandatory. An annotation that suppresses nothing is itself
an error (unused-suppression), so stale allows cannot accumulate.

Exit codes: 0 clean, 1 findings (or failed --expect-allowed), 2 usage.

Typical invocations:
    tools/detlint/detlint.py --repo .
    tools/detlint/detlint.py --repo . --list-allowed
    tools/detlint/detlint.py --repo . --expect-allowed wall-clock:src=1
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_PATHS = ("src", "bench", "examples", "tests")
# unordered-iter only applies to campaign-critical code: the library that
# produces, merges, and reports campaign results.
DEFAULT_CRITICAL = ("src",)
# thread-containment exempts the one sanctioned parallel component: the
# campaign job runner (seed parallelism, results merged in job order).
DEFAULT_THREAD_ALLOW = ("src/harness/parallel_runner",)
SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h"}

RULES = ("wall-clock", "raw-rand", "env-read", "unordered-iter",
         "inlinefn-capture", "thread-containment")

# Patterns are matched against comment- and string-stripped lines.
LINE_RULES = {
    "wall-clock": re.compile(
        r"std\s*::\s*chrono\s*::\s*(?:system|steady|high_resolution)_clock"
        r"|\bclock_gettime\s*\("
        r"|\bgettimeofday\s*\("
        r"|(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    ),
    "raw-rand": re.compile(
        r"(?<![\w.:])s?rand\s*\("
        r"|\brandom_device\b"
        r"|\b[dlm]rand48\s*\("
    ),
    "env-read": re.compile(
        r"\b(?:secure_)?getenv\s*\(|\bsetenv\s*\(|\bputenv\s*\("
    ),
}

SUPPRESS_RE = re.compile(
    r"//\s*p4u-detlint:\s*allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)\s*(.*)"
)

UNORDERED_DECL_RE = re.compile(r"std\s*::\s*unordered_(?:map|set)\s*<")
FOR_RE = re.compile(r"\bfor\s*\(")
BEGIN_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?r?begin\s*\(")
SCHEDULE_CALL_RE = re.compile(r"\bschedule_(?:at|in)\s*\(")
# A lambda introducer whose first capture is a bare '&': [&] or [&, ...].
DEFAULT_REF_CAPTURE_RE = re.compile(r"\[\s*&\s*[,\]]")
# Raw threading vocabulary. atomic\w* covers atomic<T>, atomic_flag,
# atomic_bool, atomic_thread_fence, ...; the mutex alternative covers the
# whole <mutex>/<shared_mutex> family.
THREAD_PRIMITIVE_RE = re.compile(
    r"(?<!\w)std\s*::\s*(?:"
    r"j?thread\b|this_thread\b"
    r"|(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?mutex\b"
    r"|condition_variable(?:_any)?\b"
    r"|atomic\w*"
    r"|call_once\b|once_flag\b"
    r"|async\b|future\b|shared_future\b|promise\b|packaged_task\b"
    r"|latch\b|barrier\b|counting_semaphore\b|binary_semaphore\b"
    r")"
)


@dataclass
class Finding:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str
    allowed: bool = False
    reason: str = ""

    def render(self) -> str:
        tag = f"allowed ({self.reason})" if self.allowed else "banned"
        return f"{self.path}:{self.line}: {self.rule}: {self.message} [{tag}]"


@dataclass
class Suppression:
    line: int  # the line the annotation sits on
    rules: tuple[str, ...]
    reason: str
    used: bool = False


def strip_comments_and_strings(text: str) -> list[str]:
    """Blanks comments, string literals, and char literals, preserving the
    line structure so findings keep real line numbers."""
    out: list[str] = []
    i, n = 0, len(text)
    cur: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(cur))
            cur = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
            elif c == '"':
                # Raw strings R"delim( ... )delim" may span lines.
                if cur and cur[-1:] == ["R"]:
                    m = re.match(r'"([^\s()\\]*)\(', text[i:])
                    if m:
                        end = text.find(")" + m.group(1) + '"', i)
                        if end == -1:
                            end = n
                        skipped = text[i : end + len(m.group(1)) + 2]
                        for ch in skipped:
                            if ch == "\n":
                                out.append("".join(cur))
                                cur = []
                        i += len(skipped)
                        continue
                state = "string"
                i += 1
            elif c == "'":
                state = "char"
                i += 1
            else:
                cur.append(c)
                i += 1
        elif state == "line_comment":
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                i += 1
        elif state in ("string", "char"):
            if c == "\\":
                i += 2
            elif (state == "string" and c == '"') or (
                state == "char" and c == "'"
            ):
                state = "code"
                i += 1
            else:
                i += 1
    out.append("".join(cur))
    return out


def parse_suppressions(raw_lines: list[str]) -> dict[int, Suppression]:
    """Maps annotation line number -> Suppression. Validation errors are
    reported as findings by the caller (unknown rules, missing reason)."""
    found: dict[int, Suppression] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = tuple(r.strip() for r in m.group(1).split(","))
        found[idx] = Suppression(idx, rules, m.group(2).strip())
    return found


def balanced_angle_span(text: str, open_idx: int) -> int:
    """Given index of '<', returns index just past the matching '>'."""
    depth = 0
    i = open_idx
    while i < len(text):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(text)


def balanced_paren_span(text: str, open_idx: int) -> int:
    """Given index of '(', returns index just past the matching ')'."""
    depth = 0
    i = open_idx
    while i < len(text):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(text)


def inlinefn_findings(rel: str, clean_lines: list[str]) -> list[Finding]:
    """Default-by-reference lambda captures passed directly to
    schedule_at/schedule_in. The call's argument span is parsed with
    balanced parentheses, so multi-line lambdas are covered. Only captures
    at the call's own argument depth are flagged: a [&] inside a nested
    call (or inside the event body itself) runs synchronously within its
    enclosing scope and is out of scope for this rule."""
    out = []
    clean_text = "\n".join(clean_lines)
    for m in SCHEDULE_CALL_RE.finditer(clean_text):
        open_idx = m.end() - 1
        end = balanced_paren_span(clean_text, open_idx)
        span = clean_text[open_idx:end]
        for cm in DEFAULT_REF_CAPTURE_RE.finditer(span):
            depth = 0
            for ch in span[: cm.start()]:
                if ch in "([{":
                    depth += 1
                elif ch in ")]}":
                    depth -= 1
            if depth != 1:
                continue
            line = clean_text.count("\n", 0, open_idx + cm.start()) + 1
            out.append(
                Finding(
                    rel,
                    line,
                    "inlinefn-capture",
                    f"default-by-reference capture in a "
                    f"'{m.group(0).strip().rstrip('(').strip()}' event body",
                )
            )
            break
    return out


def thread_findings(rel: str, clean_lines: list[str]) -> list[Finding]:
    """Raw threading primitives spelled out in this file. A mention in
    template-argument position (lock_guard<std::mutex>, scoped_lock<...,
    std::mutex>) is skipped: locking a mutex is not the violation, declaring
    one outside the sanctioned engine is, and the declaration line is where
    the finding lands."""
    out = []
    prev_tail = ""
    for idx, line in enumerate(clean_lines, start=1):
        for m in THREAD_PRIMITIVE_RE.finditer(line):
            # A wrapped template-argument list puts the '<' or ',' at the
            # end of the previous line.
            before = line[: m.start()].rstrip() or prev_tail
            if before.endswith("<") or before.endswith(","):
                continue
            out.append(
                Finding(
                    rel,
                    idx,
                    "thread-containment",
                    f"raw threading primitive '{m.group(0).strip()}'",
                )
            )
        prev_tail = line.rstrip()
    return out


def unordered_names(clean_text: str) -> set[str]:
    """Identifiers declared (directly or via one level of alias) with an
    unordered container type in this text."""
    names: set[str] = set()
    aliases: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(clean_text):
        end = balanced_angle_span(clean_text, m.end() - 1)
        before = clean_text[: m.start()]
        after = clean_text[end:]
        alias_m = re.search(r"\busing\s+([A-Za-z_]\w*)\s*=\s*$", before)
        if alias_m:
            aliases.add(alias_m.group(1))
            continue
        decl_m = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]", after)
        if decl_m:
            names.add(decl_m.group(1))
    for alias in aliases:
        for m in re.finditer(
            rf"\b{alias}\b\s*&?\s*([A-Za-z_]\w*)\s*[;={{]", clean_text
        ):
            names.add(m.group(1))
    return names


def range_for_exprs(clean_text: str) -> list[tuple[int, str]]:
    """(line, iterated-expression) for every range-based for. The for-head
    is parsed with balanced parentheses, so nested calls and multi-line
    heads are handled; a head containing a top-level ';' is a classic for
    loop and is skipped."""
    out = []
    for m in FOR_RE.finditer(clean_text):
        open_idx = m.end() - 1
        depth = 0
        colon = -1
        classic = False
        i = open_idx
        while i < len(clean_text):
            c = clean_text[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1 and c == ";":
                classic = True
                break
            elif depth == 1 and c == ":" and colon == -1:
                # skip '::' scope tokens
                if clean_text[i - 1] == ":" or (
                    i + 1 < len(clean_text) and clean_text[i + 1] == ":"
                ):
                    pass
                else:
                    colon = i
            i += 1
        if classic or colon == -1 or i >= len(clean_text):
            continue
        expr = clean_text[colon + 1 : i].strip()
        line = clean_text.count("\n", 0, colon) + 1
        out.append((line, expr))
    return out


def iteration_findings(
    rel: str, clean_lines: list[str], names: set[str]
) -> list[Finding]:
    if not names:
        return []
    out = []
    clean_text = "\n".join(clean_lines)
    for line, expr in range_for_exprs(clean_text):
        tail = re.search(r"([A-Za-z_]\w*)\s*(?:\(\s*\))?\s*$", expr)
        if tail and tail.group(1) in names:
            out.append(
                Finding(
                    rel,
                    line,
                    "unordered-iter",
                    f"range-for over unordered container '{tail.group(1)}'"
                    " (hash order)",
                )
            )
    for idx, line_text in enumerate(clean_lines, start=1):
        for m in BEGIN_CALL_RE.finditer(line_text):
            if m.group(1) in names:
                out.append(
                    Finding(
                        rel,
                        idx,
                        "unordered-iter",
                        f"iterator walk over unordered container"
                        f" '{m.group(1)}' (hash order)",
                    )
                )
    return out


@dataclass
class FileReport:
    findings: list[Finding] = field(default_factory=list)


def check_file(
    repo: Path,
    path: Path,
    critical: tuple[str, ...],
    thread_allow: tuple[str, ...] = DEFAULT_THREAD_ALLOW,
) -> FileReport:
    rel = path.relative_to(repo).as_posix()
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.split("\n")
    clean_lines = strip_comments_and_strings(raw)
    suppressions = parse_suppressions(raw_lines)
    rep = FileReport()

    for sup in suppressions.values():
        unknown = [r for r in sup.rules if r not in RULES]
        if unknown:
            rep.findings.append(
                Finding(
                    rel,
                    sup.line,
                    "bad-suppression",
                    f"unknown rule(s) {', '.join(unknown)} in allow()",
                )
            )
        if not sup.reason:
            rep.findings.append(
                Finding(
                    rel,
                    sup.line,
                    "bad-suppression",
                    "allow() needs a reason after the closing paren",
                )
            )

    candidates: list[Finding] = []
    for rule, pattern in LINE_RULES.items():
        for idx, line in enumerate(clean_lines, start=1):
            for m in pattern.finditer(line):
                candidates.append(
                    Finding(rel, idx, rule, f"'{m.group(0).strip()}'")
                )

    if any(rel.startswith(prefix.rstrip("/") + "/") or rel == prefix
           for prefix in critical):
        names = unordered_names("\n".join(clean_lines))
        pair = (
            path.with_suffix(".hpp")
            if path.suffix == ".cpp"
            else path.with_suffix(".cpp")
        )
        if path.suffix == ".cpp" and pair.exists():
            names |= unordered_names(
                "\n".join(strip_comments_and_strings(pair.read_text()))
            )
        candidates.extend(iteration_findings(rel, clean_lines, names))
        candidates.extend(inlinefn_findings(rel, clean_lines))
        if not any(rel.startswith(prefix) for prefix in thread_allow):
            candidates.extend(thread_findings(rel, clean_lines))

    for f in candidates:
        for at in (f.line, f.line - 1):
            sup = suppressions.get(at)
            if sup and f.rule in sup.rules:
                f.allowed = True
                f.reason = sup.reason
                sup.used = True
                break
        rep.findings.append(f)

    for sup in suppressions.values():
        if not sup.used and all(r in RULES for r in sup.rules):
            rep.findings.append(
                Finding(
                    rel,
                    sup.line,
                    "unused-suppression",
                    f"allow({','.join(sup.rules)}) suppresses nothing",
                )
            )
    return rep


def parse_expect(spec: str) -> tuple[str, str, int]:
    m = re.fullmatch(r"([a-z-]+):([\w./-]+)=(\d+)", spec)
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad --expect-allowed '{spec}' (want rule:path-prefix=count)"
        )
    return m.group(1), m.group(2), int(m.group(3))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="detlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--repo", required=True, type=Path,
                    help="repository root; scanned paths are relative to it")
    ap.add_argument("--paths", nargs="+", default=list(DEFAULT_PATHS),
                    help=f"directories to scan (default: {DEFAULT_PATHS})")
    ap.add_argument("--critical", nargs="+", default=list(DEFAULT_CRITICAL),
                    help="path prefixes where unordered-iter applies "
                         f"(default: {DEFAULT_CRITICAL})")
    ap.add_argument("--thread-allow", nargs="+",
                    default=list(DEFAULT_THREAD_ALLOW),
                    help="path prefixes exempt from thread-containment "
                         f"(default: {DEFAULT_THREAD_ALLOW})")
    ap.add_argument("--list-allowed", action="store_true",
                    help="print allowed (annotated) sites as well")
    ap.add_argument("--expect-allowed", action="append", default=[],
                    type=parse_expect, metavar="RULE:PREFIX=N",
                    help="fail unless exactly N allowed RULE sites exist "
                         "under PREFIX (e.g. wall-clock:src=1)")
    args = ap.parse_args(argv)

    repo = args.repo.resolve()
    if not repo.is_dir():
        print(f"detlint: no such directory: {repo}", file=sys.stderr)
        return 2

    files: list[Path] = []
    for p in args.paths:
        base = repo / p
        if not base.exists():
            print(f"detlint: skipping missing path {p}", file=sys.stderr)
            continue
        files.extend(
            f for f in sorted(base.rglob("*"))
            if f.suffix in SOURCE_SUFFIXES and f.is_file()
        )

    all_findings: list[Finding] = []
    for f in files:
        all_findings.extend(
            check_file(
                repo, f, tuple(args.critical), tuple(args.thread_allow)
            ).findings
        )

    banned = [f for f in all_findings if not f.allowed]
    allowed = [f for f in all_findings if f.allowed]

    for f in banned:
        print(f.render())
    if args.list_allowed:
        for f in allowed:
            print(f.render())

    status = 0
    if banned:
        print(f"detlint: {len(banned)} banned construct(s)", file=sys.stderr)
        status = 1

    for rule, prefix, want in args.expect_allowed:
        got = [
            f for f in allowed
            if f.rule == rule
            and (f.path.startswith(prefix.rstrip("/") + "/")
                 or f.path == prefix)
        ]
        if len(got) != want:
            print(
                f"detlint: expected {want} allowed '{rule}' site(s) under "
                f"{prefix}, found {len(got)}:",
                file=sys.stderr,
            )
            for f in got:
                print(f"  {f.render()}", file=sys.stderr)
            status = 1

    if status == 0:
        print(
            f"detlint: OK ({len(files)} files, {len(allowed)} allowed "
            "annotated site(s))"
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
