#!/usr/bin/env python3
"""Repo-invariant lint suite for qmpi (stdlib only; no pip deps).

Four rules, each encoding a contract the compilers cannot check:

  env-chokepoint   Raw getenv() is banned outside src/core/env.cpp: every
                   QMPI_* read must route through the settings table
                   (qmpi::env::get, core/env.hpp) so the strict-parse /
                   fail-loud policy has no side doors.

  naked-sync       std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable / std::scoped_lock are banned
                   in src/ outside core/sync.hpp and core/lock_order.cpp:
                   every lock must be a qmpi::Mutex so it carries clang
                   thread-safety annotations and reports to the runtime
                   lock-order validator.

  wire-narrowing   A `u32(static_cast<std::uint32_t>(... .size() ...))`
                   wire write silently truncates counts above 2^32-1 and
                   desynchronizes the framing; each such write must have a
                   check_u32_count() call within the preceding lines.

  env-docs         README.md's environment table and the settings table
                   (the "QMPI_..." string literals of src/core/env.cpp)
                   name the same variables: a table entry without a
                   README row is missing, and a README row naming no
                   table entry is stale.

Usage:
  python3 scripts/lint/run_lints.py              # lint the repo; exit 1 on findings
  python3 scripts/lint/run_lints.py --self-test  # prove each rule still fires
                                                 # on the seeded counter-examples

The self-test runs the same engine over scripts/lint/fixtures/, a tiny
fake tree whose violating lines each carry a `VIOLATION: <rule>` marker
next to clean decoys, and fails unless the findings are exactly the marked
lines and every rule has at least one — so a regressed regex cannot
silently turn the suite green.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Iterator, NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

# How far above a u32 narrowing the check_u32_count call may sit.
WIRE_CHECK_WINDOW = 10


class Finding(NamedTuple):
    rule: str
    path: pathlib.Path
    line: int
    message: str

    def render(self, root: pathlib.Path) -> str:
        rel = self.path.relative_to(root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comment bodies, preserving every newline so
    line numbers stay aligned with the original file. String and character
    literals are left intact (and protect their contents from being
    mistaken for comment openers)."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | dquote | squote
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "dquote"
            elif c == "'":
                state = "squote"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # dquote | squote
            quote = '"' if state == "dquote" else "'"
            if c == "\\" and nxt:
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def cxx_files(root: pathlib.Path) -> Iterator[pathlib.Path]:
    for sub in ("src", "bench"):
        base = root / sub
        if not base.is_dir():
            continue
        for ext in ("*.hpp", "*.cpp", "*.h", "*.cc"):
            yield from sorted(base.rglob(ext))


# ------------------------------------------------------------------ rules ---

GETENV_RE = re.compile(r"\b(?:std\s*::\s*|::\s*)?(?:secure_)?getenv\s*\(")
ENV_CHOKEPOINT_ALLOWED = {pathlib.PurePosixPath("src/core/env.cpp")}


def rule_env_chokepoint(path, rel, lines):
    if rel in ENV_CHOKEPOINT_ALLOWED:
        return
    for lineno, line in enumerate(lines, start=1):
        if GETENV_RE.search(line):
            yield Finding(
                "env-chokepoint", path, lineno,
                "raw getenv() outside src/core/env.cpp; add the variable "
                "to the settings table and read it through qmpi::env::get "
                "(core/env.hpp)")


NAKED_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b")
NAKED_SYNC_ALLOWED = {
    pathlib.PurePosixPath("src/core/sync.hpp"),
    pathlib.PurePosixPath("src/core/lock_order.cpp"),
}


def rule_naked_sync(path, rel, lines):
    if rel in NAKED_SYNC_ALLOWED:
        return
    if rel.parts and rel.parts[0] != "src":
        return  # bench/ drives the public API; the ban protects src/ only
    for lineno, line in enumerate(lines, start=1):
        m = NAKED_SYNC_RE.search(line)
        if m:
            yield Finding(
                "naked-sync", path, lineno,
                f"naked std::{m.group(1)} outside core/sync.hpp; use "
                "qmpi::Mutex / qmpi::LockGuard / qmpi::UniqueLock / "
                "qmpi::CondVar so the lock is annotated and order-checked")


WIRE_NARROW_RE = re.compile(
    r"\bu32\s*\(\s*static_cast<\s*std\s*::\s*uint32_t\s*>\s*\([^;]*\.size\(\)")
WIRE_CHECK_RE = re.compile(r"\bcheck_u32_count\s*\(")


def rule_wire_narrowing(path, rel, lines):
    for lineno, line in enumerate(lines, start=1):
        if not WIRE_NARROW_RE.search(line):
            continue
        window = lines[max(0, lineno - 1 - WIRE_CHECK_WINDOW):lineno]
        if any(WIRE_CHECK_RE.search(prev) for prev in window):
            continue
        yield Finding(
            "wire-narrowing", path, lineno,
            "u32 wire write narrows a size_t count without a "
            f"check_u32_count() call in the preceding {WIRE_CHECK_WINDOW} "
            "lines; a count above 2^32-1 would silently truncate")


ENV_TABLE = pathlib.PurePosixPath("src/core/env.cpp")
ENV_TABLE_NAME_RE = re.compile(r"\"(QMPI_[A-Z0-9_]+)\"")
README_ROW_RE = re.compile(r"^\|\s*`(QMPI_[A-Z0-9_]+)`")


def rule_env_docs(root, files_and_lines):
    table: dict[str, tuple[pathlib.Path, int]] = {}
    for path, rel, lines in files_and_lines:
        if rel != ENV_TABLE:
            continue
        for lineno, line in enumerate(lines, start=1):
            for m in ENV_TABLE_NAME_RE.finditer(line):
                table.setdefault(m.group(1), (path, lineno))
    readme = root / "README.md"
    rows: dict[str, int] = {}
    if readme.is_file():
        text = readme.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.split("\n"), start=1):
            m = README_ROW_RE.match(line)
            if m:
                rows.setdefault(m.group(1), lineno)
    for var, (path, lineno) in table.items():
        if var not in rows:
            yield Finding(
                "env-docs", path, lineno,
                f"{var} is in the settings table but has no row in "
                "README.md's environment table")
    for var, lineno in rows.items():
        if var not in table:
            yield Finding(
                "env-docs", readme, lineno,
                f"README.md documents {var}, which names no entry of the "
                f"settings table ({ENV_TABLE})")


# ----------------------------------------------------------------- driver ---

PER_FILE_RULES = (rule_env_chokepoint, rule_naked_sync, rule_wire_narrowing)


def run_lints(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    files_and_lines = []
    for path in cxx_files(root):
        rel = pathlib.PurePosixPath(path.relative_to(root).as_posix())
        text = strip_comments(path.read_text(encoding="utf-8"))
        lines = text.split("\n")
        files_and_lines.append((path, rel, lines))
    for path, rel, lines in files_and_lines:
        for rule in PER_FILE_RULES:
            findings.extend(rule(path, rel, lines))
    findings.extend(rule_env_docs(root, files_and_lines))
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings


RULES = ("env-chokepoint", "naked-sync", "wire-narrowing", "env-docs")
VIOLATION_RE = re.compile(r"VIOLATION: ([a-z-]+)")


def self_test() -> int:
    """Runs the engine over the seeded fixture tree and checks that the
    findings are exactly the lines marked `VIOLATION: <rule>` — no more
    (decoys stay clean), no fewer (a regressed regex cannot go silently
    green) — and that every rule has a marked line."""
    fixtures = pathlib.Path(__file__).resolve().parent / "fixtures"
    expected = set()
    for path in sorted(p for p in fixtures.rglob("*") if p.is_file()):
        rel = path.relative_to(fixtures).as_posix()
        lines = path.read_text(encoding="utf-8").split("\n")
        for lineno, line in enumerate(lines, start=1):
            for m in VIOLATION_RE.finditer(line):
                expected.add((m.group(1), rel, lineno))
    got = {(f.rule, f.path.relative_to(fixtures).as_posix(), f.line)
           for f in run_lints(fixtures)}
    ok = True
    for rule in sorted(set(RULES) - {rule for rule, _, _ in expected}):
        print(f"self-test FAIL: rule {rule} has no seeded counter-example",
              file=sys.stderr)
        ok = False
    for rule, rel, line in sorted(expected - got):
        print(f"self-test FAIL: rule {rule} missed the seeded "
              f"counter-example at {rel}:{line}", file=sys.stderr)
        ok = False
    for rule, rel, line in sorted(got - expected):
        print(f"self-test FAIL: rule {rule} fired on clean fixture code "
              f"at {rel}:{line}", file=sys.stderr)
        ok = False
    if ok:
        print(f"self-test OK: {len(expected)} seeded violations caught, "
              "no false positives")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="run the rules against the seeded fixture tree")
    parser.add_argument("--root", type=pathlib.Path, default=REPO_ROOT,
                        help="tree to lint (default: the repo root)")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    findings = run_lints(args.root.resolve())
    for finding in findings:
        print(finding.render(args.root.resolve()))
    if findings:
        print(f"\n{len(findings)} lint finding(s). See scripts/lint/"
              "run_lints.py and docs/ARCHITECTURE.md §10.", file=sys.stderr)
        return 1
    print("all lints passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
