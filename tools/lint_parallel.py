#!/usr/bin/env python3
"""cgdnn parallel-discipline linter.

Statically enforces the repo's OpenMP rules over src/ — the conventions the
paper's bit-identity argument rests on (docs/correctness.md):

  static-schedule      Worksharing loops must carry an explicit
                       schedule(static). schedule(static, 1) is reserved for
                       the ordered merge (requires the `ordered` clause);
                       dynamic/guided/runtime/auto break the deterministic
                       sample->thread mapping and are always errors.
  no-unsafe-calls      No rand()/srand()/time()/clock()/std::random_device/
                       std::mt19937/drand48-family calls inside parallel
                       constructs, or inside the bodies layer code hands to
                       the region helper: per-thread nondeterminism breaks
                       the serial-equivalence claim. GlobalRng (serial-side,
                       checkpointed) is the only sanctioned randomness.
  layer-pragma         Layer code (src/cgdnn/layers/, and fixtures marked
                       `// cgdnn-lint: layer-code`) contains no `#pragma omp`,
                       no <omp.h> and no omp_* calls. Every layer loop goes
                       through parallel/region.hpp, which owns the region
                       instrumentation, write-set forwarding, barrier, merge
                       and exception capture once for all layers.

Suppressions: a comment `// cgdnn-lint: allow(rule[, rule...])` on the pragma
line or the line directly above it silences those rules for that construct.

Usage:
  lint_parallel.py [PATH...]         lint .cpp/.hpp under PATH (default src/)
  lint_parallel.py --self-test       run the fixture suite under
                                     tools/lint_fixtures/ (bad files declare
                                     expected findings with `// EXPECT: rule`)

Exit status: 0 clean, 1 findings (or fixture mismatch), 2 usage error.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
import sys

RULES = {
    "static-schedule",
    "no-unsafe-calls",
    "layer-pragma",
}

PRAGMA_RE = re.compile(r"^\s*#\s*pragma\s+omp\b(?P<clauses>.*)$")
SCHEDULE_RE = re.compile(r"\bschedule\s*\(\s*(?P<kind>\w+)\s*(?:,\s*(?P<chunk>[^)]*?)\s*)?\)")
ALLOW_RE = re.compile(r"//\s*cgdnn-lint:\s*allow\(([^)]*)\)")
# Callable randomness/time sources. Lookbehind rejects member access
# (`timer.time()`) and identifier suffixes (`mytime(`); `std::`-qualified
# forms are matched explicitly.
UNSAFE_CALL_RE = re.compile(
    r"(?:\bstd::\s*)?(?<![\w.])"
    r"(rand|srand|rand_r|drand48|lrand48|mrand48|random|time|clock)\s*\("
)
UNSAFE_TYPE_RE = re.compile(r"\b(random_device|mt19937(?:_64)?|minstd_rand0?)\b")
SANCTIONED_RNG = "GlobalRng"
LAYER_MARKER_RE = re.compile(r"//\s*cgdnn-lint:\s*layer-code\b")
LAYER_DIR = "src/cgdnn/layers/"
# OpenMP outside a pragma: the runtime header and its API calls.
OMP_API_RE = re.compile(r"#\s*include\s*<omp\.h>|\bomp_\w+\s*\(")
# Region-helper entry points whose body (a lambda) runs on every thread.
HELPER_CALL_RE = re.compile(r"\bForEach(?:Chunk|ChunkPrivate|Element)\b")


@dataclasses.dataclass
class Finding:
    path: pathlib.Path
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments and string/char literal contents,
    preserving line structure so line numbers survive."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | dq | sq
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "dq"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "sq"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state in ("line", "block"):
            if c == "\n":
                out.append(c)
                if state == "line":
                    state = "code"
            elif state == "block" and c == "*" and nxt == "/":
                state = "code"
                i += 1
        else:  # dq / sq: drop contents, keep delimiters
            if c == "\\":
                i += 2
                continue
            if (state == "dq" and c == '"') or (state == "sq" and c == "'"):
                out.append(c)
                state = "code"
            elif c == "\n":
                out.append(c)
                state = "code"  # unterminated literal: bail to code
            i += 1
            continue
        i += 1
    return "".join(out)


@dataclasses.dataclass
class Pragma:
    line: int        # 1-based line of the '#pragma'
    end_line: int    # last physical line (continuations)
    text: str        # joined clause text after 'omp'
    allowed: set[str]


class FileLinter:
    def __init__(self, path: pathlib.Path, text: str):
        self.path = path
        self.raw_lines = text.splitlines()
        self.lines = strip_comments(text).splitlines()
        self.findings: list[Finding] = []

    # ---------------------------------------------------------------- utils
    def allow_set(self, line_idx: int) -> set[str]:
        """Suppressions on this raw line or the one above."""
        allowed: set[str] = set()
        for idx in (line_idx, line_idx - 1):
            if 0 <= idx < len(self.raw_lines):
                m = ALLOW_RE.search(self.raw_lines[idx])
                if m:
                    for rule in m.group(1).split(","):
                        rule = rule.strip()
                        if rule and rule not in RULES:
                            self.report(idx + 1, "static-schedule",
                                        f"unknown rule '{rule}' in cgdnn-lint "
                                        "suppression")
                        allowed.add(rule)
        return allowed

    def report(self, line: int, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, line, rule, message))

    def pragmas(self) -> list[Pragma]:
        result = []
        i = 0
        while i < len(self.lines):
            m = PRAGMA_RE.match(self.lines[i])
            if not m:
                i += 1
                continue
            start = i
            clause = m.group("clauses")
            while clause.rstrip().endswith("\\") and i + 1 < len(self.lines):
                clause = clause.rstrip()[:-1] + " " + self.lines[i + 1].strip()
                i += 1
            result.append(Pragma(start + 1, i + 1, " ".join(clause.split()),
                                 self.allow_set(start)))
            i += 1
        return result

    def match_braces(self, start_idx: int) -> tuple[int, int]:
        """Extent [open_idx, close_idx] of the first braced block at or after
        line index start_idx. Returns (-1, -1) if none found."""
        depth = 0
        open_idx = -1
        for idx in range(start_idx, len(self.lines)):
            for ch in self.lines[idx]:
                if ch == "{":
                    if open_idx < 0:
                        open_idx = idx
                    depth += 1
                elif ch == "}" and open_idx >= 0:
                    depth -= 1
                    if depth == 0:
                        return open_idx, idx
            # Statement ended before any brace: single-statement body.
            if open_idx < 0 and self.lines[idx].rstrip().endswith(";"):
                return idx, idx
        return -1, -1

    # ---------------------------------------------------------------- rules
    def check_schedule(self, p: Pragma) -> None:
        if "static-schedule" in p.allowed:
            return
        m = SCHEDULE_RE.search(p.text)
        if m is None:
            self.report(p.line, "static-schedule",
                        "worksharing loop without an explicit "
                        "schedule(static) clause")
            return
        kind = m.group("kind")
        chunk = (m.group("chunk") or "").strip()
        if kind != "static":
            self.report(p.line, "static-schedule",
                        f"schedule({kind}) breaks the deterministic "
                        "sample-to-thread mapping; use schedule(static)")
            return
        if chunk:
            if chunk != "1" or "ordered" not in p.text.split():
                self.report(p.line, "static-schedule",
                            f"schedule(static, {chunk}) is only allowed as "
                            "schedule(static, 1) on the ordered merge loop")

    def check_unsafe_calls(self, p: Pragma, body: str) -> None:
        if "no-unsafe-calls" in p.allowed:
            return
        scrubbed = body.replace(SANCTIONED_RNG, "")
        m = UNSAFE_CALL_RE.search(scrubbed) or UNSAFE_TYPE_RE.search(scrubbed)
        if m:
            self.report(p.line, "no-unsafe-calls",
                        f"'{m.group(1)}' inside a parallel construct: "
                        "per-thread nondeterminism breaks serial "
                        "equivalence (use GlobalRng from serial code)")

    def is_layer_code(self) -> bool:
        return (LAYER_DIR in self.path.resolve().as_posix() or any(
            LAYER_MARKER_RE.search(line) for line in self.raw_lines))

    def check_layer_code(self, pragmas: list[Pragma]) -> None:
        """Layer code hands its loops to the region helper: no OpenMP of its
        own, and no unsafe calls in the bodies it passes."""
        for p in pragmas:
            if "layer-pragma" not in p.allowed:
                self.report(p.line, "layer-pragma",
                            f"'#pragma omp {p.text}' in layer code: wrap the "
                            "loop in parallel::ForEachChunk / "
                            "ForEachChunkPrivate (parallel/region.hpp)")
        for idx, line in enumerate(self.lines):
            m = OMP_API_RE.search(line)
            if m and "layer-pragma" not in self.allow_set(idx):
                self.report(idx + 1, "layer-pragma",
                            f"'{m.group(0).strip()}' in layer code: the "
                            "OpenMP runtime belongs to parallel/region.hpp")
            if HELPER_CALL_RE.search(line):
                open_idx, close_idx = self.match_braces(idx)
                if open_idx >= 0:
                    body = "\n".join(self.lines[open_idx:close_idx + 1])
                    self.check_unsafe_calls(
                        Pragma(idx + 1, idx + 1, "", self.allow_set(idx)),
                        body)

    # ----------------------------------------------------------------- run
    def run(self) -> list[Finding]:
        pragmas = self.pragmas()
        for p in pragmas:
            words = p.text.split()
            if not words:
                continue
            is_parallel = words[0] == "parallel"
            is_loop = words[0] == "for" or (is_parallel and len(words) > 1
                                            and words[1] == "for")
            if is_loop:
                self.check_schedule(p)
            if is_parallel or is_loop:
                open_idx, close_idx = self.match_braces(p.end_line)
                if open_idx >= 0:
                    body = "\n".join(self.lines[open_idx:close_idx + 1])
                    self.check_unsafe_calls(p, body)
        if self.is_layer_code():
            self.check_layer_code(pragmas)
        return self.findings

def lint_paths(paths: list[pathlib.Path]) -> list[Finding]:
    findings: list[Finding] = []
    files: list[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.cpp")))
            files.extend(sorted(path.rglob("*.hpp")))
        else:
            files.append(path)
    for f in files:
        findings.extend(FileLinter(f, f.read_text()).run())
    return findings


EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([\w-]+)")


def self_test(fixtures_dir: pathlib.Path) -> int:
    """Every fixture file must produce exactly its declared findings."""
    failures = 0
    fixture_files = sorted(fixtures_dir.rglob("*.cpp"))
    if not fixture_files:
        print(f"lint_parallel: no fixtures under {fixtures_dir}",
              file=sys.stderr)
        return 1
    for f in fixture_files:
        text = f.read_text()
        expected = sorted(EXPECT_RE.findall(text))
        got = sorted(fi.rule for fi in FileLinter(f, text).run())
        if expected != got:
            failures += 1
            print(f"FAIL {f.name}: expected {expected or ['<clean>']}, "
                  f"got {got or ['<clean>']}")
        else:
            print(f"ok   {f.name}: {expected or ['clean']}")
    print(f"lint_parallel self-test: {len(fixture_files) - failures}/"
          f"{len(fixture_files)} fixtures passed")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    args = argv[1:]
    if "--self-test" in args:
        args.remove("--self-test")
        fixtures = pathlib.Path(args[0]) if args else (
            repo_root / "tools" / "lint_fixtures")
        return self_test(fixtures)
    paths = [pathlib.Path(a) for a in args] or [repo_root / "src"]
    for p in paths:
        if not p.exists():
            print(f"lint_parallel: no such path: {p}", file=sys.stderr)
            return 2
    findings = lint_paths(paths)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_parallel: {len(findings)} finding(s)")
        return 1
    print("lint_parallel: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
