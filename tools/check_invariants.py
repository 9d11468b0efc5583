#!/usr/bin/env python3
"""Repo-invariant lint for the ZKA codebase.

Enforces the cross-cutting rules that keep runs reproducible and the
numeric policy coherent -- the invariants that a compiler cannot check
and that code review keeps re-litigating:

  R1 rng-source            All randomness flows through util/rng
                           (std::rand, std::random_device, raw std
                           engines like std::mt19937, and wall-clock
                           seeding make runs irreproducible or
                           unsplittable).
  R2 threading-primitives  All parallelism flows through util/thread_pool
                           (raw std::thread / OpenMP would break the
                           fixed-block determinism guarantees and the
                           nesting-safety protocol).
  R3 float32-kernel-precision
                           The GEMM/conv hot-path kernels accumulate in
                           float32 by policy; double accumulation belongs
                           in the reduce toolkit, which owns the
                           fixed-association double path.
  R4 sort-network-strict-fp
                           The column-sort network pads tiles with +inf
                           and relies on IEEE min/max ordering, so no
                           build file may enable -ffast-math family
                           flags, and the sort/reduce kernels must not
                           use std::fmin/fmax (different NaN semantics
                           than the comparator the network needs).
  R5 defense-raw-reduce    Defense aggregators must not hand-roll
                           multiply-accumulate reductions over updates;
                           tensor::dot / squared_norm / squared_distance
                           / axpy / weighted_sum own the accumulation
                           order (and hence bitwise determinism).
  R6 prof-timing           Library code must not read clocks directly
                           (std::chrono, clock_gettime, ...); timing goes
                           through util/prof (scoped timers + now_ns),
                           which is the single switchable, mergeable
                           source of timing truth.
  R7 unordered-container   No std::unordered_{map,set,multimap,multiset}
                           in src/: their iteration order is
                           implementation-defined, so a result that walks
                           one is not reproducible across standard
                           libraries. Membership-only uses opt out.
  R8 orphan-header         Every src/ header is #included by some file in
                           src/, bench/ or examples/ besides its own .cpp.
                           Code whose only caller is its own test is dead
                           weight; delete it rather than carry it.

A line can opt out with a trailing or preceding comment (R8, a per-file
rule, takes the comment anywhere in the header):

    // zka-lint: allow(rule-name) -- justification

Escape hygiene is enforced too: an allow() naming an unknown rule is an
error, and an allow() that no longer suppresses anything is an error
(dead escapes must be deleted, not accumulate).

Runs from the repo root (CMake registers it as the `check_invariants`
test); exits non-zero and prints `path:line: [rule] message` per hit.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CXX_EXTS = {".cpp", ".h", ".inl"}
SCAN_ROOTS = ["src", "tests", "bench", "examples", "tools"]

ALLOW_RE = re.compile(r"zka-lint:\s*allow\(([A-Za-z0-9-]+)\)")


def cxx_files(root: Path):
    if not root.exists():
        return
    for path in sorted(root.rglob("*")):
        if path.suffix in CXX_EXTS and path.is_file():
            yield path


def strip_comments(text: str) -> list[str]:
    """Return the file's lines with // and /* */ comments blanked out.

    Keeps line numbering intact so findings map back to the real file.
    String literals are not parsed; the rule patterns below do not
    plausibly occur inside strings in this codebase.
    """
    out = []
    in_block = False
    for line in text.splitlines():
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            else:
                slash = line.find("//", i)
                block = line.find("/*", i)
                if slash != -1 and (block == -1 or slash < block):
                    result.append(line[i:slash])
                    i = len(line)
                elif block != -1:
                    result.append(line[i:block])
                    in_block = True
                    i = block + 2
                else:
                    result.append(line[i:])
                    i = len(line)
        out.append("".join(result))
    return out


class Rule:
    def __init__(self, name, pattern, message, includes=None, excludes=()):
        self.name = name
        self.pattern = re.compile(pattern)
        self.message = message
        self.includes = includes  # None = every scanned C++ file
        self.excludes = excludes

    def applies_to(self, rel: str) -> bool:
        if any(re.search(e, rel) for e in self.excludes):
            return False
        if self.includes is None:
            return True
        return any(re.search(i, rel) for i in self.includes)


RULES = [
    Rule(
        "rng-source",
        r"std::rand\b|\brand\s*\(|\bsrand\s*\(|std::random_device"
        r"|std::mt19937\b|std::default_random_engine\b|std::minstd_rand\b"
        r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)",
        "randomness must come from util/rng (seeded, splittable); "
        "std::rand / random_device / wall-clock seeds are irreproducible",
        excludes=(r"^src/util/rng\.",),
    ),
    Rule(
        "threading-primitives",
        r"#\s*pragma\s+omp\b|\bomp_[a-z_]+\s*\(|std::j?thread\b"
        r"|\bpthread_create\b",
        "parallelism must go through util/thread_pool (fixed-block "
        "deterministic splits, re-entrancy protocol); no raw threads/OpenMP",
        excludes=(r"^src/util/thread_pool\.",),
    ),
    Rule(
        "float32-kernel-precision",
        r"\bdouble\b",
        "GEMM/conv hot-path kernels accumulate in float32 by policy; "
        "double accumulation belongs in the reduce toolkit",
        includes=(
            r"^src/tensor/gemm_kernels",
            r"^src/tensor/ops\.cpp$",
        ),
    ),
    Rule(
        "sort-network-strict-fp",
        r"std::fmin\b|std::fmax\b|\bfminf?\s*\(|\bfmaxf?\s*\(",
        "the column-sort network needs IEEE comparator semantics "
        "(+inf padding, signed-zero order); fmin/fmax have different "
        "NaN behavior than the min/max sweeps it is built on",
        includes=(r"^src/tensor/reduce",),
    ),
    Rule(
        "prof-timing",
        r"std::chrono\b|\bsteady_clock\b|\bsystem_clock\b"
        r"|\bhigh_resolution_clock\b|\bclock_gettime\b|\bgettimeofday\b",
        "library code must not read clocks directly; use util/prof "
        "(ZKA_PROF_SCOPE / util::prof::now_ns), the single switchable "
        "timing source",
        includes=(r"^src/", r"^bench/"),
        excludes=(r"^src/util/prof\.",),
    ),
    Rule(
        "defense-raw-reduce",
        r"\+=\s*[^;=\n]*\*",
        "defense aggregators must not hand-roll multiply-accumulate "
        "loops; use tensor::dot/squared_norm/squared_distance/axpy/"
        "weighted_sum, which own the accumulation order",
        includes=(r"^src/defense/.*\.cpp$",),
    ),
    Rule(
        "unordered-container",
        r"std::unordered_(?:multi)?(?:map|set)\b",
        "unordered containers iterate in an implementation-defined order; "
        "use a sorted or indexed container so results are reproducible",
        includes=(r"^src/",),
    ),
]

ORPHAN_HEADER = "orphan-header"
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
# Roots whose includes keep a src/ header alive; tests/ deliberately absent.
INCLUDER_ROOTS = ["src", "bench", "examples"]


def lint_orphan_headers() -> tuple[list[str], set[tuple[str, int, str]]]:
    """R8: src/ headers nothing but their own .cpp includes.

    Returns the findings and the escapes that suppressed one.
    """
    src = REPO / "src"
    includers: dict[Path, set[Path]] = {}
    for root_name in INCLUDER_ROOTS:
        for path in cxx_files(REPO / root_name):
            for name in INCLUDE_RE.findall(path.read_text(encoding="utf-8")):
                for base in (path.parent, src):
                    target = (base / name).resolve()
                    if target.is_file():
                        includers.setdefault(target, set()).add(path.resolve())
                        break
    findings = []
    used: set[tuple[str, int, str]] = set()
    for header in cxx_files(src):
        if header.suffix != ".h":
            continue
        own_cpp = header.with_suffix(".cpp").resolve()
        if includers.get(header.resolve(), set()) - {own_cpp}:
            continue
        rel = header.relative_to(REPO).as_posix()
        lines = header.read_text(encoding="utf-8").splitlines()
        escapes = [i for i, line in enumerate(lines)
                   if ORPHAN_HEADER in ALLOW_RE.findall(line)]
        if escapes:
            used.update((rel, i, ORPHAN_HEADER) for i in escapes)
            continue
        findings.append(
            f"{rel}:1: [{ORPHAN_HEADER}] no file in "
            f"{', '.join(INCLUDER_ROOTS)} includes this header except its "
            f"own .cpp; code only its test calls should be deleted"
        )
    return findings, used


# R4's build-file half: the -ffast-math family is banned everywhere (it
# would let the compiler reassociate the fixed-order reductions and
# outlaws the +inf tile padding in the sort network).
FASTMATH_RE = re.compile(r"-ffast-math|-ffinite-math-only|-funsafe-math")


def lint_cxx() -> list[str]:
    findings, used_escapes = lint_orphan_headers()
    known_rules = {r.name for r in RULES} | {ORPHAN_HEADER}
    # (rel, line_idx, rule) for every escape comment, and the subset that
    # actually suppressed a finding -- the difference is dead weight.
    escapes: list[tuple[str, int, str]] = []
    for root_name in SCAN_ROOTS:
        for path in cxx_files(REPO / root_name):
            rel = path.relative_to(REPO).as_posix()
            raw_lines = path.read_text(encoding="utf-8").splitlines()
            for idx, line in enumerate(raw_lines):
                for name in ALLOW_RE.findall(line):
                    escapes.append((rel, idx, name))
            rules = [r for r in RULES if r.applies_to(rel)]
            if not rules:
                continue
            code_lines = strip_comments("\n".join(raw_lines))
            for idx, code in enumerate(code_lines):
                for rule in rules:
                    if not rule.pattern.search(code):
                        continue
                    suppressed = False
                    for probe in (idx, idx - 1):
                        if 0 <= probe < len(raw_lines) and rule.name in ALLOW_RE.findall(
                            raw_lines[probe]
                        ):
                            used_escapes.add((rel, probe, rule.name))
                            suppressed = True
                    if suppressed:
                        continue
                    findings.append(
                        f"{rel}:{idx + 1}: [{rule.name}] {rule.message}\n"
                        f"    {raw_lines[idx].strip()}"
                    )
    for rel, idx, name in escapes:
        if name not in known_rules:
            findings.append(
                f"{rel}:{idx + 1}: [escape-hygiene] allow({name}) names no "
                f"known rule ({', '.join(sorted(known_rules))})"
            )
        elif (rel, idx, name) not in used_escapes:
            findings.append(
                f"{rel}:{idx + 1}: [escape-hygiene] allow({name}) suppresses "
                f"nothing; delete the dead escape"
            )
    return findings


def lint_build_files() -> list[str]:
    findings = []
    build_files = sorted(REPO.rglob("CMakeLists.txt"))
    presets = REPO / "CMakePresets.json"
    if presets.exists():
        build_files.append(presets)
    for path in build_files:
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(("build", ".git")):
            continue
        for idx, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            if FASTMATH_RE.search(line) and "zka-lint: allow" not in line:
                findings.append(
                    f"{rel}:{idx + 1}: [sort-network-strict-fp] the fast-math "
                    f"flag family is banned (reassociates fixed-order "
                    f"reductions, outlaws the sort network's +inf padding)\n"
                    f"    {line.strip()}"
                )
    return findings


def main() -> int:
    findings = lint_cxx() + lint_build_files()
    if findings:
        print(f"check_invariants: {len(findings)} violation(s)\n")
        for f in findings:
            print(f)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
