#!/usr/bin/env python3
"""Fails when a library header is reached by no shipped program.

Walks the quoted-#include graph from every .cpp/.hpp under bench/,
examples/ and perfbench/ (stdlib only, no compiler needed). A quoted
include resolves against the including file's directory, then src/, then
bench/ — the include paths the CMake targets use; anything else (system
headers, generated headers) is skipped. Reaching a src/ header also
reaches its .cpp, whose own includes are walked in turn, so a module that
only another dead module pulls in is caught too.

Every src/**/*.hpp the walk does not reach is reported, except the
allow-list below. Tests do not count as includers: a module only tests
reach is dead code with a test attached.

Exit code 0 = every header reached, 1 = at least one unreached.

Usage: scripts/check_includers.py
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ["bench", "examples", "perfbench"]
SEARCH_DIRS = [ROOT / "src", ROOT / "bench"]
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

# Headers kept in src/ although no shipped program includes them.
ALLOWED = {
    # The property-test framework: test infrastructure, linked into the
    # library so tests/ and tests/gen/ share one copy.
    "util/proptest.hpp",
}


def resolve(name: str, includer: Path) -> Path | None:
    for base in [includer.parent, *SEARCH_DIRS]:
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def reached_files() -> set[Path]:
    pending = [
        path.resolve()
        for d in PROGRAM_DIRS
        for path in sorted((ROOT / d).rglob("*"))
        if path.suffix in (".cpp", ".hpp")
    ]
    seen: set[Path] = set()
    while pending:
        path = pending.pop()
        if path in seen:
            continue
        seen.add(path)
        if path.suffix == ".hpp" and path.with_suffix(".cpp").is_file():
            pending.append(path.with_suffix(".cpp"))
        for name in INCLUDE_RE.findall(path.read_text(encoding="utf-8")):
            target = resolve(name, path)
            if target is not None:
                pending.append(target)
    return seen


def main() -> int:
    src = ROOT / "src"
    reached = reached_files()
    unreached = [
        header.relative_to(src).as_posix()
        for header in sorted(src.rglob("*.hpp"))
        if header.resolve() not in reached
        and header.relative_to(src).as_posix() not in ALLOWED
    ]
    for header in unreached:
        print(f"src/{header}: no bench, example or perfbench file reaches it")
    if unreached:
        print(f"{len(unreached)} unreached header(s); delete the module or "
              "use it from a shipped program")
        return 1
    print(f"check_includers: every src/ header is reached "
          f"({len(ALLOWED)} allow-listed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
