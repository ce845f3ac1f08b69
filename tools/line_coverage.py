"""List the lines of ``src/xmlgram`` that the tier-1 test suite never runs.

Usage, from the repository root:

    python tools/line_coverage.py [extra pytest arguments]

Runs pytest in this process under a ``sys.settrace`` line collector (no
coverage package needed) and prints each executable line of the package
that no test reached, with its source text, then the tests that failed.

- The tracer is installed again before each test, because a test may
  replace it, and CPython drops it when a ``RecursionError`` passes through
  it; lines after such a drop in the same test can be reported falsely.
- ``tests/test_bench.py`` is left out: its smoke run installs its own
  tracing.
- Lines run only in a subprocess (the CLI's broken-pipe path) are reported
  too, so grep a reported line against the tests before acting on it.
- Tracing makes the suite several times slower, so tests that bound wall
  time or allocations can fail only here.  They are listed, and their
  failures do not make a line count as unreached.

Exit status: 0 once the report is printed, else pytest's own status.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xmlgram"
PREFIX = str(PACKAGE) + "/"


class Collector:
    """A pytest plugin that records the package lines each test runs,
    reinstalling its tracer before each test, and notes failed tests."""

    def __init__(self) -> None:
        self.hits: Dict[str, Set[int]] = {}
        self.failed: List[str] = []

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename.startswith(PREFIX):
            self.hits.setdefault(filename, set())
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def install(self) -> None:
        sys.settrace(self._call)
        threading.settrace(self._call)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.install()

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(f"{report.nodeid} ({report.when})")


def executable_lines(path: Path) -> Set[int]:
    """The lines that carry bytecode in any code object of ``path``, less
    each function's ``def`` line, which only the enclosing code runs, and
    the module's line 0."""
    lines: Set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: List[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    collector = Collector()
    args = ["-q", "-p", "no:cacheprovider", "--ignore=tests/test_bench.py", *argv]
    start = time.perf_counter()
    collector.install()
    try:
        status = pytest.main(args, plugins=[collector])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - start
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(status)

    total = 0
    print(f"\nUnreached lines of {PACKAGE.relative_to(ROOT)}:")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - collector.hits.get(str(path), set()))
        total += len(missed)
        for line in missed:
            print(f"  {path.name}:{line}: {source[line - 1].strip()}")
    print(f"{total} unreached lines; the traced suite took {elapsed:.0f} s.")
    if collector.failed:
        print(f"{len(collector.failed)} tests failed under tracing (check them untraced):")
        for nodeid in collector.failed:
            print(f"  {nodeid}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
