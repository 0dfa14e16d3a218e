"""Line-coverage gate for the discovery, detection, sharding, engine,
kernel and perf layers, and for the session that routes every upload.

Runs the discovery + detection + sharding + engine + kernels + anmat +
perf test selection (including the rule-maintenance differential gate in
``tests/discovery/test_maintenance.py`` and the detection gates against
the literal Section 3 loop: ``tests/detection/test_reference.py`` and
the properties in ``tests/integration/test_detection_properties.py``)
under a coverage tracer and
fails when the measured line coverage of ``src/repro/discovery/``,
``src/repro/detection/``, ``src/repro/sharding/``,
``src/repro/engine/``, ``src/repro/kernels/``, ``src/repro/perf/`` or
``src/repro/anmat/session.py`` drops below the committed floor.  Built on the
standard library's ``trace`` module so it needs no dependency (this
environment ships without the third-party ``coverage`` package; the
measurement contract is the same if a future environment swaps it in).

Usage::

    PYTHONPATH=src python tools/coverage_gate.py            # gate (used by `make coverage`)
    PYTHONPATH=src python tools/coverage_gate.py --report   # per-file table too

The floors are deliberately below current measurements (headroom for
refactors) but high enough that a new module landing without tests, or a
test selection rot, trips the gate.
"""

from __future__ import annotations

import argparse
import sys
import trace
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_ROOT))

#: measured directory → minimum line coverage (fraction); all measure
#: ~90% or more, floored at 85% so refactors have headroom; the small
#: perf package (96.5% when it was added) is floored at 90%
FLOORS: Dict[str, float] = {
    "src/repro/discovery": 0.85,
    "src/repro/detection": 0.85,
    "src/repro/sharding": 0.85,
    "src/repro/engine": 0.85,
    "src/repro/kernels": 0.85,
    "src/repro/perf": 0.90,
}

#: individual files gated on their own floor — the out-of-core session's
#: edit-overlay, shard-codec, object-store and remote-client layers are
#: small enough that a directory average would hide any one losing its
#: tests entirely; the session is where every upload is routed onto the
#: sharded engines
FILE_FLOORS: Dict[str, float] = {
    "src/repro/anmat/session.py": 0.90,
    "src/repro/sharding/overlay.py": 0.95,
    "src/repro/sharding/codec.py": 0.85,
    "src/repro/sharding/object_store.py": 0.85,
    "src/repro/sharding/remote.py": 0.85,
    "src/repro/sharding/prefetch.py": 0.85,
}

#: the test selection exercising those directories; the 256k
#: bounded-memory tests are excluded — under the tracer they take tens
#: of minutes and their tracemalloc assertions measure the tracer's own
#: bookkeeping, while covering no lines the smaller differentials miss
TEST_ARGS = [
    "-q",
    "-p",
    "no:cacheprovider",
    "-k",
    "not OutOfCoreBoundedMemory",
    "tests/discovery",
    "tests/detection",
    "tests/sharding",
    "tests/engine",
    "tests/kernels",
    "tests/anmat",
    "tests/perf",
    "tests/integration/test_detection_properties.py",
]


class _PathIgnore:
    """Filename-keyed replacement for ``trace._Ignore``.

    The stdlib helper caches its verdicts by *bare module basename*, so
    once any ``stats.py`` or ``__init__.py`` under ``sys.prefix`` is
    ignored, every same-named project file is silently ignored too and
    reports 0% coverage.  Keying the cache by filename keeps the speed
    of ignoredirs without the collisions.
    """

    def __init__(self, dirs: Iterable[str]):
        import os

        self._dirs = tuple(os.path.join(os.path.realpath(d), "") for d in dirs)
        self._cache: Dict[str, bool] = {}

    def names(self, filename: str, modulename: str) -> bool:
        verdict = self._cache.get(filename)
        if verdict is None:
            verdict = self._cache[filename] = filename.startswith(self._dirs)
        return verdict


def run_tests_traced() -> Tuple[int, Set[Tuple[str, int]]]:
    """Run the test selection under the stdlib tracer; returns the pytest
    exit code and the set of (filename, lineno) lines executed."""
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _PathIgnore([sys.prefix, sys.exec_prefix])
    exit_code = tracer.runfunc(pytest.main, list(TEST_ARGS))
    counts = tracer.results().counts  # (filename, lineno) → hits
    return int(exit_code), set(counts)


def executable_lines(path: Path) -> Set[int]:
    """The line numbers the tracer could possibly report for a file
    (docstrings, blank lines and comments excluded)."""
    # trace's private helper reads the compiled code objects, which is
    # exactly the denominator the tracer's own reports use.
    return set(trace._find_executable_linenos(str(path)))


def measure_directory(
    directory: Path, executed: Set[Tuple[str, int]]
) -> Tuple[int, int, List[Tuple[str, int, int]]]:
    """(covered, total, per-file rows) over a directory's python files."""
    covered_total = 0
    lines_total = 0
    rows: List[Tuple[str, int, int]] = []
    for path in sorted(directory.rglob("*.py")):
        lines = executable_lines(path)
        resolved = str(path.resolve())
        hit = {lineno for filename, lineno in executed if filename == resolved}
        covered = len(lines & hit)
        covered_total += covered
        lines_total += len(lines)
        rows.append((str(path.relative_to(REPO_ROOT)), covered, len(lines)))
    return covered_total, lines_total, rows


def main(argv: Iterable[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report", action="store_true", help="print the per-file coverage table"
    )
    args = parser.parse_args(list(argv))

    exit_code, executed = run_tests_traced()
    if exit_code != 0:
        print(f"coverage gate: test run failed (pytest exit {exit_code})")
        return exit_code

    failures = []
    print("\ncoverage gate:")
    for relative, floor in FLOORS.items():
        covered, total, rows = measure_directory(REPO_ROOT / relative, executed)
        ratio = covered / total if total else 1.0
        verdict = "ok" if ratio >= floor else "BELOW FLOOR"
        print(
            f"  {relative:24s} {covered:5d}/{total:5d} lines "
            f"{ratio:6.1%}  (floor {floor:.0%})  {verdict}"
        )
        if args.report:
            for name, file_covered, file_total in rows:
                file_ratio = file_covered / file_total if file_total else 1.0
                print(f"    {name:44s} {file_covered:4d}/{file_total:4d} {file_ratio:6.1%}")
        if ratio < floor:
            failures.append(relative)
    for relative, floor in FILE_FLOORS.items():
        path = REPO_ROOT / relative
        lines = executable_lines(path)
        resolved = str(path.resolve())
        covered = len(lines & {ln for fn, ln in executed if fn == resolved})
        ratio = covered / len(lines) if lines else 1.0
        verdict = "ok" if ratio >= floor else "BELOW FLOOR"
        print(
            f"  {relative:40s} {covered:5d}/{len(lines):5d} lines "
            f"{ratio:6.1%}  (floor {floor:.0%})  {verdict}"
        )
        if ratio < floor:
            failures.append(relative)
    if failures:
        print(f"\ncoverage gate FAILED: {failures} below their floors")
        return 1
    print("\ncoverage gate ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
