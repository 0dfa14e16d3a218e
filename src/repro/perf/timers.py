"""Lightweight stage timers for the discovery/detection pipelines.

A ``StageTimers`` accumulates wall-clock totals per named stage with a
single ``perf_counter`` pair per measurement — cheap enough to leave on
in production paths, structured enough for the benchmark harness to
report where time went.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, Optional


class StageTimers:
    """Accumulated wall-clock time per pipeline stage."""

    __slots__ = ("_totals", "_counts")

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one ``with``-scoped stage (exceptions still record)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def add(self, name: str, seconds: float) -> None:
        self._totals[name] = self._totals.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def totals(self) -> Dict[str, float]:
        return dict(self._totals)

    def merge(self, other: "StageTimers") -> None:
        for name, seconds in other._totals.items():
            self._totals[name] = self._totals.get(name, 0.0) + seconds
            self._counts[name] = self._counts.get(name, 0) + other._counts[name]

    def summary(self) -> str:
        """``stage: 1.234s (n=5)`` lines, slowest stage first."""
        lines = [
            f"{name}: {seconds:.3f}s (n={self._counts[name]})"
            for name, seconds in sorted(
                self._totals.items(), key=lambda kv: -kv[1]
            )
        ]
        return "\n".join(lines)


def stage_or_null(timers: Optional[StageTimers], name: str):
    """``timers.stage(name)`` when timers are threaded through, a no-op
    context otherwise — lets hot paths take an optional timers kwarg
    without branching at every call site."""
    return timers.stage(name) if timers is not None else nullcontext()
