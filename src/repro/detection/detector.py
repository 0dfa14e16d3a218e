"""The error-detection engine over a plain :class:`Table`.

Detection has one route (Section 3 of the paper): the session's
:class:`~repro.detection.incremental.IncrementalDetector` seed.  An
:class:`ErrorDetector` adopts its table, without a copy, as the one
in-memory shard of a :class:`~repro.sharding.ShardedTable` and takes
the report of a detector seeded over it:

* each rule pair is grouped once from the two columns' encodings
  (:mod:`repro.sharding.detection`);
* **constant rules** test each distinct LHS value once against
  ``tp[A]`` through the :class:`~repro.perf.memo.MatchMemo` and check
  one RHS value per ``(LHS value, RHS value)`` group;
* **variable rules** project each distinct LHS value once and check the
  ``≡_Q`` blocks, split by RHS value, with majority-witness selection
  (:mod:`repro.detection.rules`).

Each call seeds afresh, so a detector sees later changes to its table.
The literal per-row loop of Section 3 this route is held to lives in
``tests/detection_reference.py``.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.dataset.table import Table
from repro.detection.incremental import IncrementalDetector
from repro.detection.violation import ViolationReport
from repro.perf.memo import MatchMemo, MATCH_MEMO
from repro.pfd.pfd import PFD
from repro.sharding.overlay import ShardOverlay
from repro.sharding.sharded_table import ShardedTable


class ErrorDetector:
    """Applies PFDs to a table and reports violations.

    Detectors share the process-wide :class:`MatchMemo` of
    per-distinct-value verdicts, reused by every rule touching a column;
    pass a private ``memo`` to isolate a detector from the shared one.
    """

    def __init__(self, table: Table, memo: Optional[MatchMemo] = None):
        self.table = table
        self.memo = MATCH_MEMO if memo is None else memo

    def detect(self, pfd: PFD) -> ViolationReport:
        """Detect all violations of one PFD."""
        return self.detect_all([pfd])

    def detect_all(self, pfds: Iterable[PFD]) -> ViolationReport:
        """Detect violations of every PFD in one report."""
        started = time.perf_counter()
        overlay = ShardOverlay(ShardedTable([self.table]))
        report = IncrementalDetector(overlay, pfds, memo=self.memo).report()
        report.elapsed_seconds = time.perf_counter() - started
        return report
