"""repro — a reproduction of ANMAT (SIGMOD 2019).

ANMAT discovers *pattern functional dependencies* (PFDs) from dirty
relational data and uses them to detect erroneous cells.  This package
implements the full system described in the paper:

* :mod:`repro.dataset` — an in-memory relational table substrate with CSV
  I/O, type inference and column profiling.
* :mod:`repro.patterns` — the restricted pattern language built on the
  generalization tree (Figure 1 of the paper): parsing, matching,
  containment and pattern generalization.
* :mod:`repro.constrained` — constrained patterns and the ``≡_Q``
  equivalence used by variable PFDs.
* :mod:`repro.pfd` — the PFD model: embedded FD + pattern tableau.
* :mod:`repro.discovery` — the Discover-PFDs algorithm (Figure 2).
* :mod:`repro.detection` — error detection with constant and variable
  PFDs: matching per distinct value, and blocking.
* :mod:`repro.sharding` — sharded, out-of-core discovery and detection
  over table-wide column encodings, canonically equal to a monolithic
  run.
* :mod:`repro.baselines` — FD/CFD discovery and detection plus a
  pattern-outlier detector, used for comparison experiments.
* :mod:`repro.anmat` — the end-to-end ANMAT workflow (project store,
  session, report rendering, CLI).
* :mod:`repro.datagen` — seeded synthetic dataset generators standing in
  for the demo's proprietary datasets.
* :mod:`repro.metrics` — precision/recall evaluation against injected
  ground truth.

Quickstart::

    from repro import Table, PfdDiscoverer, ErrorDetector

    table = Table.from_rows(
        ["zip", "city"],
        [["90001", "Los Angeles"], ["90002", "Los Angeles"],
         ["90003", "Los Angeles"], ["90004", "New York"]],
    )
    pfds = PfdDiscoverer().discover(table)
    violations = ErrorDetector(table).detect_all(pfds)
"""

from repro.dataset import Attribute, Schema, Table
from repro.patterns import Pattern, parse_pattern
from repro.constrained import ConstrainedPattern
from repro.pfd import PFD, EmbeddedFD, PatternTableau, TableauRow, WILDCARD
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.detection import ErrorDetector, Violation
from repro.sharding import ShardedDetector, ShardedDiscoverer, ShardedTable
from repro.anmat import AnmatSession

__all__ = [
    "Attribute",
    "Schema",
    "Table",
    "Pattern",
    "parse_pattern",
    "ConstrainedPattern",
    "PFD",
    "EmbeddedFD",
    "PatternTableau",
    "TableauRow",
    "WILDCARD",
    "DiscoveryConfig",
    "PfdDiscoverer",
    "ErrorDetector",
    "Violation",
    "ShardedDetector",
    "ShardedDiscoverer",
    "ShardedTable",
    "AnmatSession",
]

__version__ = "1.0.0"
