"""Property-based integration tests across the detection engine.

Invariants:

* the blocking detector's variable violations agree with the literal
  pairwise check, and the sharded detector's equal them;
* the detector's violations equal the literal per-row Section 3 loop's;
* detection on the clean table of a generated dataset finds nothing for
  PFDs discovered from the clean table;
* every suspect cell reported for a constant PFD really fails the rule it
  is reported against.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constrained.constrained_pattern import constrained_prefix
from repro.dataset.table import Table
from repro.detection.detector import ErrorDetector
from repro.detection.incremental import IncrementalDetector
from repro.discovery.config import DiscoveryConfig
from repro.discovery.discoverer import PfdDiscoverer
from repro.patterns import parse_pattern
from repro.pfd.pfd import PFD
from repro.pfd.tableau import cell_matches
from repro.sharding import ShardedTable, ShardOverlay

import detection_reference
from detection_reference import assert_matches_pairwise, violating_pairs

#: Small synthetic zip→city worlds: a few prefixes, a few cities.
PREFIXES = ["606", "607", "900", "941", "100"]
CITIES = ["Chicago", "Los Angeles", "New York", "San Francisco"]


@st.composite
def zip_city_tables(draw):
    """A random zip/city table where prefixes *mostly* determine cities."""
    mapping = {
        prefix: draw(st.sampled_from(CITIES)) for prefix in PREFIXES
    }
    n_rows = draw(st.integers(min_value=4, max_value=40))
    rows = []
    for _ in range(n_rows):
        prefix = draw(st.sampled_from(PREFIXES))
        suffix = draw(st.integers(min_value=0, max_value=99))
        city = mapping[prefix]
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            city = draw(st.sampled_from(CITIES))  # occasional error
        rows.append([f"{prefix}{suffix:02d}", city])
    return Table.from_rows(["zip", "city"], rows)


ZIP_PFD = PFD.variable(
    "zip",
    "city",
    constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}")),
    name="lambda5",
)


@settings(max_examples=40, deadline=None)
@given(zip_city_tables())
def test_blocking_agrees_with_the_literal_pairwise_check(table):
    blocked = ErrorDetector(table).detect(ZIP_PFD)
    assert_matches_pairwise(blocked, violating_pairs(table, ZIP_PFD))
    sharded = IncrementalDetector(
        ShardOverlay(ShardedTable.from_table(table, 5)), [ZIP_PFD]
    ).report()
    assert sharded.canonical_violations() == blocked.canonical_violations()


@settings(max_examples=40, deadline=None)
@given(zip_city_tables())
def test_detector_agrees_with_reference_semantics(table):
    blocked = ErrorDetector(table).detect(ZIP_PFD)
    reference = detection_reference.detect(table, [ZIP_PFD])
    assert blocked.canonical_violations() == reference.canonical_violations()
    # the witness/suspect rows all come from the violating pairs
    pairs = violating_pairs(table, ZIP_PFD)
    blocked_rows = {row for violation in blocked for row in violation.rows}
    assert blocked_rows <= {row for pair in pairs for row in pair}
    assert bool(blocked_rows) == bool(pairs)


@settings(max_examples=25, deadline=None)
@given(zip_city_tables())
def test_constant_violations_really_violate_their_rule(table):
    config = DiscoveryConfig(min_coverage=0.3, min_support=2)
    pfds = PfdDiscoverer(config).discover(table)
    detector = ErrorDetector(table)
    for pfd in pfds:
        if not pfd.is_constant:
            continue
        for violation in detector.detect(pfd):
            rule = pfd.tableau[violation.rule_index]
            row = violation.suspect_cell[0]
            lhs_value = table.cell(row, pfd.lhs_attribute)
            rhs_value = table.cell(row, pfd.rhs_attribute)
            assert cell_matches(rule.cell(pfd.lhs_attribute), lhs_value)
            assert not cell_matches(rule.cell(pfd.rhs_attribute), rhs_value)


@settings(max_examples=15, deadline=None)
@given(zip_city_tables())
def test_discovered_pfds_respect_tolerance_on_their_own_table(table):
    """A PFD discovered with zero tolerance cannot be heavily violated by
    the very table it was mined from."""
    config = DiscoveryConfig(
        min_coverage=0.3, allowed_violation_ratio=0.0, min_support=2
    )
    pfds = PfdDiscoverer(config).discover(table)
    detector = ErrorDetector(table)
    for pfd in pfds:
        if not pfd.is_constant:
            continue
        report = detector.detect(pfd)
        assert len(report.suspect_rows()) / max(1, table.n_rows) <= 0.5
