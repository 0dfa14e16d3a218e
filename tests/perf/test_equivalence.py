"""Equivalence: cached, memoized, and sharded paths == uncached serial.

The perf subsystem is pure acceleration — these tests prove that the
shared compiled-pattern caches, the MatchMemo, the single-pass columnar
inverted-index build, and the sharded backend's shard-major encodings
all produce results identical to the uncached serial implementation,
on the zip → city/state and employee datasets.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.datagen import generate_employee_ids, generate_zip_city_state
from repro.detection import ErrorDetector
from repro.discovery import DiscoveryConfig, PfdDiscoverer


@pytest.fixture(scope="module")
def zip_table():
    return generate_zip_city_state(n_rows=400, seed=23).table


@pytest.fixture(scope="module")
def employee_table():
    return generate_employee_ids(n_rows=400, seed=31).table


def canonical_discovery(result) -> dict:
    """Everything meaningful in a DiscoveryResult, minus wall-clock noise."""
    return {
        "pfds": [pfd.to_dict() for pfd in result.pfds],
        "reports": [
            {
                "lhs": report.lhs,
                "rhs": report.rhs,
                "accepted": report.accepted,
                "coverage": report.coverage,
                "constant": [
                    (
                        candidate.pattern_text,
                        candidate.rhs_constant,
                        candidate.support,
                        candidate.agreement,
                        tuple(candidate.covered_tuple_ids),
                        tuple(candidate.violating_tuple_ids),
                        candidate.source_token,
                        candidate.source_position,
                    )
                    for candidate in report.constant_candidates
                ],
                "variable": [
                    (
                        candidate.pattern_text,
                        candidate.coverage,
                        candidate.agreement,
                        candidate.n_blocks,
                        candidate.n_multi_blocks,
                        candidate.description,
                    )
                    for candidate in report.variable_candidates
                ],
            }
            for report in result.reports
        ],
    }


def canonical_detection(report) -> dict:
    """Everything meaningful in a ViolationReport, including statistics."""
    return {
        "n_rows": report.n_rows,
        "strategy": report.strategy,
        "comparisons": report.comparisons,
        "violations": list(report),
        "suspects": sorted(report.suspect_cells()),
    }


def discover_uncached(table) -> dict:
    perf.clear_caches()
    with perf.caches_disabled():
        return canonical_discovery(PfdDiscoverer().discover_with_report(table))


@pytest.mark.parametrize("dataset", ["zip", "employee"])
class TestDiscoveryEquivalence:
    def _table(self, dataset, zip_table, employee_table):
        return zip_table if dataset == "zip" else employee_table

    def test_cached_equals_uncached(self, dataset, zip_table, employee_table):
        table = self._table(dataset, zip_table, employee_table)
        uncached = discover_uncached(table)
        perf.clear_caches()
        cold_caches = canonical_discovery(PfdDiscoverer().discover_with_report(table))
        warm_caches = canonical_discovery(PfdDiscoverer().discover_with_report(table))
        assert cold_caches == uncached
        assert warm_caches == uncached

    def test_sharded_equals_serial(self, dataset, zip_table, employee_table):
        from repro.engine import DEFAULT_SHARD_ROWS
        from repro.sharding import ShardedDiscoverer, ShardedTable

        table = self._table(dataset, zip_table, employee_table)
        serial = canonical_discovery(PfdDiscoverer().discover_with_report(table))
        sharded = canonical_discovery(
            ShardedDiscoverer(DiscoveryConfig()).discover_with_report(
                ShardedTable.from_table(table, DEFAULT_SHARD_ROWS)
            )
        )
        assert sharded == serial


def _detector(route, table, memo=None):
    """The table detector, or the sharded one over 64-row shards."""
    if route == "table":
        return ErrorDetector(table, memo=memo)
    from repro.sharding import ShardedDetector, ShardedTable

    return ShardedDetector(ShardedTable.from_table(table, 64), memo=memo)


@pytest.mark.parametrize("dataset", ["zip", "employee"])
@pytest.mark.parametrize("route", ["table", "sharded"])
def test_detection_equivalence(dataset, route, zip_table, employee_table):
    table = zip_table if dataset == "zip" else employee_table
    pfds = PfdDiscoverer().discover(table)
    assert pfds, "equivalence needs at least one discovered PFD"

    perf.clear_caches()
    with perf.caches_disabled():
        uncached = canonical_detection(
            _detector(route, table, memo=perf.MatchMemo(enabled=False)).detect_all(pfds)
        )

    perf.clear_caches()
    cold = canonical_detection(_detector(route, table).detect_all(pfds))
    warm = canonical_detection(_detector(route, table).detect_all(pfds))
    assert cold == uncached
    assert warm == uncached
