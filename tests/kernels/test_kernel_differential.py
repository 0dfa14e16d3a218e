"""Differential tests: the kernel route vs. the scalar reference, end to end.

The sharding differential suite (``tests/sharding/test_differential.py``)
is the oracle for monolithic-vs-sharded identity; this suite sweeps the
*mining route* axis through the same machinery: for each randomized
dirty table, monolithic and sharded discovery through the default
(kernel) route and through the scalar reference route
(:class:`ReferenceMajority`, which the kernel fallback rule sends
through the scalar loop body) must produce the identical rule set and
per-candidate decisions, and detection of either rule set must produce
canonically equal violations on every detection path.
"""

from __future__ import annotations

import pytest
from reference_decision import ReferenceMajority

from repro.datagen import build_dataset
from repro.datagen.corruption import CorruptionSpec, ErrorInjector
from repro.detection import ErrorDetector
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.perf import clear_caches
from repro.sharding import ShardedDetector, ShardedDiscoverer, ShardedTable

GENERATORS = [
    ("zip_city_state", 90, [CorruptionSpec("city", 0.05, kind="swap")]),
    ("phone_state", 80, [CorruptionSpec("state", 0.06, kind="case")]),
    ("fullname_gender", 80, [CorruptionSpec("gender", 0.08, kind="swap")]),
    ("employee_ids", 70, [CorruptionSpec("employee_id", 0.05, kind="typo")]),
]

SEEDS = [3, 58]

ROUTES = ("kernel", "reference")

CONFIG = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2)


def dirty_table(name: str, n_rows: int, specs, seed: int):
    dataset = build_dataset(name, n_rows=n_rows, seed=seed)
    dirty, _cells = ErrorInjector(seed=seed + 1).corrupt(dataset.table, specs)
    return dirty


def decision_for(route: str):
    """The decision function that selects a mining route."""
    return ReferenceMajority() if route == "reference" else None


def fingerprint(result):
    return (
        [p.describe() for p in result.pfds],
        [(r.lhs, r.rhs, r.accepted, r.coverage) for r in result.reports],
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,n_rows,specs", GENERATORS, ids=lambda v: str(v))
class TestKernelDifferential:
    def test_discovery_identical_across_routes(self, name, n_rows, specs, seed):
        table = dirty_table(name, n_rows, specs, seed)
        results = {}
        for route in ROUTES:
            clear_caches()
            mono = PfdDiscoverer(CONFIG, decision_for(route)).discover_with_report(table)
            sharded = ShardedDiscoverer(
                CONFIG, decision_for(route)
            ).discover_with_report(ShardedTable.from_table(table, 7))
            assert fingerprint(mono) == fingerprint(sharded), (
                f"mono/sharded rule sets diverged on the {route} route"
            )
            results[route] = fingerprint(mono)
        assert results["kernel"] == results["reference"], "kernel rule set diverged"

    def test_detection_canonically_equal_across_routes(self, name, n_rows, specs, seed):
        table = dirty_table(name, n_rows, specs, seed)
        violations = {}
        for route in ROUTES:
            clear_caches()
            pfds = PfdDiscoverer(CONFIG, decision_for(route)).discover(table)
            if not pfds:
                pytest.skip("generator/seed pair discovered no rules")
            monolithic = ErrorDetector(table).detect_all(pfds).canonical_violations()
            sharded = (
                ShardedDetector(ShardedTable.from_table(table, 7))
                .detect_all(pfds)
                .canonical_violations()
            )
            assert sharded == monolithic, (
                f"sharded detection diverged on the {route} route's rules"
            )
            violations[route] = sharded
        assert violations["kernel"] == violations["reference"], "kernel violations diverged"
