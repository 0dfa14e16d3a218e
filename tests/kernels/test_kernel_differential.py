"""Differential tests: the mining kernels vs. the literal Figure 2 loop.

The sharding differential suite (``tests/sharding/test_differential.py``)
is the oracle for monolithic-vs-sharded identity; this suite checks the
*mining* through the same machinery: for each randomized dirty table,
monolithic and sharded discovery must produce the rule set and
per-candidate decisions of the literal loop over row lists
(``tests/figure2_reference.py``), and detection of either rule set must
produce canonically equal violations on every detection path.
"""

from __future__ import annotations

import detection_reference
import figure2_reference
import pytest

from repro.datagen import build_dataset
from repro.datagen.corruption import CorruptionSpec, ErrorInjector
from repro.detection import IncrementalDetector
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.perf import clear_caches
from repro.sharding import ShardedTable, ShardOverlay

GENERATORS = [
    ("zip_city_state", 90, [CorruptionSpec("city", 0.05, kind="swap")]),
    ("phone_state", 80, [CorruptionSpec("state", 0.06, kind="case")]),
    ("fullname_gender", 80, [CorruptionSpec("gender", 0.08, kind="swap")]),
    ("employee_ids", 70, [CorruptionSpec("employee_id", 0.05, kind="typo")]),
]

SEEDS = [3, 58]

CONFIG = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2)


def dirty_table(name: str, n_rows: int, specs, seed: int):
    dataset = build_dataset(name, n_rows=n_rows, seed=seed)
    dirty, _cells = ErrorInjector(seed=seed + 1).corrupt(dataset.table, specs)
    return dirty


def discover(route: str, table):
    """Discovery through the kernels (monolithic) or the reference."""
    if route == "reference":
        return figure2_reference.discover(table, CONFIG)
    return PfdDiscoverer(CONFIG).discover_with_report(table)


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
        reference = fingerprint(figure2_reference.discover(table, CONFIG))
        clear_caches()
        mono = PfdDiscoverer(CONFIG).discover_with_report(table)
        sharded = PfdDiscoverer(CONFIG).discover_with_report(
            ShardedTable.from_table(table, 7)
        )
        assert fingerprint(mono) == fingerprint(sharded), "mono/sharded rule sets diverged"
        assert fingerprint(mono) == reference, "kernel rule set diverged"

    def test_detection_canonically_equal_across_routes(self, name, n_rows, specs, seed):
        table = dirty_table(name, n_rows, specs, seed)
        violations = {}
        for route in ("kernel", "reference"):
            clear_caches()
            pfds = discover(route, table).pfds
            if not pfds:
                pytest.skip("generator/seed pair discovered no rules")
            monolithic = detection_reference.detect(table, pfds).canonical_violations()
            sharded = (
                IncrementalDetector(ShardOverlay(ShardedTable.from_table(table, 7)), pfds)
                .report()
                .canonical_violations()
            )
            assert sharded == monolithic, (
                f"sharded detection diverged on the {route} route's rules"
            )
            violations[route] = sharded
        assert violations["kernel"] == violations["reference"], "kernel violations diverged"
