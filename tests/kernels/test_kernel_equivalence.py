"""Kernel equivalence on randomized columns.

The kernels' contract is *byte identity*, not approximation: the same
tokenization triples as the literal tokens of Figure 2, the same match
verdicts as the NFA, the same pair-group maps (including every key
order), and — end to end — the same discovered rule sets and
per-candidate reports as the literal Figure 2 loop
(``tests/figure2_reference.py``).  Columns mix unicode, empty strings,
quotes, embedded newlines, and code-like values so every token mode and
every prefilter branch is exercised.
"""

from __future__ import annotations

import random

import figure2_reference
import pytest

from repro.datagen import build_dataset
from repro.datagen.corruption import CorruptionSpec, ErrorInjector
from repro.dataset import Table
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.kernels.encoder import encode_column
from repro.kernels.groupby import pair_groups_kernel
from repro.kernels.match import batch_verdicts
from repro.kernels.tokenize import batch_tokenize
from repro.patterns import parse_pattern
from repro.perf import clear_caches
from repro.sharding.stats import extract_pair_groups

#: pieces the randomized columns are assembled from — deliberately ugly
PIECES = [
    "",
    "New York",
    "90210",
    "902",
    "  spaced  ",
    "O'Hare",
    '"quoted"',
    "line\nbreak",
    "tab\there",
    "Éclair",
    "雪城",
    "A-1",
    "....",
    "UPPER lower 123",
]


def random_column(rng: random.Random, n: int) -> list:
    column = []
    for _ in range(n):
        if rng.random() < 0.55:
            column.append(rng.choice(PIECES))
        else:
            length = rng.randint(1, 9)
            column.append(
                "".join(rng.choice("AaBb019 ?.'\n-É雪") for _ in range(length))
            )
    return column


@pytest.mark.parametrize("seed", [1, 2, 17, 99])
class TestColumnEquivalence:
    def test_tokenization_identical(self, seed):
        rng = random.Random(seed)
        column = random_column(rng, 120)
        encoding = encode_column(column)
        for mode in ("token", "ngram", "prefix"):
            triples = batch_tokenize(encoding, mode)
            kernel = [triples[code] for code in encoding.codes.tolist()]
            literal = [tuple(figure2_reference.tokens(v, mode)) for v in column]
            assert kernel == literal, (seed, mode)

    def test_match_verdicts_identical(self, seed):
        rng = random.Random(seed)
        column = random_column(rng, 200)
        patterns = ["\\D{5}", "90\\D{3}", "\\LU\\LL+", "\\A+", "\\S{2}", "New York"]
        for text in patterns:
            pattern = parse_pattern(text)
            expected = [pattern.matches(v) for v in column]
            assert batch_verdicts(pattern, column) == expected, (seed, text)

    def test_pair_groups_identical_including_orders(self, seed):
        rng = random.Random(seed)
        lhs = random_column(rng, 150)
        rhs = random_column(rng, 150)
        kernel = pair_groups_kernel(encode_column(lhs), encode_column(rhs))
        scalar = extract_pair_groups(lhs, rhs, 0)
        assert kernel == scalar
        assert list(kernel) == list(scalar), "outer key order diverged"
        for value in scalar:
            assert list(kernel[value]) == list(scalar[value]), (
                f"inner key order diverged for {value!r}"
            )


def _report_fingerprint(result):
    return [
        (
            r.lhs,
            r.rhs,
            r.accepted,
            r.coverage,
            [
                (
                    c.pattern_text,
                    c.rhs_constant,
                    c.support,
                    c.agreement,
                    c.covered_tuple_ids,
                    c.violating_tuple_ids,
                )
                for c in r.constant_candidates
            ],
            [str(v.constrained_pattern) for v in r.variable_candidates],
        )
        for r in result.reports
    ]


@pytest.mark.parametrize(
    "name,n_rows,specs",
    [
        ("zip_city_state", 90, [CorruptionSpec("city", 0.05, kind="swap")]),
        ("phone_state", 80, [CorruptionSpec("state", 0.06, kind="case")]),
        ("employee_ids", 70, [CorruptionSpec("employee_id", 0.05, kind="typo")]),
    ],
    ids=lambda v: str(v),
)
@pytest.mark.parametrize("seed", [3, 58])
class TestDiscoveryEquivalence:
    def test_kernel_route_matches_reference(self, name, n_rows, specs, seed):
        dataset = build_dataset(name, n_rows=n_rows, seed=seed)
        dirty, _cells = ErrorInjector(seed=seed + 1).corrupt(dataset.table, specs)
        config = DiscoveryConfig(min_coverage=0.4, allowed_violation_ratio=0.2)
        clear_caches()
        kernel = PfdDiscoverer(config).discover_with_report(dirty)
        reference = figure2_reference.discover(dirty, config)
        assert [p.describe() for p in kernel.pfds] == [
            p.describe() for p in reference.pfds
        ]
        assert _report_fingerprint(kernel) == _report_fingerprint(reference)


class TestUglyTableDiscovery:
    def test_randomized_table_identical_rules(self):
        rng = random.Random(5)
        n = 80
        table = Table(
            ["a", "b", "c"],
            [random_column(rng, n), random_column(rng, n), random_column(rng, n)],
        )
        config = DiscoveryConfig(min_coverage=0.2, allowed_violation_ratio=0.3)
        reference = figure2_reference.discover(table, config)
        clear_caches()
        kernel = PfdDiscoverer(config).discover_with_report(table)
        assert [p.describe() for p in kernel.pfds] == [
            p.describe() for p in reference.pfds
        ]
        assert _report_fingerprint(kernel) == _report_fingerprint(reference)
