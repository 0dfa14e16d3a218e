"""Tests for constant and variable PFD mining.

Each case mines one ``A → B`` through the kernels of
:mod:`repro.kernels.mine` and through the literal Figure 2 loop
(``tests/figure2_reference.py``), requires the two to agree, and checks
the paper's expectations on the result.  The greedy selection's order
and marginal-coverage test are pinned on their own at the end.
"""

import figure2_reference
import pytest

from repro.discovery.config import DiscoveryConfig
from repro.kernels.encoder import encode_column
from repro.kernels.mine import (
    MAX_CONSTRAINED_TOKEN_POSITION,
    accepts,
    coverage_kernel,
    mine_constant_kernel,
    mine_variable_kernel,
    pair_counts,
    selection_key,
)
from repro.kernels.tokenize import batch_tokenize


def _tableau(rows):
    return [
        (r.pattern_text, r.rhs_constant, r.support, r.agreement, list(r.covered_tuple_ids))
        for r in rows
    ]


def mine_constant(lhs, rhs, mode, config=None):
    """The selected pattern tuples, once both routes agree."""
    config = config or DiscoveryConfig()
    lhs_encoding, rhs_encoding = encode_column(lhs), encode_column(rhs)
    kernel = mine_constant_kernel(
        lhs_encoding,
        rhs_encoding,
        pair_counts(lhs_encoding, rhs_encoding),
        batch_tokenize(lhs_encoding, mode),
        config,
    )
    reference = figure2_reference.mine_constant(lhs, rhs, mode, config)
    assert _tableau(kernel) == _tableau(reference)
    return reference


def mine_variable(lhs, rhs, mode, config=None):
    """The variable candidates, once both routes agree."""
    config = config or DiscoveryConfig()
    lhs_encoding, rhs_encoding = encode_column(lhs), encode_column(rhs)
    kernel = mine_variable_kernel(
        lhs_encoding, rhs_encoding, pair_counts(lhs_encoding, rhs_encoding), mode, config
    )
    reference = figure2_reference.mine_variable(lhs, rhs, mode, config)
    assert _summary(kernel) == _summary(reference)
    return reference


def _summary(candidates):
    return [
        (c.pattern_text, c.coverage, c.agreement, c.n_blocks, c.n_multi_blocks, c.description)
        for c in candidates
    ]


class TestConstantMinerOnZips:
    LHS = [f"900{i:02d}" for i in range(10)] + [f"606{i:02d}" for i in range(10)]
    RHS = ["Los Angeles"] * 10 + ["Chicago"] * 10

    def test_finds_one_rule_per_city(self):
        rows = mine_constant(self.LHS, self.RHS, mode="prefix")
        by_rhs = {row.rhs_constant: row for row in rows}
        assert set(by_rhs) == {"Los Angeles", "Chicago"}
        # the LA rule must cover every 900xx zip and reject the Chicago zips
        la_pattern = by_rhs["Los Angeles"].lhs_pattern
        assert all(la_pattern.matches(zip_code) for zip_code in self.LHS[:10])
        assert not any(la_pattern.matches(zip_code) for zip_code in self.LHS[10:])
        chicago_pattern = by_rhs["Chicago"].lhs_pattern
        assert all(chicago_pattern.matches(zip_code) for zip_code in self.LHS[10:])

    def test_redundant_specific_patterns_are_suppressed(self):
        rows = mine_constant(self.LHS, self.RHS, mode="prefix")
        # prefixes like 9000, 90001 cover no additional tuples and must be dropped
        assert len(rows) == 2

    def test_coverage(self):
        rows = mine_constant(self.LHS, self.RHS, mode="prefix")
        encoding = encode_column(self.LHS)
        assert figure2_reference.coverage(rows, self.LHS) == 1.0
        assert coverage_kernel(rows, encoding) == 1.0
        assert figure2_reference.coverage([], self.LHS) == 0.0
        assert coverage_kernel([], encoding) == 0.0

    def test_coverage_ignores_empty_values(self):
        lhs = self.LHS + ["", ""]
        rows = mine_constant(lhs, self.RHS + ["x", "y"], mode="prefix")
        assert figure2_reference.coverage(rows, lhs) == 1.0
        assert coverage_kernel(rows, encode_column(lhs)) == 1.0

    def test_dirty_rhs_within_tolerance(self):
        rhs = list(self.RHS)
        rhs[0] = "New York"  # one error out of ten LA rows
        config = DiscoveryConfig(allowed_violation_ratio=0.15)
        rows = mine_constant(self.LHS, rhs, mode="prefix", config=config)
        la_rows = [r for r in rows if r.rhs_constant == "Los Angeles"]
        assert la_rows and list(la_rows[0].violating_tuple_ids) == [0]


class TestConstantMinerOnNames:
    LHS = [
        "Holloway, Donald E.",
        "Kimbell, Donald",
        "Smith, Donald R.",
        "Jones, Stacey R.",
        "Otillio, Stacey",
    ]
    RHS = ["M", "M", "M", "F", "F"]

    def test_finds_first_name_rules(self):
        rows = mine_constant(self.LHS, self.RHS, mode="token")
        patterns = {row.pattern_text: row.rhs_constant for row in rows}
        assert patterns.get("\\A*,\\ Donald\\A*") == "M"
        assert any("Stacey" in text for text in patterns)


class TestVariableMinerPrefix:
    def test_finds_three_digit_zip_prefix(self):
        lhs, rhs = [], []
        for prefix, city in (("900", "LA"), ("906", "Whittier"), ("606", "Chicago"), ("613", "Ottawa")):
            for i in range(12):
                lhs.append(f"{prefix}{i:02d}")
                rhs.append(city)
        config = DiscoveryConfig(min_coverage=0.8)
        candidates = mine_variable(lhs, rhs, mode="prefix", config=config)
        assert len(candidates) == 1
        candidate = candidates[0]
        # 2-digit prefixes mix LA/Whittier and Chicago/Ottawa, so the miner
        # must settle on the 3-digit prefix.
        assert candidate.constrained_pattern.to_text() == "⟨\\D{3}⟩\\D{2}"
        assert candidate.agreement == 1.0
        assert candidate.n_blocks == 4

    def test_prefers_most_general_prefix(self):
        lhs = [f"90{i:03d}" for i in range(20)] + [f"60{i:03d}" for i in range(20)]
        rhs = ["CA"] * 20 + ["IL"] * 20
        candidates = mine_variable(lhs, rhs, mode="prefix")
        assert candidates[0].constrained_pattern.to_text() == "⟨\\D⟩\\D{4}"

    def test_longest_prefix_tried_is_one_shorter_than_the_value(self):
        # 4-character codes: only the 3-character prefix separates the RHS
        lhs, rhs = [], []
        for prefix, label in (("AB1", "w"), ("AB2", "x"), ("AC1", "y"), ("AC2", "z")):
            for digit in range(10):
                lhs.append(f"{prefix}{digit}")
                rhs.append(label)
        candidates = mine_variable(lhs, rhs, mode="prefix")
        assert [c.constrained_pattern.project("AB17") for c in candidates] == [("AB1",)]
        assert candidates[0].n_blocks == 4

    def test_no_candidate_when_rhs_is_random_per_row(self):
        lhs = [f"{i:05d}" for i in range(40)]
        rhs = [f"city{i}" for i in range(40)]
        assert mine_variable(lhs, rhs, mode="prefix") == []

    def test_no_candidate_for_tiny_input(self):
        assert mine_variable(["90001"], ["LA"], mode="prefix") == []

    def test_violations_within_tolerance_still_accepted(self):
        lhs = [f"900{i:02d}" for i in range(50)]
        rhs = ["LA"] * 48 + ["NY", "NY"]
        config = DiscoveryConfig(allowed_violation_ratio=0.1, min_coverage=0.5)
        candidates = mine_variable(lhs, rhs, mode="prefix", config=config)
        assert candidates
        assert candidates[0].agreement >= 0.9


class TestVariableMinerTokens:
    def test_finds_first_name_position(self):
        lhs, rhs = [], []
        names = [("Donald", "M"), ("Stacey", "F"), ("Alan", "M"), ("Mary", "F")]
        # five surnames against four first names so the surname does NOT
        # accidentally determine the gender
        surnames = ["Holloway,", "Jones,", "Kimbell,", "Smith,", "Otillio,"]
        for i in range(40):
            first, gender = names[i % len(names)]
            lhs.append(f"{surnames[i % len(surnames)]} {first}")
            rhs.append(gender)
        candidates = mine_variable(lhs, rhs, mode="token")
        assert len(candidates) == 1
        candidate = candidates[0]
        assert "determines the RHS" in candidate.description
        q = candidate.constrained_pattern
        # tuples sharing the first name (token 1) are equivalent
        assert q.equivalent("Holloway, Donald", "Smith, Donald")
        assert not q.equivalent("Holloway, Donald", "Jones, Stacey")

    def test_surname_position_is_rejected_when_it_does_not_determine(self):
        # token 0 (the surname) does NOT determine gender here, token 1 does
        lhs = ["Holloway, Donald", "Holloway, Stacey", "Jones, Donald", "Jones, Stacey"] * 5
        rhs = ["M", "F", "M", "F"] * 5
        candidates = mine_variable(lhs, rhs, mode="token")
        if candidates:  # if anything is found it must be the first-name position
            q = candidates[0].constrained_pattern
            assert q.equivalent("Holloway, Donald", "Jones, Donald")

    def test_token_past_max_constrained_token_position_is_not_mined(self):
        # only the last token determines the RHS; every earlier position
        # holds one word, so it forms a single block
        city = {"x": "X", "y": "Y", "z": "Z"}
        rhs = [city[key] for key in city] * 10
        at_3 = [f"a b c {key}" for key in city] * 10
        at_4 = [f"a b c d {key}" for key in city] * 10
        assert MAX_CONSTRAINED_TOKEN_POSITION == 3
        found = mine_variable(at_3, rhs, mode="token")
        assert [c.description for c in found] == ["the token at position 3 determines the RHS"]
        assert mine_variable(at_4, rhs, mode="token") == []

    def test_empty_values_are_ignored(self):
        lhs = ["", "Holloway, Donald", "Smith, Donald", "Jones, Stacey", "Brown, Stacey"]
        rhs = ["M", "M", "M", "F", "F"]
        candidates = mine_variable(lhs, rhs, mode="token", config=DiscoveryConfig(min_coverage=0.5))
        assert isinstance(candidates, list)


class TestGreedySelection:
    def test_selection_key_orders_support_then_agreement_then_text(self):
        keys = [
            selection_key(3, 1.0, "\\A*x"),
            selection_key(4, 0.5, "\\A*xyz"),
            selection_key(4, 1.0, "\\A*xy"),
            selection_key(4, 1.0, "\\A*ab"),
            selection_key(4, 1.0, "\\A*b"),
        ]
        assert sorted(keys) == [keys[4], keys[3], keys[2], keys[1], keys[0]]

    def test_empty_text_bounds_every_pattern_of_its_support(self):
        assert selection_key(4, 0.75, "") < selection_key(4, 0.75, "a")

    @pytest.mark.parametrize(
        "n_new,already_covered,expected",
        [(0, False, False), (1, False, True), (1, True, False), (2, True, True), (5, True, True)],
    )
    def test_accepts(self, n_new, already_covered, expected):
        assert accepts(n_new, already_covered, min_support=2) is expected
