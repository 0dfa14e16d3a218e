"""Tests for the pattern-tuple decision function ``f``.

The decision runs on one entry of the literal inverted list
(``tests/figure2_reference.py``); the pattern it synthesizes comes from
the builders ``src/`` shares with the kernels, pinned directly below.
"""

import detection_reference
import figure2_reference
import pytest

from repro.discovery.config import DiscoveryConfig
from repro.discovery.decision import contains_token_pattern
from repro.discovery.variable_miner import token_constraint_pattern


def decide_for(lhs, rhs, mode, key, position, config=None):
    config = config or DiscoveryConfig()
    rows = figure2_reference.inverted_list(lhs, mode)[(key, position)]
    return figure2_reference.decide(key, position, rows, lhs, rhs, config)


class TestPrefixEntries:
    LHS = ["90001", "90002", "90003", "90088", "60601"]
    RHS = ["Los Angeles"] * 4 + ["Chicago"]

    def test_accepts_agreeing_prefix(self):
        candidate = decide_for(self.LHS, self.RHS, "prefix", "900", 0)
        assert candidate is not None
        assert candidate.rhs_constant == "Los Angeles"
        assert candidate.pattern_text == "900\\D{2}"
        assert candidate.support == 4
        assert candidate.agreement == 1.0
        assert list(candidate.rows) == [0, 1, 2, 3]
        assert list(figure2_reference.covered_tuple_ids(candidate, self.LHS)) == [0, 1, 2, 3]

    def test_rejects_low_support(self):
        config = DiscoveryConfig(min_support=5)
        assert decide_for(self.LHS, self.RHS, "prefix", "900", 0, config) is None

    def test_rejects_disagreeing_rhs(self):
        rhs = ["Los Angeles", "Los Angeles", "New York", "New York", "Chicago"]
        candidate = decide_for(self.LHS, rhs, "prefix", "900", 0)
        assert candidate is None

    def test_tolerates_violations_within_ratio(self):
        lhs = [f"900{i:02d}" for i in range(20)]
        rhs = ["Los Angeles"] * 19 + ["New York"]
        config = DiscoveryConfig(allowed_violation_ratio=0.1)
        candidate = decide_for(lhs, rhs, "prefix", "900", 0, config)
        assert candidate is not None
        assert candidate.agreement == pytest.approx(0.95)
        assert list(candidate.violating_rows) == [19]
        assert list(figure2_reference.violating_tuple_ids(candidate, lhs, rhs)) == [19]

    def test_render_format(self):
        candidate = decide_for(self.LHS, self.RHS, "prefix", "900", 0)
        assert candidate.render() == "900\\D{2}::0, 4"

    def test_rejects_empty_rhs_majority(self):
        rhs = ["", "", "", "", "Chicago"]
        assert decide_for(self.LHS, rhs, "prefix", "900", 0) is None


class TestTokenEntries:
    LHS = [
        "Holloway, Donald E.",
        "Kimbell, Donald",
        "Smith, Donald R.",
        "Jones, Stacey R.",
    ]
    RHS = ["M", "M", "M", "F"]

    def test_builds_contains_token_pattern(self):
        candidate = decide_for(self.LHS, self.RHS, "token", "Donald", 1)
        assert candidate is not None
        assert candidate.rhs_constant == "M"
        # the tableau pattern has the Table 3 shape: \A*,\ Donald\A*
        assert candidate.pattern_text == "\\A*,\\ Donald\\A*"
        pattern = candidate.lhs_pattern
        assert pattern.matches("Holloway, Donald E.")
        assert pattern.matches("Kimbell, Donald")
        assert not pattern.matches("Jones, Stacey R.")

    def test_first_position_token_uses_prefix_shape(self):
        lhs = ["John Charles", "John Bosco", "Susan Boyle"]
        rhs = ["M", "M", "F"]
        candidate = decide_for(lhs, rhs, "token", "John", 0)
        assert candidate is not None
        assert candidate.lhs_pattern.matches("John Charles")
        assert candidate.lhs_pattern.matches("John Bosco")
        assert not candidate.lhs_pattern.matches("Susan Boyle")

    def test_rejects_token_with_mixed_rhs(self):
        lhs = ["Smith, Alex", "Brown, Alex"]
        rhs = ["M", "F"]
        assert decide_for(lhs, rhs, "token", "Alex", 1) is None

    def test_pattern_recheck_drops_rows(self):
        # ("x", 0) carries three '"x" z' rows whose value does not start
        # with the token: the pattern x\A* keeps the three "x y" rows only
        lhs = ["x y"] * 3 + ['"x" z'] * 3
        candidate = decide_for(lhs, ["r"] * 6, "token", "x", 0)
        assert candidate.pattern_text == "x\\A*"
        assert list(candidate.rows) == [0, 1, 2]
        assert candidate.lhs_values == ("x y",)
        assert list(figure2_reference.covered_tuple_ids(candidate, lhs)) == [0, 1, 2]


class TestContainsTokenPattern:
    def test_shared_separator_is_literal(self):
        pattern = contains_token_pattern("Donald", 1, ["Holloway, Donald E.", "Kimbell, Donald"])
        assert pattern.to_text() == "\\A*,\\ Donald\\A*"

    def test_mixed_separators_are_dropped(self):
        pattern = contains_token_pattern("Donald", 1, ["Holloway, Donald", "Kimbell Donald"])
        assert pattern.to_text() == "\\A*Donald"

    def test_token_ending_every_value_has_no_suffix(self):
        pattern = contains_token_pattern("L", 2, ["Ann B L", "Bo C L"])
        assert pattern.to_text() == "\\A*\\ L"

    def test_missing_token_yields_none(self):
        assert contains_token_pattern("Donald", 1, ["Donald Smith"]) is None

    def test_depends_on_the_set_of_values_only(self):
        values = ["Holloway, Donald E.", "Kimbell, Donald", "Smith, Donald R."]
        pattern = contains_token_pattern("Donald", 1, values)
        assert contains_token_pattern("Donald", 1, values[::-1] + values) == pattern


class TestTokenConstraintPattern:
    def test_generalizes_words_up_to_the_constrained_one(self):
        pattern = token_constraint_pattern([["Holloway,", "Donald"], ["Smith,", "Ann", "B."]], 1)
        assert detection_reference.equivalent(pattern, "Jones, Ann", "Smith, Ann B.")
        assert not detection_reference.equivalent(pattern, "Jones, Ann", "Jones, Bo")

    def test_differing_word_shapes_fall_back_to_any(self):
        pattern = token_constraint_pattern([["ab"], ["12"]], 0)
        assert pattern.to_text().startswith("⟨\\A+⟩")

    def test_depends_on_the_set_of_word_lists_only(self):
        words = [["Holloway,", "Donald"], ["Smith,", "Ann"]]
        assert token_constraint_pattern(words, 1) == token_constraint_pattern(
            words[::-1] + words, 1
        )
