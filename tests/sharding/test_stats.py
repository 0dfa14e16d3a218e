"""Tests for the literal-prefix narrowing and pattern lookups of the
pair-group statistic."""

import pytest

from repro.constrained.constrained_pattern import ConstrainedPattern
from repro.patterns import parse_pattern
from repro.perf.memo import MatchMemo
from repro.sharding.stats import (
    MergedPairGroups,
    extract_pair_groups,
    narrow_candidates_by_prefix,
)

MAX = "\U0010ffff"


class TestNarrowCandidatesByPrefix:
    def test_boundaries(self):
        values = sorted(["899", "900", "9000", "901", "91"])
        assert narrow_candidates_by_prefix(values, parse_pattern("900\\D*")) == ["900", "9000"]

    def test_empty_column(self):
        assert narrow_candidates_by_prefix([], parse_pattern("900\\D*")) == []

    def test_no_literal_prefix_keeps_every_value(self):
        values = ["1", "2", "a"]
        assert narrow_candidates_by_prefix(values, parse_pattern("\\D")) is values

    def test_constrained_pattern_uses_its_first_segment_prefix(self):
        values = sorted([f"850{i:07d}" for i in range(5)] + [f"607{i:07d}" for i in range(5)])
        narrowed = narrow_candidates_by_prefix(values, ConstrainedPattern.parse("⟨850⟩\\D{7}"))
        assert narrowed == [f"850{i:07d}" for i in range(5)]

    @pytest.mark.parametrize(
        "prefix, expected",
        [
            # the last character is the largest code point: bump the one before
            ("a" + MAX, ["a" + MAX, "a" + MAX + "1"]),
            # nothing left to bump: every value from the prefix on
            (MAX, [MAX, MAX + "1", MAX + MAX]),
            (MAX + MAX, [MAX + MAX]),
            # the largest-but-one code point bumps to the largest
            ("\U0010fffe", ["\U0010fffe", "\U0010fffe1"]),
        ],
    )
    def test_prefixes_ending_in_the_largest_code_point(self, prefix, expected):
        values = sorted(
            ["a", "a" + MAX, "a" + MAX + "1", "b", "\U0010fffe", "\U0010fffe1",
             MAX, MAX + "1", MAX + MAX]
        )
        pattern = parse_pattern(prefix + "\\D*")
        assert pattern.literal_prefix() == prefix
        assert narrow_candidates_by_prefix(values, pattern) == expected


class TestMergedPairGroupLookups:
    @pytest.fixture
    def merged(self):
        zips = ["90001", "90002", "60601", "60601", "10001", "banana"]
        return MergedPairGroups(extract_pair_groups(zips, ["x"] * len(zips), 0))

    def test_pattern_lookup_tests_only_the_prefix_slice(self, merged):
        memo = MatchMemo()
        assert merged.matching_values(parse_pattern("900\\D{2}"), memo) == ["90001", "90002"]
        # only the "900" slice reached the matcher
        assert memo.hits + memo.misses == 2
        assert set(merged.matching_values(parse_pattern("\\D{5}"), memo)) == {
            "90001", "90002", "60601", "10001"
        }
        assert memo.hits + memo.misses == 2 + merged.n_distinct

    def test_constrained_and_constant_lookups(self, merged):
        memo = MatchMemo()
        q = ConstrainedPattern.parse("⟨\\D{3}⟩\\D{2}")
        assert set(merged.matching_values(q, memo)) == {"90001", "90002", "60601", "10001"}
        assert merged.matching_values("60601", memo) == ["60601"]
        assert merged.matching_values("nope", memo) == []
