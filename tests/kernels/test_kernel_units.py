"""Unit tests of the columnar kernel primitives.

Each kernel's ordering/tie-break contract is pinned here directly —
encoder code assignment, batch-matcher soundness against the NFA,
pair-group key orders (including the inner-order counterexample that
distinguishes first-occurrence-within-group from global code order),
triple-exact batch tokenization, and the lazy constant-mining walk
against the eager literal loop (``tests/figure2_reference.py``) on the
cases real datasets rarely reach (re-queued entries, same-text ties, a
tableau cut at ``MAX_TABLEAU_ROWS``).
"""

from __future__ import annotations

import random

import figure2_reference
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen import build_dataset
from repro.dataset.rowids import row_ids
from repro.discovery import DiscoveryConfig, PfdDiscoverer
from repro.kernels.encoder import (
    ALL_CLASS_BITS,
    CLASS_BITS,
    ColumnEncoding,
    encode_column,
    signature_bits,
)
from repro.kernels.groupby import pair_groups_kernel
from repro.kernels.match import batch_matching_values, batch_verdicts, pattern_class_mask
from repro.kernels.mine import MAX_TABLEAU_ROWS, mine_constant_kernel, pair_counts
from repro.kernels.tokenize import NGRAM_SIZE, batch_tokenize, value_triples
from repro.patterns import parse_pattern
from repro.patterns.alphabet import CharClass
from repro.perf.memo import MatchMemo
from repro.perf.timers import StageTimers
from repro.sharding.stats import extract_pair_groups

np = pytest.importorskip("numpy")


class TestEncoder:
    def test_codes_are_first_appearance_order(self):
        encoding = encode_column(["b", "a", "b", "c", "a"])
        assert encoding.distinct == ["b", "a", "c"]
        assert encoding.codes.tolist() == [0, 1, 0, 2, 1]
        assert encoding.codes.dtype == np.int32

    def test_rows_by_code_partition(self):
        values = ["x", "y", "x", "z", "y", "x"]
        encoding = encode_column(values)
        rows = encoding.rows_by_code()
        assert [r.tolist() for r in rows] == [[0, 2, 5], [1, 4], [3]]
        assert encoding.counts().tolist() == [3, 2, 1]

    def test_empty_column(self):
        encoding = encode_column([])
        assert encoding.n_rows == 0
        assert encoding.n_distinct == 0
        assert encoding.rows_by_code() == []

    def test_lengths_and_signatures(self):
        encoding = encode_column(["Ab1", "", "??"])
        assert encoding.lengths().tolist() == [3, 0, 2]
        upper, lower, digit, symbol = (
            CLASS_BITS[CharClass.UPPER],
            CLASS_BITS[CharClass.LOWER],
            CLASS_BITS[CharClass.DIGIT],
            CLASS_BITS[CharClass.SYMBOL],
        )
        assert encoding.signatures().tolist() == [upper | lower | digit, 0, symbol]

    def test_signature_bits_unicode(self):
        # the paper's alphabet is ASCII: anything else is a Symbol
        assert signature_bits("É") == CLASS_BITS[CharClass.SYMBOL]
        assert signature_bits("雪") == CLASS_BITS[CharClass.SYMBOL]
        assert signature_bits("A1") == (
            CLASS_BITS[CharClass.UPPER] | CLASS_BITS[CharClass.DIGIT]
        )


class TestBatchMatcher:
    PATTERNS = ["\\D{2}", "90\\D{3}", "\\LU{2}", "\\A{3}", "xy", "\\D+\\S", "\\LL{3}"]

    def _values(self):
        rng = random.Random(7)
        alphabet = "AaBb01 ?-É雪"
        values = [""]
        for _ in range(300):
            n = rng.randint(1, 8)
            values.append("".join(rng.choice(alphabet) for _ in range(n)))
        values += ["90210", "xy", "AA", "Aaa", "90", "012x"]
        return values

    @pytest.mark.parametrize("text", PATTERNS)
    def test_verdicts_equal_nfa(self, text):
        pattern = parse_pattern(text)
        values = self._values()
        expected = [pattern.matches(v) for v in values]
        assert batch_verdicts(pattern, values) == expected
        # small batches take the scalar loop, large ones the numpy path;
        # both must agree with the NFA
        assert batch_verdicts(pattern, values[:5]) == expected[:5]

    def test_memo_tables_shared_with_scalar_path(self):
        pattern = parse_pattern("\\D{5}")
        memo = MatchMemo()
        values = ["90210", "abcde", "12345"]
        verdicts = batch_verdicts(pattern, values, memo=memo)
        assert verdicts == [True, False, True]
        # the scalar matcher reads the same table: no new misses
        matches = memo.matcher(pattern)
        before_misses = memo.misses
        assert [matches(v) for v in values] == verdicts
        assert memo.misses == before_misses

    def test_prefiltered_rejections_are_cached(self):
        pattern = parse_pattern("ab\\D{3}")
        memo = MatchMemo()
        values = [f"zz{i:04d}" for i in range(100)]  # all fail the prefix
        assert batch_verdicts(pattern, values, memo=memo) == [False] * 100
        again = batch_verdicts(pattern, values, memo=memo)
        assert again == [False] * 100
        assert memo.hits >= 100

    def test_class_mask_any_disables_filter(self):
        assert pattern_class_mask(parse_pattern("\\A{3}")) == ALL_CLASS_BITS
        digit_mask = pattern_class_mask(parse_pattern("\\D{5}"))
        assert digit_mask == CLASS_BITS[CharClass.DIGIT]

    def test_matching_values_preserves_order(self):
        pattern = parse_pattern("\\D{2}")
        values = ["99", "x", "10", "123", "07"]
        assert batch_matching_values(pattern, values) == ["99", "10", "07"]


def grouped(lhs, rhs):
    """The groupby kernel over two freshly encoded columns."""
    return pair_groups_kernel(encode_column(lhs), encode_column(rhs))


class TestPairGroupsKernel:
    def test_matches_scalar_extractor_exactly(self):
        lhs = ["b", "a", "a", "b", "c", "a"]
        rhs = ["x", "y", "x", "x", "z", "y"]
        kernel = grouped(lhs, rhs)
        scalar = extract_pair_groups(lhs, rhs, 0)
        assert kernel == scalar
        assert list(kernel) == list(scalar)
        for value in scalar:
            assert list(kernel[value]) == list(scalar[value])

    def test_inner_order_is_first_occurrence_within_group(self):
        # rhs "y" gets a smaller global code than "x" within lhs "a",
        # but "a"'s first row pairs with "y" — the counterexample that
        # breaks a global-code-order implementation
        lhs = ["b", "a", "a"]
        rhs = ["x", "y", "x"]
        kernel = grouped(lhs, rhs)
        assert list(kernel["a"]) == ["y", "x"]
        assert kernel == extract_pair_groups(lhs, rhs, 0)

    def test_rows_are_encoding_positions(self):
        lhs = ["a", "a", "b"]
        rhs = ["x", "x", "y"]
        kernel = grouped(lhs, rhs)
        assert kernel == {"a": {"x": row_ids([0, 1])}, "b": {"y": row_ids([2])}}
        # rows are compact arrays but still iterate as plain Python ints
        assert all(
            isinstance(row, int)
            for by_rhs in kernel.values()
            for rows in by_rhs.values()
            for row in rows
        )

    def test_empty_and_single_row(self):
        assert grouped([], []) == {}
        assert grouped(["a"], ["x"]) == {"a": {"x": row_ids([0])}}


class TestBatchTokenize:
    COLUMNS = [
        ["New York", "  padded  ", "one", "", "quote's", '"quoted"'],
        ["90210", "902", "", "1", "abcdef"],
        ["a\nb", "tab\tsep", "雪 city", "mixed, punct."],
    ]

    @pytest.mark.parametrize("mode", ["token", "ngram", "prefix"])
    @pytest.mark.parametrize("column", COLUMNS, ids=["words", "codes", "weird"])
    def test_triples_equal_literal_tokens(self, mode, column):
        encoding = encode_column(column)
        triples = batch_tokenize(encoding, mode)
        assert triples == [
            tuple(figure2_reference.tokens(value, mode)) for value in encoding.distinct
        ]

    def test_equal_tokens_of_different_values_are_one_object(self):
        # fresh strings, so only the column's intern dict can share them
        column = ["".join(["New ", "York"]), "".join(["York ", "City"])]
        new_york, york_city = batch_tokenize(encode_column(column), "token")
        assert new_york[1][0] == york_city[0][0] == "York"
        assert new_york[1][0] is york_city[0][0]

    def test_unknown_mode_raises(self):
        encoding = encode_column(["x"])
        with pytest.raises(ValueError):
            batch_tokenize(encoding, "chunk")


class TestValueTriples:
    """Literal expectations for the three token modes of one value."""

    @staticmethod
    def triples(value, mode):
        return value_triples(value, mode, {})

    def test_basic_ngrams(self):
        triples = self.triples("90001", "ngram")
        assert [text for _, _, text in triples] == ["900", "000", "001"]
        assert [position for _, position, _ in triples] == [0, 1, 2]

    def test_ngram_equal_to_length(self):
        assert self.triples("abc", "ngram") == (("abc", 0, "abc"),)

    def test_ngram_longer_than_value(self):
        assert self.triples("ab", "ngram") == ()

    def test_ngram_mode_keeps_repeated_grams(self):
        triples = self.triples("900001", "ngram")
        assert [text for _, _, text in triples] == ["900", "000", "000", "001"]
        # equal grams are interned to one object
        assert triples[1][0] is triples[2][0]

    def test_prefix_sizes(self):
        triples = self.triples("90001", "prefix")
        assert [key for key, _, _ in triples] == ["9", "90", "900", "9000", "90001"]
        assert all(position == 0 for _, position, _ in triples)

    def test_prefix_sizes_stop_at_five(self):
        triples = self.triples("9000123456", "prefix")
        assert [key for key, _, _ in triples] == ["9", "90", "900", "9000", "90001"]

    def test_prefix_of_a_short_value(self):
        assert [key for key, _, _ in self.triples("ab", "prefix")] == ["a", "ab"]

    def test_token_mode(self):
        triples = self.triples("Smith, John", "token")
        assert triples == (("Smith", 0, "Smith,"), ("John", 1, "John"))

    @given(st.text(alphabet="ab1 -.", min_size=1, max_size=12))
    def test_ngram_count_and_offsets(self, value):
        triples = self.triples(value, "ngram")
        assert len(triples) == max(0, len(value) - NGRAM_SIZE + 1)
        for key, start, text in triples:
            assert key == text == value[start : start + NGRAM_SIZE]


def _tableau(candidates):
    return [
        (
            c.pattern_text,
            c.rhs_constant,
            c.support,
            c.agreement,
            list(c.covered_tuple_ids),
            list(c.violating_tuple_ids),
            c.source_token,
            c.source_position,
        )
        for c in candidates
    ]


def mined_both_ways(lhs, rhs, mode="token", timers=None, **overrides):
    """(kernel tableau, eager literal reference tableau) of ``lhs → rhs``."""
    config = DiscoveryConfig(**overrides)
    encoding = encode_column(lhs)
    rhs_encoding = encode_column(rhs)
    kernel = mine_constant_kernel(
        encoding,
        rhs_encoding,
        pair_counts(encoding, rhs_encoding),
        batch_tokenize(encoding, mode),
        config,
        timers=timers,
    )
    reference = figure2_reference.mine_constant(lhs, rhs, mode, config)
    return _tableau(kernel), _tableau(reference)


class TestLazyConstantMining:
    def test_entry_losing_rows_in_verification_is_requeued(self):
        # ("x", 0) covers six rows before verification, but its pattern
        # x\A* rejects '"x" z': verified, it covers three and must sort
        # after the four-row "k" candidate, not where its bound put it
        lhs = ["x y"] * 3 + ['"x" z'] * 3 + ["w k"] * 4
        kernel, reference = mined_both_ways(lhs, ["r"] * 10)
        assert kernel == reference
        assert [(row[0], row[2]) for row in kernel[:2]] == [("\\A*\\ k", 4), ("x\\A*", 3)]

    def test_same_text_tie_keeps_first_appearance(self):
        # ("x", 2) and ("x", 1) both verify to \A*\ x with equal support
        # and agreement; ("x", 2) appears first, so it is kept first
        lhs = ["p b x"] * 2 + ["p x"] * 2
        rhs = ["r2"] * 2 + ["r1"] * 2
        kernel, reference = mined_both_ways(lhs, rhs)
        assert kernel == reference
        assert [(row[0], row[1], row[7]) for row in kernel] == [
            ("\\A*\\ x", "r2", 2),
            ("\\A*\\ x", "r1", 1),
        ]

    def test_tableau_stops_at_max_tableau_rows(self):
        # 80 three-row groups, each with its own first token and RHS
        # value: 80 pattern tuples pass, the tableau keeps the first 64
        lhs = [f"g{group} {i}" for group in range(80) for i in range(3)]
        rhs = [f"r{group}" for group in range(80) for _ in range(3)]
        kernel, reference = mined_both_ways(lhs, rhs)
        assert kernel == reference
        assert len(kernel) == MAX_TABLEAU_ROWS == 64

    def test_covered_entries_are_not_generalized(self):
        timers = StageTimers()
        lhs = [f"90{i % 10}1{i % 7}" for i in range(200)]
        kernel, reference = mined_both_ways(
            lhs, ["Beverly Hills"] * 200, mode="prefix", timers=timers
        )
        assert kernel == reference
        # "9" and "90" tie on every row, so both are generalized; "9"
        # wins on text and covers everything, and the 90 longer prefixes
        # are dropped on their bounds
        assert [row[0] for row in kernel] == ["9\\D{4}"]
        assert timers.count("generalize") == 2

    def test_generalizes_under_a_tenth_of_the_passing_entries(self):
        table = build_dataset("zip_city_state", n_rows=4000, seed=23).table
        discoverer = PfdDiscoverer()
        result = discoverer.discover_with_report(table)
        config = discoverer.config
        passing = 0
        for report in result.reports:
            rhs = table.column(report.rhs)
            index = figure2_reference.inverted_list(
                table.column(report.lhs), report.candidate.lhs_mode
            )
            for rows in index.values():
                if len(rows) < config.min_support:
                    continue
                counts = {}
                for row in rows:
                    counts[rhs[row]] = counts.get(rhs[row], 0) + 1
                value = max(counts, key=lambda v: (counts[v], v))
                if value != "" and counts[value] / len(rows) >= config.min_agreement:
                    passing += 1
        generalized = discoverer.timers.count("generalize")
        assert 0 < generalized < passing / 10


#: a tiny alphabet: many duplicate values, shared tokens and count ties;
#: the bracketed and quoted tokens make verification drop rows
_LHS_VALUES = st.sampled_from(
    ["", "a", "b", "a b", "b a", "ab", "a a", '"a"', '"a" b', "a,b", "b (a)", "aab", "(b) a"]
)
_RHS_VALUES = st.sampled_from(["", "x", "y", "z"])


@st.composite
def tie_heavy_pairs(draw):
    n_rows = draw(st.integers(min_value=1, max_value=24))
    lhs = draw(st.lists(_LHS_VALUES, min_size=n_rows, max_size=n_rows))
    rhs = draw(st.lists(_RHS_VALUES, min_size=n_rows, max_size=n_rows))
    return lhs, rhs


class TestLazyMiningProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        pair=tie_heavy_pairs(),
        mode=st.sampled_from(["token", "ngram", "prefix"]),
        min_support=st.sampled_from([1, 2, 3]),
        allowed_violation_ratio=st.sampled_from([0.0, 0.34, 0.5]),
    )
    def test_kernel_equals_reference(self, pair, mode, min_support, allowed_violation_ratio):
        lhs, rhs = pair
        kernel, reference = mined_both_ways(
            lhs,
            rhs,
            mode=mode,
            min_support=min_support,
            allowed_violation_ratio=allowed_violation_ratio,
        )
        assert kernel == reference
