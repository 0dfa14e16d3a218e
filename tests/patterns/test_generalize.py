"""Tests for string → pattern generalization and pattern histograms.

Values go through a shape table (``ShapeTable``) as every caller in
``src/`` does; the literal-prefix cases pin the per-value reference
the mining equivalence gates compare against."""

from figure2_reference import generalize_with_literal_prefix

from repro.kernels.encoder import ShapeTable, encode_column
from repro.patterns.alphabet import LEAF_CLASSES, CharClass
from repro.patterns.generalize import PatternHistogram as _Histogram, generalize, shape_pattern


def signature_of(value):
    shapes = ShapeTable([value])
    return tuple(LEAF_CLASSES[class_id] for class_id in shapes.run_classes.tolist())


def generalize_string(value, level=1):
    return shape_pattern(ShapeTable([value]), 0, level)


def generalize_strings(values):
    return generalize(ShapeTable(values), range(len(values)))


def PatternHistogram(values):
    encoding = encode_column(values)
    return _Histogram(encoding.shapes(), encoding.counts())


class TestSignature:
    def test_zip_signature(self):
        assert signature_of("90001") == (CharClass.DIGIT,)

    def test_name_signature(self):
        assert signature_of("John") == (CharClass.UPPER, CharClass.LOWER)

    def test_mixed_signature(self):
        assert signature_of("F-9-107") == (
            CharClass.UPPER,
            CharClass.SYMBOL,
            CharClass.DIGIT,
            CharClass.SYMBOL,
            CharClass.DIGIT,
        )

    def test_empty_signature(self):
        assert signature_of("") == ()


class TestGeneralizeString:
    def test_level_zero_is_literal(self):
        pattern = generalize_string("90001", level=0)
        assert pattern.matches("90001")
        assert not pattern.matches("90002")

    def test_level_one_exact_counts(self):
        assert generalize_string("90001", level=1).to_text() == "\\D{5}"
        assert generalize_string("John", level=1).to_text() == "\\LU\\LL{3}"

    def test_level_one_matches_value(self):
        for value in ("90001", "John Charles", "F-9-107", "CHEMBL25"):
            assert generalize_string(value, level=1).matches(value)

    def test_level_two_plus_quantifiers(self):
        pattern = generalize_string("John", level=2)
        assert pattern.matches("John")
        assert pattern.matches("Jonathan")
        assert not pattern.matches("JOHN")

    def test_level_three_any_star(self):
        assert generalize_string("anything", level=3).to_text() == "\\A*"

    def test_empty_string(self):
        pattern = generalize_string("", level=1)
        assert pattern.matches("")


class TestGeneralizeStrings:
    def test_merges_equal_counts(self):
        pattern = generalize_strings(["90001", "60601", "10001"])
        assert pattern.to_text() == "\\D{5}"

    def test_merges_different_counts_into_range(self):
        pattern = generalize_strings(["John", "Jo", "Jonathan"])
        assert pattern is not None
        for value in ("John", "Jo", "Jonathan", "Kim"):
            assert pattern.matches(value) == (value[0].isupper() and 1 <= len(value) - 1 <= 7)

    def test_returns_none_for_mixed_signatures(self):
        assert generalize_strings(["90001", "John"]) is None

    def test_returns_none_for_empty_input(self):
        assert generalize_strings([]) is None

    def test_covers_every_input(self):
        values = ["Holloway,", "Jones,", "Kimbell,", "Mallack,"]
        pattern = generalize_strings(values)
        assert pattern is not None
        for value in values:
            assert pattern.matches(value)

    def test_single_value(self):
        pattern = generalize_strings(["90001"])
        assert pattern.to_text() == "\\D{5}"


class TestGeneralizeWithLiteralPrefix:
    def test_zip_prefix(self):
        pattern = generalize_with_literal_prefix(["90001", "90002", "90099"], 3)
        assert pattern.to_text() == "900\\D{2}"

    def test_phone_prefix(self):
        values = ["8505467600", "8501234567", "8509999999"]
        pattern = generalize_with_literal_prefix(values, 3)
        assert pattern.to_text() == "850\\D{7}"

    def test_rejects_non_shared_prefix(self):
        assert generalize_with_literal_prefix(["90001", "60601"], 3) is None

    def test_prefix_longer_than_value(self):
        assert generalize_with_literal_prefix(["90"], 3) is None

    def test_whole_value_prefix(self):
        pattern = generalize_with_literal_prefix(["90001", "90001"], 5)
        assert pattern.to_text() == "90001"

    def test_empty_input(self):
        assert generalize_with_literal_prefix([], 2) is None

    def test_mixed_suffix_signatures_fall_back_to_any_star(self):
        pattern = generalize_with_literal_prefix(["AB12", "ABx-"], 2)
        assert pattern is not None
        assert pattern.matches("AB12")
        assert pattern.matches("ABx-")


class TestPatternHistogram:
    def test_counts_by_pattern(self):
        histogram = PatternHistogram(["90001", "90002", "1234", "abcd"])
        entries = {e.text: e.count for e in histogram.entries()}
        assert entries["\\D{5}"] == 2
        assert entries["\\D{4}"] == 1
        assert entries["\\LL{4}"] == 1
        assert histogram.total == 4

    def test_entries_sorted_by_frequency(self):
        histogram = PatternHistogram(["90001", "90002", "1234"])
        assert histogram.entries()[0].text == "\\D{5}"

    def test_examples_are_capped(self):
        histogram = PatternHistogram([f"{i:05d}" for i in range(10_000, 10_050)])
        entry = histogram.entries()[0]
        assert len(entry.examples) == 3

    def test_empty_histogram(self):
        histogram = PatternHistogram([])
        assert histogram.total == 0
        assert histogram.entries() == []
