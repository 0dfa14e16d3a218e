"""Tests for Pattern matching semantics (``s ↦ P``)."""

import pytest

from repro.patterns import Pattern, parse_pattern


class TestPaperExamples:
    """Example 1 and the λ patterns of the paper."""

    def test_example_1_zip_matches_d5(self):
        assert parse_pattern("\\D{5}").matches("90001")

    def test_example_1_zip_matches_d_star(self):
        assert parse_pattern("\\D*").matches("90001")

    def test_lambda_1_john(self):
        pattern = parse_pattern("John\\ \\A*")
        assert pattern.matches("John Charles")
        assert pattern.matches("John Bosco")
        assert not pattern.matches("Susan Orlean")

    def test_lambda_2_susan(self):
        pattern = parse_pattern("Susan\\ \\A*")
        assert pattern.matches("Susan Orlean")
        assert pattern.matches("Susan Boyle")
        assert not pattern.matches("John Charles")

    def test_lambda_3_zip_prefix(self):
        pattern = parse_pattern("900\\D{2}")
        assert pattern.matches("90001")
        assert pattern.matches("90004")
        assert not pattern.matches("91001")
        assert not pattern.matches("9000")
        assert not pattern.matches("900011")

    def test_lambda_4_capitalized_first_name(self):
        pattern = parse_pattern("\\LU\\LL*\\ \\A*")
        assert pattern.matches("John Charles")
        assert pattern.matches("Susan Boyle")
        assert not pattern.matches("john charles")
        assert not pattern.matches("John")

    def test_table_3_phone_patterns(self):
        assert parse_pattern("850\\D{7}").matches("8505467600")
        assert parse_pattern("607\\D{7}").matches("6073771300")
        assert not parse_pattern("850\\D{7}").matches("6073771300")

    def test_table_3_full_name_patterns(self):
        pattern = parse_pattern("\\A*,\\ Donald\\A*")
        assert pattern.matches("Holloway, Donald E.")
        assert not pattern.matches("Jones, Stacey R.")

    def test_table_3_zip_patterns(self):
        assert parse_pattern("6060\\D").matches("60601")
        assert parse_pattern("60\\D{3}").matches("60603")
        assert parse_pattern("95\\D{3}").matches("95603")
        assert not parse_pattern("6060\\D").matches("60613")


class TestQuantifierSemantics:
    def test_star_matches_empty(self):
        assert parse_pattern("\\A*").matches("")

    def test_plus_requires_at_least_one(self):
        pattern = parse_pattern("\\D+")
        assert not pattern.matches("")
        assert pattern.matches("1")
        assert pattern.matches("12345")

    def test_exact_count(self):
        pattern = parse_pattern("\\LL{3}")
        assert pattern.matches("abc")
        assert not pattern.matches("ab")
        assert not pattern.matches("abcd")

    def test_bounded_range(self):
        pattern = parse_pattern("\\D{2,4}")
        assert not pattern.matches("1")
        assert pattern.matches("12")
        assert pattern.matches("123")
        assert pattern.matches("1234")
        assert not pattern.matches("12345")

    def test_open_range(self):
        pattern = parse_pattern("\\D{3,}")
        assert not pattern.matches("12")
        assert pattern.matches("123")
        assert pattern.matches("123456789")

    def test_literal_quantifier(self):
        pattern = parse_pattern("a{2}b")
        assert pattern.matches("aab")
        assert not pattern.matches("ab")

    def test_empty_pattern_matches_only_empty_string(self):
        pattern = Pattern([])
        assert pattern.matches("")
        assert not pattern.matches("x")


class TestMatchingBackends:
    """The compiled-regex backend and the NFA simulation must agree."""

    CASES = [
        ("\\D{5}", ["90001", "1234", "123456", "abcde", ""]),
        ("\\LU\\LL*\\ \\A*", ["John Charles", "john x", "J x", "John", ""]),
        ("900\\D{2}", ["90001", "90011", "89001", "900", "900123"]),
        ("\\A*,\\ Donald\\A*", ["Holloway, Donald E.", "Donald", "X, Donald", ", Donald"]),
        ("\\S+", ["---", "a-", " ", ""]),
        ("\\D{2,4}", ["1", "12", "1234", "12345", "ab"]),
        ("\\D{3,}", ["12", "123", "123456789", "123a"]),
        ("\\LL{3}", ["abc", "ab", "abcd", "aBc"]),
        ("a{2}b", ["aab", "ab", "aaab", "aa"]),
        ("\\LU{2}\\D+", ["CA9", "C9", "CA", "ca9", "CA90210"]),
        ("\\A*", ["", "anything at all", "é"]),
        ("\\LL+\\D*", ["abc", "abc123", "123", "", "ab1c"]),
    ]

    @pytest.mark.parametrize("text,values", CASES)
    def test_regex_and_nfa_agree(self, text, values):
        pattern = parse_pattern(text)
        for value in values:
            assert pattern.matches(value) == pattern.nfa.matches_string(value), (text, value)


class TestStructuralAccessors:
    def test_literal_prefix(self):
        assert parse_pattern("850\\D{7}").literal_prefix() == "850"
        assert parse_pattern("\\D{5}").literal_prefix() == ""
        assert parse_pattern("6060\\D").literal_prefix() == "6060"

    def test_min_max_length(self):
        pattern = parse_pattern("900\\D{2}")
        assert pattern.min_length() == 5
        assert pattern.max_length() == 5

    def test_unbounded_max_length(self):
        pattern = parse_pattern("\\D+")
        assert pattern.min_length() == 1
        assert pattern.max_length() is None

    def test_concat(self):
        combined = Pattern.literal("900").concat(parse_pattern("\\D{2}"))
        assert combined.matches("90055")
        assert combined.to_text() == "900\\D{2}"

    def test_equality_and_hash(self):
        left = parse_pattern("900\\D{2}")
        right = parse_pattern("900\\D{2}")
        assert left == right
        assert hash(left) == hash(right)
        assert left != parse_pattern("900\\D{3}")

    def test_any_string_factory(self):
        assert Pattern.any_string().matches("anything at all 123 !@#")
        assert Pattern.any_string().matches("")

    def test_is_empty(self):
        assert Pattern([]).is_empty()
        assert parse_pattern("\\A*").is_empty()
        assert not parse_pattern("\\A+").is_empty()
