"""Tests for constrained patterns (``Q``, ``s(Q)``, ``≡_Q``)."""

import detection_reference
import figure2_reference
import pytest

from repro.constrained.constrained_pattern import (
    ConstrainedPattern,
    Segment,
    constrained_first_token,
    constrained_prefix,
    constrained_word_sequence,
)
from repro.errors import ConstraintError
from repro.patterns import Pattern, parse_pattern


class TestConstruction:
    def test_requires_at_least_one_segment(self):
        with pytest.raises(ConstraintError):
            ConstrainedPattern([])

    def test_requires_a_constrained_segment(self):
        with pytest.raises(ConstraintError):
            ConstrainedPattern([Segment(parse_pattern("\\D{5}"), False)])

    def test_whole_value(self):
        pattern = ConstrainedPattern.whole_value(parse_pattern("\\D{5}"))
        assert pattern.matches("90001")
        assert pattern.project("90001") == ("90001",)

    def test_parse_angle_bracket_syntax(self):
        pattern = ConstrainedPattern.parse("⟨\\D{3}⟩\\D{2}")
        assert len(pattern.segments) == 2
        assert pattern.segments[0].constrained
        assert not pattern.segments[1].constrained

    def test_parse_ascii_brackets(self):
        pattern = ConstrainedPattern.parse("<\\D{3}>\\D{2}")
        assert pattern.project("90001") == ("900",)

    def test_parse_unbalanced_brackets(self):
        with pytest.raises(ConstraintError):
            ConstrainedPattern.parse("⟨\\D{3}\\D{2}")
        with pytest.raises(ConstraintError):
            ConstrainedPattern.parse("\\D{3}⟩\\D{2}")
        with pytest.raises(ConstraintError):
            ConstrainedPattern.parse("⟨⟨\\D{3}⟩⟩")

    def test_round_trip_via_to_text(self):
        original = ConstrainedPattern.parse("⟨\\D{3}⟩\\D{2}")
        assert ConstrainedPattern.parse(original.to_text()) == original

    def test_projection_holds_only_the_constrained_segments(self):
        q = ConstrainedPattern.parse("⟨\\D{3}⟩\\D{2}⟨\\LU\\LU⟩")
        assert q.project("90001CA") == ("900", "CA")
        assert q.project("9000CA") is None

    def test_unconstrained_literals_are_escaped_and_not_captured(self):
        # "(", "." and ")" are pattern literals, not regex syntax
        q = ConstrainedPattern.parse("⟨\\D{3}⟩(.\\D{2})")
        assert q.project("900(.12)") == ("900",)
        assert not q.matches("900(x12)")
        assert not q.matches("900a.12)")

    def test_equality_and_hash(self):
        left = ConstrainedPattern.parse("⟨\\D{3}⟩\\D{2}")
        right = ConstrainedPattern.parse("⟨\\D{3}⟩\\D{2}")
        assert left == right
        assert hash(left) == hash(right)


class TestPaperLambda5:
    """λ5: the first 3 digits of a 5-digit zip code determine the city."""

    @pytest.fixture
    def q(self):
        return constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}"))

    def test_embedded_pattern_matches_zip_codes(self, q):
        assert q.matches("90001")
        assert not q.matches("9000")
        assert not q.matches("9000x")

    def test_projection_is_the_prefix(self, q):
        assert q.project("90001") == ("900",)
        assert q.project("60601") == ("606",)
        assert q.project("banana") is None

    def test_equivalence_groups_same_prefix(self, q):
        assert detection_reference.equivalent(q, "90001", "90004")
        assert not detection_reference.equivalent(q, "90001", "60601")
        assert not detection_reference.equivalent(q, "90001", "banana")

    def test_to_text_shows_constrained_segment(self, q):
        assert q.to_text() == "⟨\\D{3}⟩\\D{2}"


class TestPaperLambda4:
    """λ4: one's first name determines one's gender."""

    @pytest.fixture
    def q(self):
        return constrained_first_token()

    def test_embedded_pattern(self, q):
        assert q.matches("John Charles")
        assert q.matches("Susan Boyle")
        assert not q.matches("john charles")
        assert not q.matches("John")

    def test_example_2_equivalence(self, q):
        # r1[name] ≡_Q1 r2[name] because both project to "John "
        assert detection_reference.equivalent(q, "John Charles", "John Bosco")
        assert not detection_reference.equivalent(q, "John Charles", "Susan Boyle")

    def test_projection_contains_first_name(self, q):
        assert q.project("John Charles") == ("John ",)

    def test_embedded_pattern_method(self, q):
        embedded = figure2_reference.embedded_pattern(q)
        assert embedded.matches("John Charles")
        assert embedded.to_text() == "\\LU\\LL*\\ \\A*"


class TestConstrainedWordSequence:
    def test_second_token_constrained(self):
        words = [parse_pattern("\\LU\\LL+\\S"), parse_pattern("\\LU\\LL+")]
        q = constrained_word_sequence(words, 1)
        assert q.matches("Holloway, Donald E.")
        assert q.project("Holloway, Donald E.") == ("Donald",)
        assert detection_reference.equivalent(q, "Holloway, Donald E.", "Kimbell, Donald")
        assert not detection_reference.equivalent(q, "Holloway, Donald E.", "Jones, Stacey R.")

    def test_invalid_constrained_index(self):
        with pytest.raises(ConstraintError):
            constrained_word_sequence([parse_pattern("\\LL+")], 5)

    def test_empty_word_list(self):
        with pytest.raises(ConstraintError):
            constrained_word_sequence([], 0)

    def test_without_trailing_any(self):
        q = constrained_word_sequence([parse_pattern("\\LL+")], 0, trailing_any=False)
        assert q.matches("abc")
        assert not q.matches("abc def")


class TestConstrainedPrefixFactory:
    def test_rejects_non_positive_length(self):
        with pytest.raises(ConstraintError):
            constrained_prefix(0, Pattern.any_string())

    def test_default_head_is_any_class(self):
        q = constrained_prefix(2, Pattern.any_string())
        assert q.to_text() == "⟨\\A{2}⟩\\A*"
        assert q.project("abcd") == ("ab",)

    def test_one_segment_is_constrained(self):
        q = constrained_prefix(2, Pattern.any_string())
        assert [s.constrained for s in q.segments] == [True, False]
