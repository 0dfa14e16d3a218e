"""Tests for the pattern-containment reference ``P ⊆ P'``."""

import string

import pytest

from containment_reference import pattern_contains
from repro.patterns import parse_pattern


def contains(inner_text: str, outer_text: str) -> bool:
    return pattern_contains(parse_pattern(inner_text), parse_pattern(outer_text))


class TestPaperExample:
    def test_example_1_d5_contained_in_d_star(self):
        # P1 = \D{5}, P2 = \D*: P1 ⊆ P2
        assert contains("\\D{5}", "\\D*")
        assert not contains("\\D*", "\\D{5}")


class TestBasicContainment:
    def test_every_pattern_contains_itself(self):
        for text in ("\\D{5}", "900\\D{2}", "\\LU\\LL*\\ \\A*", "abc"):
            assert contains(text, text)

    def test_literal_contained_in_its_class(self):
        assert contains("9", "\\D")
        assert contains("a", "\\LL")
        assert contains("Z", "\\LU")
        assert contains("-", "\\S")

    def test_class_not_contained_in_literal(self):
        assert not contains("\\D", "9")

    def test_classes_contained_in_any(self):
        for class_text in ("\\D", "\\LU", "\\LL", "\\S"):
            assert contains(class_text, "\\A")

    def test_sibling_classes_are_incomparable(self):
        assert not contains("\\D", "\\LU")
        assert not contains("\\LU", "\\LL")

    def test_everything_contained_in_any_star(self):
        for text in ("\\D{5}", "900\\D{2}", "\\LU\\LL*\\ \\A*", "abc", "\\A*"):
            assert contains(text, "\\A*")

    def test_any_star_not_contained_in_narrower(self):
        assert not contains("\\A*", "\\D*")


class TestQuantifierContainment:
    def test_exact_contained_in_star(self):
        assert contains("\\D{3}", "\\D*")
        assert contains("\\D{3}", "\\D+")

    def test_plus_contained_in_star(self):
        assert contains("\\D+", "\\D*")
        assert not contains("\\D*", "\\D+")

    def test_range_contained_in_wider_range(self):
        assert contains("\\D{2,3}", "\\D{1,4}")
        assert not contains("\\D{1,4}", "\\D{2,3}")

    def test_concatenation_refines(self):
        # 900\D{2} is a restriction of \D{5} and of \D{3}\D{2}
        assert contains("900\\D{2}", "\\D{5}")
        assert contains("900\\D{2}", "\\D{3}\\D{2}")
        assert not contains("\\D{5}", "900\\D{2}")

    def test_q2_contained_in_q1_from_example_2(self):
        # Q2 = \LU\LL*\ \A*\ \LU\LL* embedded, Q1 = \LU\LL*\ \A*
        assert contains("\\LU\\LL*\\ \\A*\\ \\LU\\LL*", "\\LU\\LL*\\ \\A*")

    def test_unrelated_literals(self):
        assert not contains("850\\D{7}", "607\\D{7}")


class TestEquivalence:
    """Equivalence is containment both ways."""

    def test_structurally_different_but_equivalent(self):
        for left, right in [("\\D\\D", "\\D{2}"), ("\\D{2,}", "\\D\\D\\D*")]:
            assert contains(left, right) and contains(right, left)

    def test_non_equivalent(self):
        assert not (contains("\\D{2}", "\\D{3}") and contains("\\D{3}", "\\D{2}"))


class TestContainmentConsistentWithSampling:
    """Randomized cross-check: if P ⊆ P', every sampled match of P matches P'."""

    PAIRS = [
        ("900\\D{2}", "\\D{5}"),
        ("\\D{3}", "\\D+"),
        ("John\\ \\A*", "\\LU\\LL*\\ \\A*"),
        ("\\LL{2,4}", "\\LL*"),
        ("a\\D{2}b", "\\A+"),
    ]

    @pytest.mark.parametrize("inner,outer", PAIRS)
    def test_sampled_strings_respect_containment(self, inner, outer):
        import random

        inner_pattern = parse_pattern(inner)
        outer_pattern = parse_pattern(outer)
        assert pattern_contains(inner_pattern, outer_pattern)
        rng = random.Random(13)
        samples = _sample_matches(inner_pattern, rng, count=40)
        for value in samples:
            assert inner_pattern.matches(value)
            assert outer_pattern.matches(value), value


_SAMPLE_ALPHABET = string.ascii_letters + string.digits + " -.,_/()#&@"


def _sample_matches(pattern, rng, count=20):
    """Generate random strings matching a pattern by walking its elements."""
    from repro.patterns.syntax import Literal

    samples = []
    for _ in range(count):
        parts = []
        for element in pattern.elements:
            minimum = element.quantifier.minimum
            maximum = element.quantifier.maximum
            reps = minimum if maximum is None else rng.randint(minimum, maximum)
            if maximum is None:
                reps = minimum + rng.randint(0, 3)
            for _ in range(reps):
                atom = element.atom
                if isinstance(atom, Literal):
                    parts.append(atom.char)
                else:
                    members = [c for c in _SAMPLE_ALPHABET if atom.char_class.contains_char(c)]
                    parts.append(rng.choice(members))
        samples.append("".join(parts))
    return samples
