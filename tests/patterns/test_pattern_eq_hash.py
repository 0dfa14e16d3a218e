"""Pattern equality/hashing semantics — patterns as cache and dict keys.

The shared compiled-pattern caches key on the Pattern value itself, so
structural equality and a stable hash are load-bearing: two patterns
built through different constructors must collide exactly when their
element tuples agree.
"""

import pickle

from repro.patterns import parse_pattern
from repro.patterns.pattern import Pattern
from repro.patterns.syntax import ONE, Element, Quantifier


class TestEquality:
    def test_equal_by_elements_regardless_of_construction(self):
        parsed = parse_pattern("900\\D{2}")
        rebuilt = Pattern(parsed.elements)
        assert parsed == rebuilt
        assert parsed is not rebuilt

    def test_literal_constructor_equals_parsed(self):
        assert Pattern.literal("abc") == parse_pattern("abc")

    def test_source_text_does_not_affect_equality(self):
        # Same elements, different original source strings.
        spelled = parse_pattern("a")
        copied = Pattern(spelled.elements, source="something else")
        assert spelled == copied
        assert hash(spelled) == hash(copied)

    def test_unequal_patterns(self):
        assert parse_pattern("\\D{5}") != parse_pattern("\\D{4}")
        assert parse_pattern("\\LU\\LL*") != parse_pattern("\\LL*\\LU")

    def test_not_equal_to_other_types(self):
        assert parse_pattern("abc") != "abc"
        assert parse_pattern("abc").__eq__("abc") is NotImplemented


class TestHashing:
    def test_equal_patterns_hash_equal(self):
        assert hash(parse_pattern("850\\D{7}")) == hash(
            Pattern(parse_pattern("850\\D{7}").elements)
        )

    def test_hash_is_stable_across_calls(self):
        pattern = parse_pattern("\\LU\\LL+\\ \\A*")
        assert hash(pattern) == hash(pattern)

    def test_usable_as_dict_key(self):
        cache = {}
        first = parse_pattern("606\\D{2}")
        second = Pattern(first.elements)
        cache[first] = "compiled"
        assert cache[second] == "compiled"
        cache[second] = "recompiled"
        assert len(cache) == 1

    def test_usable_in_sets(self):
        patterns = {
            parse_pattern("\\D{5}"),
            Pattern(parse_pattern("\\D{5}").elements),
            parse_pattern("\\D{4}"),
        }
        assert len(patterns) == 2

    def test_hash_matches_elements_tuple_convention(self):
        pattern = parse_pattern("90\\D*")
        assert hash(pattern) == hash(pattern.elements)


class TestPickling:
    def test_roundtrip_preserves_equality_and_matching(self):
        pattern = parse_pattern("850\\D{7}")
        assert pattern.matches("8505467600")
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone == pattern
        assert hash(clone) == hash(pattern)
        assert clone.matches("8505467600")
        assert not clone.matches("123")

    def test_roundtrip_preserves_source(self):
        pattern = parse_pattern("\\LU\\LL*")
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone.source == pattern.source


class TestQuantifierInteraction:
    def test_one_vs_explicit_single_quantifier(self):
        # ONE is Quantifier(1, 1) — however it is spelled, the element
        # tuples must compare equal for cache keying to work.
        explicit = Quantifier(1, 1)
        assert ONE == explicit
        atom = parse_pattern("\\D").elements[0].atom
        single = Pattern([Element(atom, ONE)])
        spelled = Pattern([Element(atom, explicit)])
        assert single == spelled
        assert hash(single) == hash(spelled)
