"""Tests for the NFA construction and the regex compilation backends."""

import re

import pytest

from repro.patterns import parse_pattern
from repro.patterns.nfa import build_nfa
from repro.patterns.parser import parse_elements
from repro.patterns.regex import compile_to_regex, element_to_regex, pattern_to_regex_source


class TestNfaConstruction:
    def test_single_literal(self):
        nfa = build_nfa(parse_elements("a"))
        assert nfa.matches_string("a")
        assert not nfa.matches_string("")
        assert not nfa.matches_string("b")
        assert not nfa.matches_string("aa")

    def test_exact_quantifier_chain(self):
        nfa = build_nfa(parse_elements("\\D{3}"))
        assert nfa.matches_string("123")
        assert not nfa.matches_string("12")
        assert not nfa.matches_string("1234")

    def test_star_self_loop(self):
        nfa = build_nfa(parse_elements("\\D*"))
        assert nfa.matches_string("")
        assert nfa.matches_string("1234567890")
        assert not nfa.matches_string("12a")

    def test_bounded_range_optional_states(self):
        nfa = build_nfa(parse_elements("\\D{1,3}"))
        assert not nfa.matches_string("")
        assert nfa.matches_string("1")
        assert nfa.matches_string("12")
        assert nfa.matches_string("123")
        assert not nfa.matches_string("1234")

    def test_empty_pattern(self):
        nfa = build_nfa([])
        assert nfa.matches_string("")
        assert not nfa.matches_string("a")

    def test_epsilon_closure_reaches_loop_state(self):
        nfa = build_nfa(parse_elements("\\D*"))
        closure = nfa.epsilon_closure([nfa.start])
        assert nfa.accept in closure


class TestRegexCompilation:
    def test_class_translations(self):
        assert pattern_to_regex_source(parse_pattern("\\D{5}")) == "[0-9]{5}"
        assert pattern_to_regex_source(parse_pattern("\\LU\\LL*")) == "[A-Z][a-z]*"
        assert pattern_to_regex_source(parse_pattern("\\S")) == "[^A-Za-z0-9]"
        assert pattern_to_regex_source(parse_pattern("\\A*")) == "[\\s\\S]*"

    def test_literal_escaping(self):
        source = pattern_to_regex_source(parse_pattern("a.b"))
        assert re.fullmatch(source, "a.b")
        assert not re.fullmatch(source, "axb")

    def test_quantifier_translations(self):
        assert pattern_to_regex_source(parse_pattern("\\D+")) == "[0-9]+"
        assert pattern_to_regex_source(parse_pattern("\\D{2,4}")) == "[0-9]{2,4}"
        assert pattern_to_regex_source(parse_pattern("\\D{2,}")) == "[0-9]{2,}"

    def test_element_to_regex_single(self):
        element = parse_elements("x")[0]
        assert element_to_regex(element) == "x"

    def test_compiled_regex_is_cached_on_pattern(self):
        pattern = parse_pattern("\\D{5}")
        assert pattern.compiled_regex() is pattern.compiled_regex()

    @pytest.mark.parametrize(
        "text,matching,non_matching",
        [
            ("850\\D{7}", "8505467600", "850546760"),
            ("\\A*,\\ Donald\\A*", "Holloway, Donald E.", "HollowayDonald"),
            ("\\LU\\LL*\\ \\A*", "Susan Boyle", "susan boyle"),
        ],
    )
    def test_fullmatch_agrees_with_pattern_matches(self, text, matching, non_matching):
        pattern = parse_pattern(text)
        regex = compile_to_regex(pattern)
        assert regex.fullmatch(matching)
        assert not regex.fullmatch(non_matching)
        assert pattern.matches(matching)
        assert not pattern.matches(non_matching)
