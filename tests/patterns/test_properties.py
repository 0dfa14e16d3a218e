"""Property-based tests (hypothesis) for the pattern language core.

Invariants checked:

* generalization soundness — the level-k generalization of a value always
  matches the value, and levels are ordered by containment;
* parser/printer round-trip — ``parse(p.to_text()) == p``;
* backend agreement — the NFA simulation and the compiled regex accept
  exactly the same strings;
* containment is consistent with matching on concrete samples;
* tokenization offsets index back into the original string.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from containment_reference import pattern_contains
from repro.patterns import Pattern, parse_pattern
from repro.kernels.encoder import ShapeTable
from repro.patterns.alphabet import LEAF_CLASSES
from repro.patterns.generalize import generalize, shape_pattern
from repro.kernels.tokenize import _WORDS, tokenize_values

#: Printable-ish text covering all four character classes.
VALUE_ALPHABET = string.ascii_letters + string.digits + " -.,_/"
values = st.text(alphabet=VALUE_ALPHABET, min_size=0, max_size=24)
non_empty_values = st.text(alphabet=VALUE_ALPHABET, min_size=1, max_size=24)


# -- random pattern construction -----------------------------------------------------------

_class_tokens = st.sampled_from(["\\A", "\\LU", "\\LL", "\\D", "\\S"])
_literal_tokens = st.sampled_from(list(string.ascii_letters + string.digits + "-.,"))
_quantifiers = st.sampled_from(["", "*", "+", "{2}", "{1,3}", "{2,}"])


@st.composite
def pattern_texts(draw) -> str:
    """Random pattern text in the restricted grammar (1–6 elements)."""
    n_elements = draw(st.integers(min_value=1, max_value=6))
    parts = []
    for _ in range(n_elements):
        atom = draw(st.one_of(_class_tokens, _literal_tokens))
        parts.append(atom + draw(_quantifiers))
    return "".join(parts)


@st.composite
def patterns_with_samples(draw):
    """A random pattern together with a string sampled from its language."""
    from repro.patterns.syntax import Literal

    text = draw(pattern_texts())
    pattern = parse_pattern(text)
    parts = []
    for element in pattern.elements:
        minimum = element.quantifier.minimum
        maximum = element.quantifier.maximum
        upper = minimum + 2 if maximum is None else maximum
        reps = draw(st.integers(min_value=minimum, max_value=upper))
        for _ in range(reps):
            if isinstance(element.atom, Literal):
                parts.append(element.atom.char)
            else:
                members = [c for c in VALUE_ALPHABET if element.atom.char_class.contains_char(c)]
                parts.append(draw(st.sampled_from(members)))
    return pattern, "".join(parts)


# -- generalization -----------------------------------------------------------------------------


def generalize_string(value, level):
    return shape_pattern(ShapeTable([value]), 0, level)


def generalize_strings(values_list):
    return generalize(ShapeTable(values_list), range(len(values_list)))


def signature_of(value):
    return tuple(LEAF_CLASSES[c] for c in ShapeTable([value]).run_classes.tolist())



@given(non_empty_values)
def test_generalization_matches_its_source(value):
    for level in (0, 1, 2, 3):
        assert generalize_string(value, level=level).matches(value)


@given(non_empty_values)
def test_generalization_levels_are_ordered_by_containment(value):
    level1 = generalize_string(value, level=1)
    level3 = generalize_string(value, level=3)
    assert pattern_contains(level1, level3)


@given(st.lists(non_empty_values, min_size=1, max_size=8))
def test_generalize_strings_covers_all_inputs(values_list):
    pattern = generalize_strings(values_list)
    if pattern is None:
        # Only allowed when the values do not share a run signature.
        assert len({signature_of(v) for v in values_list}) > 1
    else:
        for value in values_list:
            assert pattern.matches(value)


@given(non_empty_values)
def test_signature_matches_level_one_classes(value):
    level1 = generalize_string(value, level=1)
    classes = [element.atom.char_class for element in level1.elements]
    assert tuple(classes) == signature_of(value)


# -- parsing / printing --------------------------------------------------------------------------


@given(pattern_texts())
def test_parse_print_round_trip(text):
    pattern = parse_pattern(text)
    assert parse_pattern(pattern.to_text()) == pattern


@given(pattern_texts())
def test_min_length_never_exceeds_max_length(text):
    pattern = parse_pattern(text)
    maximum = pattern.max_length()
    if maximum is not None:
        assert pattern.min_length() <= maximum


# -- matching backends ----------------------------------------------------------------------------


@settings(max_examples=150)
@given(pattern_texts(), values)
def test_regex_and_nfa_backends_agree(text, value):
    pattern = parse_pattern(text)
    assert pattern.matches(value) == pattern.nfa.matches_string(value)


@settings(max_examples=150)
@given(patterns_with_samples())
def test_sampled_strings_match_their_pattern(pattern_and_sample):
    pattern, sample = pattern_and_sample
    assert pattern.matches(sample)
    assert pattern.nfa.matches_string(sample)


@settings(max_examples=100)
@given(patterns_with_samples())
def test_matches_imply_length_bounds(pattern_and_sample):
    pattern, sample = pattern_and_sample
    assert pattern.min_length() <= len(sample)
    maximum = pattern.max_length()
    if maximum is not None:
        assert len(sample) <= maximum


# -- containment -------------------------------------------------------------------------------------


@settings(max_examples=75)
@given(patterns_with_samples())
def test_everything_is_contained_in_any_star(pattern_and_sample):
    pattern, _sample = pattern_and_sample
    assert pattern_contains(pattern, Pattern.any_string())


@settings(max_examples=75)
@given(patterns_with_samples(), pattern_texts())
def test_containment_is_consistent_with_sampled_matches(pattern_and_sample, other_text):
    pattern, sample = pattern_and_sample
    other = parse_pattern(other_text)
    if pattern_contains(pattern, other):
        assert other.matches(sample)


@given(non_empty_values)
def test_literal_pattern_contained_in_its_generalization(value):
    literal = Pattern.literal(value)
    generalized = generalize_string(value, level=1)
    assert pattern_contains(literal, generalized)


# -- tokenizer ------------------------------------------------------------------------------------------


@given(values)
def test_token_offsets_index_into_the_value(value):
    # the word scan discovery uses to place a token splits like the batch
    # tokenizer, and its offsets index each token's text in the value
    (tokens,) = tokenize_values([value], "token")
    words = list(_WORDS.finditer(value))
    assert [text for _key, _position, text in tokens] == [w.group() for w in words]
    for (_key, position, text), word in zip(tokens, words):
        assert value[word.start() : word.start() + len(text)] == text
        assert position == words.index(word)


@given(values)
def test_tokens_do_not_contain_whitespace(value):
    for _key, _position, text in tokenize_values([value], "token")[0]:
        assert " " not in text
