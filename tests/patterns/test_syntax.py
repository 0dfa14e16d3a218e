"""Tests for the pattern AST building blocks."""

import pytest

from repro.errors import PatternSyntaxError
from repro.patterns.alphabet import CharClass
from repro.patterns.syntax import (
    ClassAtom,
    Element,
    Literal,
    ONE,
    PLUS,
    Quantifier,
    STAR,
)


class TestLiteral:
    def test_matches_only_its_char(self):
        literal = Literal("a")
        assert literal.matches_char("a")
        assert not literal.matches_char("b")

    def test_requires_single_character(self):
        with pytest.raises(PatternSyntaxError):
            Literal("ab")
        with pytest.raises(PatternSyntaxError):
            Literal("")

    def test_to_text_escapes_specials(self):
        assert Literal(" ").to_text() == "\\ "
        assert Literal("{").to_text() == "\\{"
        assert Literal("a").to_text() == "a"

    def test_char_class_of_literal(self):
        assert Literal("a").char_class is CharClass.LOWER
        assert Literal("7").char_class is CharClass.DIGIT


class TestClassAtom:
    def test_matches_members(self):
        atom = ClassAtom(CharClass.DIGIT)
        assert atom.matches_char("5")
        assert not atom.matches_char("x")

    def test_to_text(self):
        assert ClassAtom(CharClass.UPPER).to_text() == "\\LU"


class TestQuantifier:
    def test_constants(self):
        assert ONE.is_single
        assert STAR.is_star
        assert PLUS.is_plus

    def test_invalid_bounds(self):
        with pytest.raises(PatternSyntaxError):
            Quantifier(-1, 2)
        with pytest.raises(PatternSyntaxError):
            Quantifier(3, 2)

    def test_to_text(self):
        assert ONE.to_text() == ""
        assert STAR.to_text() == "*"
        assert PLUS.to_text() == "+"
        assert Quantifier(3, 3).to_text() == "{3}"
        assert Quantifier(2, 5).to_text() == "{2,5}"
        assert Quantifier(2, None).to_text() == "{2,}"


class TestElement:
    def test_min_max_length(self):
        element = Element(ClassAtom(CharClass.DIGIT), Quantifier(2, 5))
        assert element.min_length == 2
        assert element.max_length == 5

    def test_to_text(self):
        element = Element(Literal("x"), PLUS)
        assert element.to_text() == "x+"

    def test_matches_char_delegates_to_atom(self):
        element = Element(ClassAtom(CharClass.LOWER), STAR)
        assert element.matches_char("q")
        assert not element.matches_char("Q")
