"""Tests for the generalization tree (Figure 1)."""

import pytest

from repro.patterns.alphabet import CharClass, classify_char


class TestClassifyChar:
    def test_upper_case_letters(self):
        for char in "AZM":
            assert classify_char(char) is CharClass.UPPER

    def test_lower_case_letters(self):
        for char in "azm":
            assert classify_char(char) is CharClass.LOWER

    def test_digits(self):
        for char in "059":
            assert classify_char(char) is CharClass.DIGIT

    def test_symbols(self):
        for char in " -_,.!/\\":
            assert classify_char(char) is CharClass.SYMBOL

    def test_non_ascii_is_symbol(self):
        assert classify_char("é") is CharClass.SYMBOL

    def test_rejects_multi_character_input(self):
        with pytest.raises(ValueError):
            classify_char("ab")

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            classify_char("")


class TestCharClassMembership:
    def test_any_contains_everything(self):
        for char in "Aa0 -é":
            assert CharClass.ANY.contains_char(char)

    def test_upper_membership(self):
        assert CharClass.UPPER.contains_char("Q")
        assert not CharClass.UPPER.contains_char("q")
        assert not CharClass.UPPER.contains_char("5")

    def test_lower_membership(self):
        assert CharClass.LOWER.contains_char("q")
        assert not CharClass.LOWER.contains_char("Q")

    def test_digit_membership(self):
        assert CharClass.DIGIT.contains_char("7")
        assert not CharClass.DIGIT.contains_char("x")

    def test_symbol_membership(self):
        assert CharClass.SYMBOL.contains_char("-")
        assert CharClass.SYMBOL.contains_char(" ")
        assert not CharClass.SYMBOL.contains_char("a")
        assert not CharClass.SYMBOL.contains_char("3")

    def test_multi_character_string_is_not_a_member(self):
        assert not CharClass.UPPER.contains_char("AB")

    def test_every_char_belongs_to_its_classified_class(self):
        for char in "Aa0-":
            assert classify_char(char).contains_char(char)

    @pytest.mark.parametrize("char", ["A", "z", "0", " ", "~", "é", "Ω", "中", "٣"])
    def test_every_char_is_in_exactly_one_leaf_class(self, char):
        leaves = [cls for cls in CharClass if cls is not CharClass.ANY]
        assert [cls for cls in leaves if cls.contains_char(char)] == [classify_char(char)]
        assert CharClass.ANY.contains_char(char)

    def test_token_rendering(self):
        assert CharClass.UPPER.token == "\\LU"
        assert CharClass.LOWER.token == "\\LL"
        assert CharClass.DIGIT.token == "\\D"
        assert CharClass.SYMBOL.token == "\\S"
        assert CharClass.ANY.token == "\\A"
