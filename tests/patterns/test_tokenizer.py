"""Tests for Tokenize (Figure 2, lines 6–7): the token mode's split."""

from repro.kernels.tokenize import tokenize_values


def tokenize(value):
    """One value's ``(key, position, text)`` triples in the token mode."""
    return tokenize_values([value], "token")[0]


class TestTokenize:
    def test_simple_words(self):
        tokens = tokenize("John Charles")
        assert [text for _key, _position, text in tokens] == ["John", "Charles"]
        assert [position for _key, position, _text in tokens] == [0, 1]

    def test_paper_full_name(self):
        tokens = tokenize("Holloway, Donald E.")
        assert [text for _key, _position, text in tokens] == ["Holloway,", "Donald", "E."]
        assert [key for key, _position, _text in tokens] == ["Holloway", "Donald", "E"]
        assert tokens[1][1] == 1

    def test_punctuation_only_word_keys_as_itself(self):
        assert tokenize("a , b") == (("a", 0, "a"), (",", 1, ","), ("b", 2, "b"))

    def test_multiple_spaces(self):
        tokens = tokenize("a   b")
        assert [text for _key, _position, text in tokens] == ["a", "b"]
        assert tokens[1][1] == 1

    def test_leading_and_trailing_whitespace(self):
        tokens = tokenize("  hello  ")
        assert tokens == (("hello", 0, "hello"),)

    def test_empty_string(self):
        assert tokenize("") == ()

    def test_whitespace_only(self):
        assert tokenize("   ") == ()

    def test_single_token(self):
        assert tokenize("90001") == (("90001", 0, "90001"),)

    def test_tabs_and_newlines_are_separators(self):
        tokens = tokenize("a\tb\nc")
        assert [text for _key, _position, text in tokens] == ["a", "b", "c"]

    def test_values_are_split_independently(self):
        assert tokenize_values(["a b", "", "c"], "token") == [
            (("a", 0, "a"), ("b", 1, "b")),
            (),
            (("c", 0, "c"),),
        ]
