"""Tests for Tokenize (Figure 2, lines 6–7)."""

from repro.patterns.tokenizer import tokenize


class TestTokenize:
    def test_simple_words(self):
        tokens = tokenize("John Charles")
        assert [t.text for t in tokens] == ["John", "Charles"]
        assert [t.position for t in tokens] == [0, 1]
        assert [t.start for t in tokens] == [0, 5]

    def test_paper_full_name(self):
        tokens = tokenize("Holloway, Donald E.")
        assert [t.text for t in tokens] == ["Holloway,", "Donald", "E."]
        assert [t.normalized for t in tokens] == ["Holloway", "Donald", "E"]
        assert tokens[1].position == 1
        assert tokens[1].start == 10

    def test_multiple_spaces(self):
        tokens = tokenize("a   b")
        assert [t.text for t in tokens] == ["a", "b"]
        assert tokens[1].start == 4

    def test_leading_and_trailing_whitespace(self):
        tokens = tokenize("  hello  ")
        assert [t.text for t in tokens] == ["hello"]
        assert tokens[0].position == 0

    def test_empty_string(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("   ") == []

    def test_single_token(self):
        tokens = tokenize("90001")
        assert len(tokens) == 1
        assert tokens[0].text == "90001"

    def test_tabs_and_newlines_are_separators(self):
        tokens = tokenize("a\tb\nc")
        assert [t.text for t in tokens] == ["a", "b", "c"]

    def test_is_numeric(self):
        tokens = tokenize("call 555 now")
        assert [t.is_numeric for t in tokens] == [False, True, False]
