"""Batch tokenization over the distinct-value array (Figure 2, lines 6–7).

Produces the (key, position, text) triples of every token of an LHS
value, once per *distinct* value; rows inherit their triples by code
lookup.  Tokens are whitespace-separated words keyed by their text with
the surrounding punctuation stripped; n-grams and prefixes are slices,
keyed by their text; an n-gram is :data:`NGRAM_SIZE` characters wide.
Equal strings are interned through one plain dict per column.  The
token mode uses one compiled ``\\S+`` scan per value — Python's
``str.isspace()`` and the regex ``\\s`` class agree on every code
point, so the split is ``str.split()``'s.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.kernels.encoder import ColumnEncoding
from repro.patterns.tokenizer import _PUNCTUATION_STRIP

#: one row's triples: ((key, position, raw token text), …)
Triples = Tuple[Tuple[str, int, str], ...]

_WORDS = re.compile(r"\S+")

#: width of the character n-grams of the ``"ngram"`` mode
NGRAM_SIZE = 3


def value_triples(value: str, mode: str, interned: Dict[str, str]) -> Triples:
    """One distinct value's (key, position, text) triples (keys and
    texts interned through ``interned``; empty keys are impossible for
    non-empty token text)."""
    if value == "":
        return ()
    intern = interned.setdefault
    if mode == "token":
        triples = []
        for position, match in enumerate(_WORDS.finditer(value)):
            text = match.group()
            key = text.strip(_PUNCTUATION_STRIP) or text
            triples.append((intern(key, key), position, intern(text, text)))
        return tuple(triples)
    if mode == "ngram":
        triples = []
        for start in range(len(value) - NGRAM_SIZE + 1):
            gram = value[start : start + NGRAM_SIZE]
            gram = intern(gram, gram)
            triples.append((gram, start, gram))
        return tuple(triples)
    if mode == "prefix":
        triples = []
        for size in (1, 2, 3, 4, 5):
            if size <= len(value):
                prefix = value[:size]
                prefix = intern(prefix, prefix)
                triples.append((prefix, 0, prefix))
        return tuple(triples)
    raise ValueError(f"unknown token mode {mode!r}")


def batch_tokenize(encoding: ColumnEncoding, mode: str) -> List[Triples]:
    """Per-code triples for a whole encoded column, one pass over the
    distinct values."""
    interned: Dict[str, str] = {}
    return [value_triples(value, mode, interned) for value in encoding.distinct]
