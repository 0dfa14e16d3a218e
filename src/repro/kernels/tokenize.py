"""Batch tokenization over the distinct-value array (Figure 2, lines 6–7).

Produces the (key, position, text) triples of every token of an LHS
value, once per *distinct* value; rows inherit their triples by code
lookup.  Tokens are whitespace-separated words keyed by their text with
the surrounding punctuation stripped; n-grams and prefixes are slices,
keyed by their text.  The token mode uses one compiled ``\\S+`` scan
per value — Python's ``str.isspace()`` and the regex ``\\s`` class
agree on every code point, so the split is ``str.split()``'s.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.kernels.encoder import ColumnEncoding
from repro.patterns.tokenizer import _PUNCTUATION_STRIP
from repro.perf.interning import InternPool

#: one row's triples: ((key, position, raw token text), …)
Triples = Tuple[Tuple[str, int, str], ...]

_WORDS = re.compile(r"\S+")


def value_triples(
    value: str, mode: str, ngram_size: int, pool: InternPool
) -> Triples:
    """One distinct value's (key, position, text) triples (keys and
    texts interned; empty keys are impossible for non-empty token
    text)."""
    if value == "":
        return ()
    intern = pool.intern
    if mode == "token":
        triples = []
        for position, match in enumerate(_WORDS.finditer(value)):
            text = match.group()
            key = text.strip(_PUNCTUATION_STRIP) or text
            triples.append((intern(key), position, intern(text)))
        return tuple(triples)
    if mode == "ngram":
        if len(value) < ngram_size:
            return ()
        triples = []
        for start in range(len(value) - ngram_size + 1):
            interned = intern(value[start : start + ngram_size])
            triples.append((interned, start, interned))
        return tuple(triples)
    if mode == "prefix":
        triples = []
        for size in (1, 2, 3, 4, 5):
            if size <= len(value):
                interned = intern(value[:size])
                triples.append((interned, 0, interned))
        return tuple(triples)
    raise ValueError(f"unknown token mode {mode!r}")


def batch_tokenize(
    encoding: ColumnEncoding,
    mode: str,
    ngram_size: int,
    pool: Optional[InternPool] = None,
) -> List[Triples]:
    """Per-code triples for a whole encoded column, one pass over the
    distinct values."""
    pool = InternPool() if pool is None else pool
    return [
        value_triples(value, mode, ngram_size, pool)
        for value in encoding.distinct
    ]
