"""Batch tokenization over the distinct-value array (Figure 2, lines 6–7).

Produces the (key, position, text) triples of every token of an LHS
value, once per *distinct* value; rows inherit their triples by code
lookup.  Tokens are whitespace-separated words keyed by their text with
the surrounding punctuation stripped; n-grams and prefixes are slices,
keyed by their text; an n-gram is :data:`NGRAM_SIZE` characters wide.
Equal strings are interned through one plain dict per column.  Every
mode runs over the column's values at once (:func:`tokenize_values`):
the splits, slices, strips and interning go over one flat list, then
the triples are cut back per value.  The token mode splits with
``str.split()``; :data:`_WORDS`, the ``\\S+`` scan that also reports
where a word starts, splits the same — Python's ``str.isspace()`` and
the regex ``\\s`` class agree on every code point.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, repeat
from typing import Dict, List, Sequence, Tuple

from repro.kernels.encoder import ColumnEncoding

#: one row's triples: ((key, position, raw token text), …)
Triples = Tuple[Tuple[str, int, str], ...]

#: what a word's key strips from both ends, so that ``"Donald"`` and
#: ``"Donald,"`` group together (a word of punctuation only keys as itself)
_PUNCTUATION_STRIP = ".,;:!?\"'()[]{}"

_WORDS = re.compile(r"\S+")

#: width of the character n-grams of the ``"ngram"`` mode
NGRAM_SIZE = 3


def split_words(values: Sequence[str]) -> Tuple[List[int], List[str], List[str]]:
    """The token mode's split of many values, flat: each value's number
    of words, then every word's key and text, in value then position
    order."""
    words = list(map(str.split, values))
    texts = list(chain.from_iterable(words))
    keys = [text.strip(_PUNCTUATION_STRIP) or text for text in texts]
    return list(map(len, words)), keys, texts


def tokenize_values(values: Sequence[str], mode: str) -> List[Triples]:
    """The triples of many values at once: every split, slice, strip and
    intern runs over one flat list for all of them, then the triples are
    cut back into one tuple per value."""
    interned: Dict[str, str] = {}
    intern = interned.setdefault
    if mode == "token":
        counts, keys, texts = split_words(values)
        texts = list(map(intern, texts, texts))
        keys = list(map(intern, keys, keys))
        flat = zip(keys, chain.from_iterable(map(range, counts)), texts)
    elif mode == "ngram":
        counts = [max(len(value) - NGRAM_SIZE + 1, 0) for value in values]
        grams = [
            value[start : start + NGRAM_SIZE]
            for value, count in zip(values, counts)
            for start in range(count)
        ]
        grams = list(map(intern, grams, grams))
        flat = zip(grams, chain.from_iterable(map(range, counts)), grams)
    elif mode == "prefix":
        counts = [min(len(value), 5) for value in values]
        prefixes = [
            value[:size] for value, count in zip(values, counts) for size in range(1, count + 1)
        ]
        prefixes = list(map(intern, prefixes, prefixes))
        flat = zip(prefixes, repeat(0), prefixes)
    else:
        raise ValueError(f"unknown token mode {mode!r}")
    flat = list(flat)
    bounds = list(accumulate(counts, initial=0))
    return [tuple(flat[begin:end]) for begin, end in zip(bounds, bounds[1:])]


def batch_tokenize(encoding: ColumnEncoding, mode: str) -> List[Triples]:
    """Per-code triples for a whole encoded column, one pass over the
    distinct values."""
    return tokenize_values(encoding.distinct, mode)
