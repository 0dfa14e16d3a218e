"""The shape table against the per-value reference.

A column encoding's :class:`~repro.kernels.encoder.ShapeTable` must hold,
for every distinct value, exactly the class runs, signature and
char-class bitmask that ``tests/figure2_reference.py`` computes one
character at a time, and :func:`~repro.patterns.generalize.generalize`
over any code subset and ``[start:stop]`` slice must equal the
reference's value-list generalizer over the sliced values.
"""

from __future__ import annotations

import figure2_reference
from hypothesis import given, settings, strategies as st

from repro.kernels.encoder import ShapeTable, encode_column
from repro.kernels.mine import _literal_prefix_pattern
from repro.patterns.alphabet import LEAF_CLASSES
from repro.patterns.generalize import generalize

#: ASCII and Latin-1, non-BMP characters, lone surrogates, and the
#: characters that make runs (letters, digits, space, punctuation)
_chars = st.one_of(
    st.characters(max_codepoint=0xFF),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
    st.integers(min_value=0xD800, max_value=0xDFFF).map(chr),
    st.sampled_from("aAzZ09 -.,"),
)
_short = st.text(alphabet=_chars, max_size=12)


@st.composite
def _long(draw) -> str:
    """A value of 1,000+ characters: a short piece repeated, then noise."""
    piece = draw(st.text(alphabet=_chars, min_size=1, max_size=6))
    repeats = -(-1000 // len(piece))
    return piece * repeats + draw(_short)


_values = st.one_of(_short, _short, _short, _long())
_columns = st.one_of(
    st.lists(_values, max_size=30),
    st.lists(_values, max_size=30, unique=True),
    st.lists(st.sampled_from(["", "90001", "9000", "John", "J0hn", "ab-12"]), max_size=30),
)


def _runs(shapes: ShapeTable, code: int):
    runs = slice(shapes.offsets[code], shapes.offsets[code + 1])
    return tuple(
        (LEAF_CLASSES[class_id], length)
        for class_id, length in zip(
            shapes.run_classes[runs].tolist(), shapes.run_lengths[runs].tolist()
        )
    )


@settings(max_examples=150, deadline=None)
@given(_columns)
def test_runs_signatures_and_bits_match_the_reference(column):
    encoding = encode_column(column)
    shapes = encoding.shapes()
    distinct = encoding.distinct
    assert [_runs(shapes, code) for code in range(len(distinct))] == [
        figure2_reference.class_runs(value) for value in distinct
    ]
    assert shapes.bits.tolist() == [figure2_reference.signature_bits(v) for v in distinct]
    signatures = [figure2_reference.signature_of(value) for value in distinct]
    ids = shapes.signatures.tolist()
    for code in range(len(distinct)):
        for other in range(len(distinct)):
            assert (ids[code] == ids[other]) == (signatures[code] == signatures[other])
    # the level-1 shape ids group values by their exact runs
    level1 = shapes.shape_ids(1).tolist()
    runs = [figure2_reference.class_runs(value) for value in distinct]
    for code in range(len(distinct)):
        for other in range(len(distinct)):
            assert (level1[code] == level1[other]) == (runs[code] == runs[other])


@settings(max_examples=200, deadline=None)
@given(st.data(), _columns)
def test_generalizing_slices_matches_the_reference(data, column):
    shapes = ShapeTable(list(dict.fromkeys(column)))
    n = len(shapes.values)
    codes = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)) if n else []
    start = data.draw(st.integers(0, 8))
    stop = data.draw(st.one_of(st.none(), st.integers(0, 1200)))
    values = [shapes.values[code] for code in codes]
    assert generalize(shapes, codes, start=start, stop=stop) == (
        figure2_reference.generalize_strings([value[start:stop] for value in values])
    )


@settings(max_examples=150, deadline=None)
@given(st.data(), _columns)
def test_literal_prefix_patterns_match_the_reference(data, column):
    encoding = encode_column(column)
    if not encoding.n_distinct:
        return
    anchor = data.draw(st.integers(0, encoding.n_distinct - 1))
    token = encoding.distinct[anchor][: data.draw(st.integers(1, 4))]
    if not token:
        return
    codes = [c for c, value in enumerate(encoding.distinct) if value.startswith(token)]
    values = [encoding.distinct[code] for code in codes]
    assert _literal_prefix_pattern(encoding, codes, token) == (
        figure2_reference.generalize_with_literal_prefix(values, len(token))
    )
