"""Patched encodings equal fresh ones, and so do their profiles.

A re-check maintains every column as a :class:`ColumnEncoding`: an edit
batch is written in with :meth:`ColumnEncoding.with_cells`, and a
changed column is profiled from the patched encoding
(:func:`profile_encoding`).  Both are only sound if the patched encoding
is byte-equal to :func:`encode_column` of the edited values — distinct
values in first-appearance order, int32 codes — and the profile equals
:func:`profile_column` of them, whatever the writes: new values, the
last row of a value, a write at row 0 that reorders first appearances,
empty strings, and writes that restore the value already there.  The
renumbering it returns maps each old code to its value's new code.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dataset.profiling import profile_column, profile_encoding
from repro.kernels.encoder import encode_column

#: values a column starts from (the empty string included)
POOL = ["", "a", "b", "ab", "10001", "New York", "x y", "Z-9"]
#: values no column starts with
NEW = ["new", "", "  ", "10002", "n e w"]


def assert_fresh(encoding, values):
    fresh = encode_column(values)
    assert encoding.distinct == fresh.distinct
    assert encoding.codes.dtype == fresh.codes.dtype
    assert encoding.codes.tobytes() == fresh.codes.tobytes()


def patched(values, writes):
    """(the edited values, ``encode_column(values).with_cells(...)``)."""
    edited = list(values)
    for row, value in writes:
        edited[row] = value
    before = encode_column(values)
    codes = before.codes.copy()
    result, renumber = before.with_cells(
        [row for row, _ in writes], [value for _, value in writes]
    )
    # the patched encoding is new; the original is untouched
    assert before.codes.tobytes() == codes.tobytes()
    assert_fresh(before, values)
    # a later write to a row wins
    assert_renumbers(before, result, renumber, list(dict(writes).values()))
    return edited, result


def assert_renumbers(before, result, renumber, written):
    """``renumber`` maps every old code to its value's new code (-1 when
    the value vanished), then the written values new to the column, in
    write order."""
    old = before.distinct
    added = list(dict.fromkeys(value for value in written if value not in set(old)))
    assert len(renumber) == len(old) + len(added)
    for code, value in enumerate(old + added):
        new = int(renumber[code])
        if value in result.distinct:
            assert result.distinct[new] == value
        else:
            assert new == -1


@st.composite
def column_and_writes(draw):
    values = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=30))
    n = len(values)
    write = st.tuples(
        st.integers(0, n - 1),
        # None: restore the row's original value
        st.one_of(st.sampled_from(POOL), st.sampled_from(NEW), st.none()),
    )
    writes = [
        (row, values[row] if value is None else value)
        for row, value in draw(st.lists(write, max_size=12))
    ]
    if draw(st.booleans()):
        # retire a value: overwrite every row holding it
        gone = draw(st.sampled_from(values))
        keep = draw(st.sampled_from(POOL + NEW))
        writes += [(row, keep) for row, value in enumerate(values) if value == gone]
    if draw(st.booleans()):
        # move a value's first appearance to the front
        writes.append((0, draw(st.sampled_from(values))))
    return values, writes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(column_and_writes())
def test_property_patched_encoding_and_profile_equal_fresh(case):
    values, writes = case
    edited, result = patched(values, writes)
    assert_fresh(result, edited)
    assert profile_encoding("c", result) == profile_column("c", edited)


def test_new_value_is_appended_after_the_values_seen_before_it():
    edited, result = patched(["a", "b", "a"], [(2, "c")])
    assert result.distinct == ["a", "b", "c"]
    assert_fresh(result, edited)


def test_value_losing_its_last_row_disappears():
    edited, result = patched(["a", "b", "c", "b"], [(0, "b")])
    assert result.distinct == ["b", "c"]
    assert result.codes.tolist() == [0, 0, 1, 0]
    assert_fresh(result, edited)


def test_write_at_row_zero_reorders_first_appearances():
    edited, result = patched(["a", "b", "c", "a"], [(0, "c")])
    assert result.distinct == ["c", "b", "a"]
    assert_fresh(result, edited)


def test_later_write_to_a_row_wins_and_reverts_change_nothing():
    values = ["a", "", "b"]
    edited, result = patched(values, [(1, "x"), (1, ""), (2, "b")])
    assert edited == values
    assert_fresh(result, values)


def test_profile_counts_empty_values():
    edited, result = patched(["90001", "", "90002"], [(0, ""), (2, "abc")])
    profile = profile_encoding("zip", result)
    assert (profile.n_values, profile.n_empty, profile.n_distinct) == (3, 2, 2)
    assert profile == profile_column("zip", edited)


def test_empty_column_patches_to_an_empty_encoding():
    result, renumber = encode_column([]).with_cells([], [])
    assert len(renumber) == 0
    assert_fresh(result, [])
    assert profile_encoding("c", result) == profile_column("c", [])
