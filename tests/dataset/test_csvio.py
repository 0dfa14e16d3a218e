"""Tests for CSV input/output."""

import csv
import gc
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.csvio import (
    iter_csv_chunks,
    read_csv,
    read_csv_sharded,
    read_csv_text,
    write_csv,
)
from repro.dataset.schema import DataType
from repro.dataset.table import Table
from repro.errors import CsvFormatError
from sharded_values import rows_of

SAMPLE = "zip,city\n90001,Los Angeles\n90002,Los Angeles\n60601,Chicago\n"


class TestReadCsvText:
    def test_reads_header_and_rows(self):
        table = read_csv_text(SAMPLE)
        assert table.column_names() == ["zip", "city"]
        assert table.n_rows == 3
        assert table.cell(2, "city") == "Chicago"

    def test_type_inference_marks_zip_as_integer(self):
        table = read_csv_text(SAMPLE)
        assert table.schema["zip"].dtype is DataType.INTEGER
        assert table.schema["city"].dtype is DataType.STRING

    def test_type_inference_can_be_disabled(self):
        table = read_csv_text(SAMPLE, infer_types=False)
        assert table.schema["zip"].dtype is DataType.STRING

    def test_quoted_fields_with_commas(self):
        text = 'name,city\n"Smith, John",Boston\n'
        table = read_csv_text(text)
        assert table.cell(0, "name") == "Smith, John"

    def test_no_header_with_names(self):
        table = read_csv_text("1,2\n3,4\n", header=False, column_names=["a", "b"])
        assert table.n_rows == 2
        assert table.cell(0, "a") == "1"

    def test_no_header_without_names_is_an_error(self):
        with pytest.raises(CsvFormatError):
            read_csv_text("1,2\n", header=False)

    def test_ragged_row_is_an_error(self):
        with pytest.raises(CsvFormatError):
            read_csv_text("a,b\n1,2\n3\n")

    def test_duplicate_header_is_an_error(self):
        with pytest.raises(CsvFormatError):
            read_csv_text("a,a\n1,2\n")

    def test_empty_document_is_an_error(self):
        with pytest.raises(CsvFormatError):
            read_csv_text("")

    def test_alternative_delimiter(self):
        table = read_csv_text("a;b\n1;2\n", delimiter=";")
        assert table.cell(0, "b") == "2"

    def test_header_only_yields_zero_rows(self):
        table = read_csv_text("a,b\n")
        assert table.n_rows == 0


class TestRoundTrip:
    def test_write_and_read_file(self, tmp_path):
        original = read_csv_text(SAMPLE, infer_types=False)
        path = write_csv(original, tmp_path / "zips.csv")
        loaded = read_csv(path, infer_types=False)
        assert loaded == original

    def test_quoted_values_round_trip(self, tmp_path):
        original = Table.from_rows(["a", "b"], [["x,y", "2"], ["", "3"]])
        path = write_csv(original, tmp_path / "quoted.csv")
        assert read_csv(path, infer_types=False) == original

    AWKWARD = ["x,y", 'say "hi"', "two\nlines", "  padded  ", "", "Zürich", "a;b", "\t"]

    @pytest.mark.parametrize("value", AWKWARD)
    def test_awkward_value_round_trips(self, tmp_path, value):
        original = Table.from_rows(["a", "b"], [[value, "1"], ["plain", value]])
        path = write_csv(original, tmp_path / "awkward.csv")
        assert read_csv(path, infer_types=False) == original
        assert rows_of(read_csv_sharded(path, shard_rows=1)) == list(original.iter_rows())

    def test_write_without_header(self, tmp_path):
        table = Table.from_rows(["a"], [["1"], ["2"]])
        path = write_csv(table, tmp_path / "no_header.csv", header=False)
        assert path.read_text().strip().splitlines() == ["1", "2"]


class TestIterCsvChunks:
    def write(self, tmp_path, text: str):
        path = tmp_path / "doc.csv"
        path.write_text(text)
        return path

    def test_streams_fixed_size_chunks(self, tmp_path):
        path = self.write(tmp_path, "a,b\n" + "".join(f"{i},{i}\n" for i in range(10)))
        chunks = list(iter_csv_chunks(path, chunk_rows=4))
        assert [c.n_rows for c in chunks] == [4, 4, 2]
        assert all(c.column_names() == ["a", "b"] for c in chunks)
        assert chunks[2].cell(1, "a") == "9"

    def test_chunks_concatenate_to_the_monolithic_read(self, tmp_path):
        path = self.write(tmp_path, SAMPLE)
        sharded = read_csv_sharded(path, shard_rows=2)
        monolithic = read_csv(path, infer_types=False)
        assert sharded.schema == monolithic.schema
        assert rows_of(sharded) == list(monolithic.iter_rows())

    def test_header_only_yields_one_empty_chunk(self, tmp_path):
        path = self.write(tmp_path, "a,b\n")
        chunks = list(iter_csv_chunks(path, chunk_rows=3))
        assert [c.n_rows for c in chunks] == [0]
        assert chunks[0].column_names() == ["a", "b"]

    def test_short_row_is_rejected_with_its_line_number(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3\n4,5\n")
        with pytest.raises(CsvFormatError, match=r"line 3 has 1 fields, expected 2"):
            list(iter_csv_chunks(path, chunk_rows=10))

    def test_long_row_is_rejected_with_its_line_number(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,4,5\n")
        with pytest.raises(CsvFormatError, match=r"line 3 has 3 fields, expected 2"):
            list(iter_csv_chunks(path, chunk_rows=10))

    def test_ragged_row_in_a_later_chunk_is_still_rejected(self, tmp_path):
        # earlier complete chunks stream out before the error surfaces
        path = self.write(tmp_path, "a,b\n1,2\n3,4\n5\n")
        stream = iter_csv_chunks(path, chunk_rows=2)
        first = next(stream)
        assert first.n_rows == 2
        with pytest.raises(CsvFormatError, match=r"line 4"):
            next(stream)

    def test_multi_line_quoted_record_reports_csv_line_number(self, tmp_path):
        # the bad record spans physical lines 4-5; the reader attributes
        # the error to the record's last physical line
        path = self.write(tmp_path, 'a,b\n"x\ny",2\n"p\nq"\n')
        with pytest.raises(CsvFormatError, match=r"line 5 has 1 fields"):
            list(iter_csv_chunks(path, chunk_rows=10))

    def test_empty_document_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(CsvFormatError, match="no rows"):
            list(iter_csv_chunks(path, chunk_rows=2))

    def test_duplicate_header_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "a,a\n1,2\n")
        with pytest.raises(CsvFormatError, match="duplicate"):
            list(iter_csv_chunks(path, chunk_rows=2))

    def test_no_header_with_names_and_open_stream(self):
        import io

        stream = io.StringIO("1,2\n3,4\n5,6\n")
        chunks = list(
            iter_csv_chunks(stream, chunk_rows=2, header=False, column_names=["x", "y"])
        )
        assert [c.n_rows for c in chunks] == [2, 1]
        assert not stream.closed

    def test_invalid_chunk_rows_rejected(self, tmp_path):
        path = self.write(tmp_path, SAMPLE)
        with pytest.raises(CsvFormatError, match="chunk_rows"):
            list(iter_csv_chunks(path, chunk_rows=0))

    def test_read_csv_sharded_shard_layout(self, tmp_path):
        path = self.write(tmp_path, "a,b\n" + "".join(f"{i},{i}\n" for i in range(7)))
        sharded = read_csv_sharded(path, shard_rows=3)
        assert sharded.shard_row_counts() == [3, 3, 1]


@pytest.fixture
def default_gc_thresholds():
    """Run under CPython's default collector thresholds, with every object
    the suite made so far frozen out of the count: a full collection then
    fires as soon as a young collection promotes anything, whatever the
    earlier tests left alive.  Restores thresholds and freeze afterwards."""
    previous = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.freeze()
    gc.collect()
    try:
        yield
    finally:
        gc.unfreeze()
        gc.set_threshold(*previous)


def test_streaming_promotes_no_row_to_a_full_collection(tmp_path, default_gc_thresholds):
    # a chunk's parsed row lists must die young: held until the chunk was
    # full, they were promoted and fired full collections that freed nothing
    path = tmp_path / "big.csv"
    with path.open("w", newline="") as handle:
        handle.write("zip,city,state\n")
        handle.writelines(f"{90000 + i % 997},City {i % 113},S{i % 7}\n" for i in range(120_000))
    full_collections = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 2:
            full_collections.append(info)

    gc.callbacks.append(count)
    try:
        n_rows = sum(chunk.n_rows for chunk in iter_csv_chunks(path, chunk_rows=16_384))
    finally:
        gc.callbacks.remove(count)
    assert n_rows == 120_000
    assert full_collections == []


def _reference_chunks(text, chunk_rows):
    """The chunker's contract, written as the plain loop: ``Table.from_rows``
    over the ``csv.reader`` rows, sliced every ``chunk_rows``; the first
    ragged row raises with the reader's line number.  Returns the chunks
    and the error message (None when the document is rectangular)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    names = next(reader)
    rows, error = [], None
    for row in reader:
        if len(row) != len(names):
            error = f"line {reader.line_num} has {len(row)} fields, expected {len(names)}"
            break
        rows.append(row)
    full = len(rows) // chunk_rows * chunk_rows if error else len(rows)
    chunks = [
        Table.from_rows(names, rows[start : start + chunk_rows])
        for start in range(0, full, chunk_rows)
    ]
    if not chunks and error is None:
        chunks = [Table.from_rows(names, [])]
    return chunks, error


_FIELDS = st.text(alphabet=st.sampled_from(list('ab,"\n\r é€😀')), max_size=4)


@st.composite
def _documents(draw):
    width = draw(st.integers(1, 4))
    # past one or two 64-row batches, or short
    n_rows = draw(st.sampled_from([0, 60, 130]))
    row = st.lists(_FIELDS, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=n_rows, max_size=n_rows + 10))
    if draw(st.booleans()):
        # a ragged row, often right at a 64-row batch boundary
        at = draw(st.one_of(st.sampled_from([0, 62, 63, 64, 65, 127, 128]), st.integers(0, 200)))
        k = draw(st.sampled_from([k for k in range(width + 3) if k != width]))
        rows.insert(min(at, len(rows)), [draw(_FIELDS)] * k)
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow([f"c{i}" for i in range(width)])
    writer.writerows(rows)
    return buffer.getvalue()


@settings(max_examples=200, deadline=None)
@given(text=_documents(), chunk_rows=st.sampled_from([1, 63, 64, 65, 129, 10_000]))
def test_chunks_equal_the_sliced_row_reading(text, chunk_rows):
    expected, error = _reference_chunks(text, chunk_rows)
    stream = iter_csv_chunks(io.StringIO(text, newline=""), chunk_rows)
    got = []
    if error is None:
        got.extend(stream)
    else:
        with pytest.raises(CsvFormatError) as raised:
            got.extend(stream)
        assert str(raised.value) == error
    assert got == expected
    assert [(c.schema, c.n_rows) for c in got] == [(c.schema, c.n_rows) for c in expected]
