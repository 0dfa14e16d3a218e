"""Tests for CSV input/output."""

import pytest

from repro.dataset.csvio import (
    iter_csv_chunks,
    read_csv,
    read_csv_sharded,
    read_csv_text,
    to_csv_text,
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

    def test_to_csv_text_round_trip(self):
        original = Table.from_rows(["a", "b"], [["x,y", "2"], ["", "3"]])
        text = to_csv_text(original)
        assert read_csv_text(text, infer_types=False) == original

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
