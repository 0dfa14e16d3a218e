"""CSV input/output for :class:`~repro.dataset.table.Table`.

The ANMAT demo lets users upload CSV datasets; this module is the
equivalent ingestion path.  It wraps the standard-library ``csv`` module
and adds rectangularity checks, optional type inference, and symmetric
writing so round-trips are lossless.

Two reading modes are provided: :func:`read_csv` materializes the whole
document at once, while :func:`iter_csv_chunks` streams the file in
bounded-memory chunks, which is how the sharding subsystem ingests
datasets larger than memory.  The stream holds at most one chunk's
columns plus one batch of ``_BATCH_ROWS`` (64) parsed rows: each batch
is transposed into the columns and dropped before the garbage
collector's first young pass, so no row list is promoted and the upload
fires no full collection.  Both modes reject rows whose width differs
from the header, reporting the offending physical line number.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, TextIO, Union

from repro.dataset.inference import infer_schema
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.errors import CsvFormatError


def read_csv_text(
    text: str,
    delimiter: str = ",",
    header: bool = True,
    column_names: Optional[Sequence[str]] = None,
    infer_types: bool = True,
) -> Table:
    """Parse CSV text into a table.

    Parameters
    ----------
    text:
        The CSV document.
    delimiter:
        Field separator.
    header:
        Whether the first row holds column names.  When false,
        ``column_names`` must be provided.
    column_names:
        Explicit column names (overrides the header row when both are
        given).
    infer_types:
        Whether to run type inference and attach dtypes to the schema.
    """
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    names = _resolve_column_names(reader, header, column_names)
    width = len(names)
    data_rows = []
    for row in reader:
        if len(row) != width:
            raise CsvFormatError(
                f"line {reader.line_num} has {len(row)} fields, expected {width}"
            )
        data_rows.append(row)
    if not header and not data_rows:
        raise CsvFormatError("CSV document contains no rows")
    table = Table.from_rows(names, data_rows)
    if infer_types:
        table = table.with_schema(infer_schema(table))
    return table


def read_csv(
    path: Union[str, Path],
    delimiter: str = ",",
    header: bool = True,
    column_names: Optional[Sequence[str]] = None,
    infer_types: bool = True,
    encoding: str = "utf-8",
) -> Table:
    """Read a CSV file from disk into a table."""
    text = Path(path).read_text(encoding=encoding)
    return read_csv_text(
        text,
        delimiter=delimiter,
        header=header,
        column_names=column_names,
        infer_types=infer_types,
    )


def _resolve_column_names(
    reader,
    header: bool,
    column_names: Optional[Sequence[str]],
) -> List[str]:
    """Consume the header row (when present) and return the column names.

    The one place name precedence (explicit ``column_names`` beats the
    header row) and the duplicate-name check live — shared by the
    monolithic and chunked readers so they cannot drift."""
    header_row: Optional[List[str]] = None
    if header:
        header_row = next(reader, None)
        if header_row is None:
            raise CsvFormatError("CSV document contains no rows")
    if column_names is not None:
        names = list(column_names)
    elif header_row is not None:
        names = [name.strip() for name in header_row]
    else:
        raise CsvFormatError("header=False requires explicit column_names")
    if len(set(names)) != len(names):
        raise CsvFormatError(f"duplicate column names in CSV header: {names}")
    return names


def iter_csv_chunks(
    source: Union[str, Path, TextIO],
    chunk_rows: int,
    delimiter: str = ",",
    header: bool = True,
    column_names: Optional[Sequence[str]] = None,
    encoding: str = "utf-8",
) -> Iterator[Table]:
    """Stream a CSV document as a sequence of ``chunk_rows``-row tables.

    The file is read incrementally: at most one chunk's columns plus one
    batch of at most 64 parsed rows are held, so arbitrarily large
    documents can be ingested with bounded memory.  Rows are moved into
    the columns a batch at a time so that no parsed row list lives long
    enough to be promoted by the garbage collector (promoted rows fired
    full collections that freed nothing).  Every yielded chunk shares
    the same schema; the last chunk may be shorter, and an empty
    document (header only, or nothing at all with explicit
    ``column_names``) yields one zero-row chunk so consumers always see
    the schema.

    Rows whose width differs from the header are rejected with a
    :class:`~repro.errors.CsvFormatError` naming the offending physical
    line (the ``csv`` module's line counter, so multi-line quoted
    records are attributed correctly) — a short row is an error, never
    silently padded or truncated.

    ``source`` may be a path or an open text stream (which is *not*
    closed).
    """
    if chunk_rows < 1:
        raise CsvFormatError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if isinstance(source, (str, Path)):
        with Path(source).open("r", newline="", encoding=encoding) as handle:
            yield from _iter_chunks_from(handle, chunk_rows, delimiter, header, column_names)
    else:
        yield from _iter_chunks_from(source, chunk_rows, delimiter, header, column_names)


#: Rows transposed into a chunk's columns at a time.  A parsed ``csv``
#: row is a list, which the collector tracks; a chunk's rows held until
#: the chunk was full (16,384 lists) outlived the young collections
#: their own allocation triggered, were promoted, and fired full
#: collections that walked every long-lived object and freed none.  A
#: batch this small is transposed and dropped before the first young
#: collection, so no row list is ever promoted (batches of 512 rows
#: still fired full collections at 512k rows; 64 and 128 fired none).
_BATCH_ROWS = 64


def _iter_chunks_from(
    handle: TextIO,
    chunk_rows: int,
    delimiter: str,
    header: bool,
    column_names: Optional[Sequence[str]],
) -> Iterator[Table]:
    reader = csv.reader(handle, delimiter=delimiter)
    names = _resolve_column_names(reader, header, column_names)
    width = len(names)
    columns: List[List[str]] = [[] for _ in names]
    filled = 0  # rows of the current chunk moved into ``columns``
    batch: List[List[str]] = []
    limit = min(_BATCH_ROWS, chunk_rows)
    yielded = False
    for row in reader:
        if len(row) != width:
            raise CsvFormatError(
                f"line {reader.line_num} has {len(row)} fields, expected {width}"
            )
        batch.append(row)
        if len(batch) == limit:
            _transpose_into(columns, batch)
            filled += limit
            batch = []
            if filled == chunk_rows:
                yield Table.from_str_columns(Schema.of(names), columns)
                yielded = True
                columns = [[] for _ in names]
                filled = 0
            limit = min(_BATCH_ROWS, chunk_rows - filled)
    if batch or filled or not yielded:
        _transpose_into(columns, batch)
        yield Table.from_str_columns(Schema.of(names), columns)


def _transpose_into(columns: List[List[str]], batch: List[List[str]]) -> None:
    """Append a batch of equal-width rows to the column lists (``csv``
    cells are exact ``str``, so the chunk table adopts them as is)."""
    for column, cells in zip(columns, zip(*batch)):
        column.extend(cells)


def read_csv_sharded(
    source: Union[str, Path, TextIO],
    shard_rows: int,
    delimiter: str = ",",
    header: bool = True,
    column_names: Optional[Sequence[str]] = None,
    encoding: str = "utf-8",
    store=None,
):
    """Stream a CSV document straight into a
    :class:`~repro.sharding.sharded_table.ShardedTable` — each chunk is
    parsed and sealed into its own shard, so peak memory during parsing
    is one shard, not the whole document.  ``store`` picks the
    :class:`~repro.sharding.store.ShardStore` the shards land in (e.g. a
    spill-to-disk store for datasets larger than memory)."""
    from repro.sharding.sharded_table import ShardedTable

    return ShardedTable.from_chunks(
        iter_csv_chunks(
            source,
            shard_rows,
            delimiter=delimiter,
            header=header,
            column_names=column_names,
            encoding=encoding,
        ),
        store=store,
    )


def write_csv(
    table: Table,
    path: Union[str, Path],
    delimiter: str = ",",
    header: bool = True,
    encoding: str = "utf-8",
) -> Path:
    """Write a table to a CSV file and return the path written."""
    path = Path(path)
    with path.open("w", newline="", encoding=encoding) as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        if header:
            writer.writerow(table.column_names())
        for row in table.iter_rows():
            writer.writerow(row)
    return path
