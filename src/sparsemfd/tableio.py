"""Package I/O: delimiter-separated tables with a header row, and JSON records.

Readings, networks, sites, estimates and the figure data are plain text
tables. Field names are exact and case sensitive; parse errors report the
offending line and field.

Tables are read and written in blocks of up to ``BLOCK_ROWS`` rows, one
column at a time. A block that does not convert as a whole is walked again
cell by cell through the ``parse_*`` helpers, which raise the fault of its
first faulty row.

Scenarios, experiment configs, coverage plans and reports are JSON, written
by ``write_json``: a dataclass field by field, minus fields marked
``NOT_STORED``, with keys sorted. ``record`` builds a dataclass back from
its JSON object and reports any wrong shape as ``ValidationError``.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from itertools import islice
from types import NoneType

import numpy as np

from .errors import SchemaError, ValidationError

DELIMITERS = {"csv": ",", "tsv": "\t"}
BLOCK_ROWS = 1024


def delimiter_for(fmt):
    try:
        return DELIMITERS[fmt]
    except KeyError:
        raise ValueError(f"unknown table format '{fmt}', expected one of {sorted(DELIMITERS)}")


@dataclass(frozen=True, eq=False)
class RowBlock:
    """Consecutive records of a table, blank ones included.

    ``rows`` holds each record's cells and ``lines`` the line it ends on,
    counting the header as line 1. The column methods convert a field of
    every record at once; each raises ``ValueError`` when a record is too
    short for the field or a cell does not convert, and ``records`` then
    serves the per-cell parsers.
    """

    header: list
    position: dict
    rows: list
    lines: list

    @cached_property
    def _columns(self):
        return list(zip(*self.rows))

    def cells(self, field):
        """The raw cells of ``field``, or None when the header lacks it."""
        i = self.position.get(field)
        if i is None:
            return None
        if i >= len(self._columns):
            raise ValueError(f"a record has no cell for '{field}'")
        return self._columns[i]

    def strings(self, field):
        values = list(map(str.strip, self.cells(field)))
        if not all(values):
            raise ValueError(f"empty '{field}' cell")
        return values

    def ints(self, field):
        """int64 values; a cell beyond 64 bits raises ``OverflowError``."""
        return np.fromiter(map(int, self.cells(field)), np.int64, len(self.rows))

    def floats(self, field):
        values = np.fromiter(map(float, self.cells(field)), float, len(self.rows))
        if np.isnan(values).any():
            raise ValueError(f"NaN in '{field}'")
        return values

    def optional_floats(self, field):
        """Float values, NaN where the cell is blank or the header lacks the field."""
        cells = self.cells(field)
        if cells is None:
            return np.full(len(self.rows), math.nan)
        cells = list(map(str.strip, cells))
        if all(cells):
            return self.floats(field)
        values = np.fromiter(
            (float(c) if c else math.nan for c in cells), float, len(self.rows)
        )
        filled = np.fromiter(map(bool, cells), bool, len(self.rows))
        if np.isnan(values[filled]).any():
            raise ValueError(f"NaN in '{field}'")
        return values

    def records(self):
        """Yield (line_number, row_dict) for every non-blank record.

        The dicts are those of ``csv.DictReader``: a short record gives None
        for its missing fields and a long one keeps its extra cells, all
        blank, under the key None. A record is blank when none of its
        fields holds more than whitespace.
        """
        width = len(self.header)
        for lineno, cells in zip(self.lines, self.rows):
            row = dict(zip(self.header, cells))
            if len(cells) > width:
                row[None] = cells[width:]
            elif len(cells) < width:
                row.update(dict.fromkeys(self.header[len(cells):]))
            if any(isinstance(v, str) and v.strip() for v in row.values()):
                yield lineno, row


def iter_blocks(source, required, delimiter=","):
    """Yield the records of a path or an open text stream as ``RowBlock``s.

    Checks that every name in ``required`` appears in the header. Each block
    holds ``BLOCK_ROWS`` records, the last one fewer. A record with text in
    a cell beyond the header raises ``SchemaError`` naming its line, after
    the block of the records before it.
    """
    if hasattr(source, "read"):
        yield from _iter_blocks(source, required, delimiter)
    else:
        with open(os.fspath(source), newline="") as handle:
            yield from _iter_blocks(handle, required, delimiter)


def _iter_blocks(handle, required, delimiter):
    reader = csv.reader(handle, delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        raise SchemaError("document is empty, expected a header row")
    for name in required:
        if name not in header:
            raise SchemaError("missing required column", field=name)
    # a repeated name reads its last column, as in csv.DictReader
    position = {name: i for i, name in enumerate(header)}
    width = len(header)
    while True:
        rows, lines = [], []
        try:
            for cells in islice(reader, BLOCK_ROWS):
                if len(cells) > width and any(map(str.strip, cells[width:])):
                    raise SchemaError(
                        f"text beyond the {width} columns of the header", line=reader.line_num
                    )
                rows.append(cells)
                lines.append(reader.line_num)
        except (csv.Error, ValueError, SchemaError):
            # the records before an unreadable, undecodable or overlong
            # one are still checked first
            if rows:
                yield RowBlock(header, position, rows, lines)
            raise
        if not rows:
            return
        yield RowBlock(header, position, rows, lines)


def iter_rows(source, required, delimiter=","):
    """Yield (line_number, row_dict) from a path or an open text stream.

    Checks that every name in ``required`` appears in the header and skips
    blank lines. Line numbers start at 1 for the header row.
    """
    for block in iter_blocks(source, required, delimiter):
        yield from block.records()


def cell(row, field):
    value = row.get(field)
    return value.strip() if isinstance(value, str) else None


def parse_str(row, field, lineno):
    value = cell(row, field)
    if not value:
        raise SchemaError("empty value", line=lineno, field=field)
    return value


def parse_float(row, field, lineno):
    raw = parse_str(row, field, lineno)
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"not a number: '{raw}'", line=lineno, field=field)
    if math.isnan(value):
        raise SchemaError("NaN is not a valid value", line=lineno, field=field)
    return value


def parse_int(row, field, lineno):
    raw = parse_str(row, field, lineno)
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"not an integer: '{raw}'", line=lineno, field=field)


def parse_int64(row, field, lineno):
    """``parse_int`` limited to the int64 range of ``RowBlock.ints``."""
    value = parse_int(row, field, lineno)
    int64 = np.iinfo(np.int64)
    if not int64.min <= value <= int64.max:
        raise SchemaError(
            f"integer beyond 64 bits: '{cell(row, field)}'", line=lineno, field=field
        )
    return value


def parse_optional_float(row, field, lineno, default=None):
    value = cell(row, field)
    if not value:
        return default
    return parse_float(row, field, lineno)


def format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.12g}"
    return str(value)


_format_float = "{:.12g}".format


def _format_column(values):
    """``format_value`` of every value of a column, one pass per column.

    A column of floats (NaN and None allowed) is formatted with ``.12g``,
    one without floats and None with ``str``; only a column that mixes
    floats or None with other types goes through ``format_value`` per cell.
    """
    kinds = set(map(type, values))
    floats = {kind for kind in kinds if issubclass(kind, float)}
    if not floats and NoneType not in kinds:
        return list(map(str, values))
    if kinds - floats - {NoneType}:
        return list(map(format_value, values))
    if NoneType in kinds:
        values = [math.nan if v is None else v for v in values]
    cells = list(map(_format_float, values))
    if "nan" in cells:
        cells = ["" if c == "nan" else c for c in cells]
    return cells


def write_table(path, header, rows, delimiter=","):
    """Write a table; ``rows`` is an iterable of sequences matching ``header``.

    Rows are formatted a block and a column at a time. A block whose cells
    need quoting is written by ``csv.writer``; the others as joined lines,
    which are the bytes ``csv.writer`` would write for them. A row whose
    length differs from the header's raises ``ValueError``.
    """
    if not header:
        raise ValueError("a table needs at least one column")
    rows = iter(rows)
    with open(os.fspath(path), "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        while block := list(islice(rows, BLOCK_ROWS)):
            if set(map(len, block)) != {len(header)}:
                raise ValueError(f"every row must have the {len(header)} cells of the header")
            columns = [_format_column(values) for values in zip(*block)]
            if len(columns) < 2 or any(_needs_quoting(c, delimiter) for c in columns):
                # csv.writer also quotes the empty cell of a one-column row
                writer.writerows(zip(*columns))
            else:
                handle.write("\n".join(map(delimiter.join, zip(*columns))) + "\n")
    return path


def _needs_quoting(cells, delimiter):
    # a "\r" goes to csv.writer too, so that its own rule for it decides
    text = "".join(cells)
    return delimiter in text or '"' in text or "\r" in text or "\n" in text


# field metadata of a dataclass field that JSON records leave out
NOT_STORED = {"stored": False}


def encode(value):
    """The JSON data of ``value``.

    A dataclass becomes an object of its fields, minus those marked
    ``NOT_STORED``; mapping keys become text and tuples lists.
    """
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(encode, value))
    if is_dataclass(value):
        return {
            f.name: encode(getattr(value, f.name))
            for f in fields(value) if f.metadata.get("stored", True)
        }
    return value


def write_json(path, value):
    """Write ``encode(value)`` indented, keys sorted, with a final newline."""
    with open(os.fspath(path), "w") as handle:
        json.dump(encode(value), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def record(cls, payload, what, **convert):
    """Build dataclass ``cls`` from the JSON object ``payload``.

    ``convert`` maps a field to the converter of its nested value, and a
    null there leaves the field at its default; other lists become tuples.
    A missing or unknown key, or a value of the wrong shape, raises
    ``ValidationError`` "malformed {what}: ..."; a ``ValidationError`` of
    ``cls`` itself passes through.
    """
    try:
        if not isinstance(payload, dict):
            raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
        values = {}
        for name, value in payload.items():
            if name in convert:
                if value is None:
                    continue
                value = convert[name](value)
            elif isinstance(value, list):
                value = tuple(value)
            values[name] = value
        return cls(**values)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc
