"""Package I/O: delimiter-separated tables with a header row, and JSON records.

Readings, networks, sites, estimates and the figure data are plain text
tables. Field names are exact and case sensitive; parse errors report the
offending line and field.

Every input table is read by ``read_table`` through a schema that maps
each field to a column kind: ``TEXT``, ``INT``, ``INT64``, ``FLOAT`` or
``OPTIONAL_FLOAT``. Tables are read in blocks of up to ``BLOCK_ROWS``
rows, one column at a time. Only a block that does not convert as a whole
is walked cell by cell, to find its first faulty row.
The reader returns the rows before that row and holds its fault, so that a
loader checks the values of those rows first: the first faulty row wins,
whether its fault lies in a cell or in a value.

Every table is written by ``write_columns``, from blocks of columns that
``format_column`` formats in one pass each; ``write_table`` hands it rows
``BLOCK_ROWS`` at a time. A block is joined into lines at once, and written
by ``csv.writer`` only where a cell needs quoting.

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
from functools import lru_cache
from itertools import chain, islice
from types import NoneType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import SchemaError, ValidationError

DELIMITERS = {"csv": ",", "tsv": "\t"}
BLOCK_ROWS = 1024


def delimiter_for(fmt):
    try:
        return DELIMITERS[fmt]
    except KeyError:
        raise ValueError(f"unknown table format '{fmt}', expected one of {sorted(DELIMITERS)}")


# column kinds of a table schema
TEXT = "text"
INT = "int"
INT64 = "int64"
FLOAT = "float"
OPTIONAL_FLOAT = "optional float"

_INT64_RANGE = np.iinfo(np.int64)


@dataclass(frozen=True, eq=False)
class Table:
    """The rows of a table before its first faulty row, as typed columns.

    ``columns`` maps each schema field to its column: a list of str for
    ``TEXT``, of int for ``INT``, an int64 array for ``INT64`` and a float
    array for ``FLOAT`` and ``OPTIONAL_FLOAT``, NaN where an optional cell
    is blank or the header lacks the field. ``lines`` holds the line each
    row ends on, counting the header as line 1, and ``fault`` the error of
    the first faulty row, or None when every row was read.
    """

    columns: dict
    lines: list
    fault: Exception | None

    def __getitem__(self, field):
        return self.columns[field]

    def rows(self):
        """The rows as tuples of Python values, fields in schema order."""
        return zip(*(
            c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()
        ))

    def check(self):
        """Raise the fault of the first faulty row, if there is one."""
        if self.fault is not None:
            raise self.fault


def read_table(source, schema, delimiter=","):
    """Read a path or an open text stream into a ``Table``.

    ``schema`` maps each field to its column kind. Every field but an
    ``OPTIONAL_FLOAT`` one is required, and a schema needs one at least; a
    required field missing from the header raises ``SchemaError`` at once.
    Blank records are skipped. Reading stops at the first faulty row: a
    malformed cell (``SchemaError`` naming its line and its first faulty
    field in schema order), text in a cell beyond the header
    (``SchemaError`` naming the line) or an unreadable record (the error of
    ``csv.reader`` or of decoding). That error becomes ``Table.fault``, so
    that a loader checks the rows before it first.
    """
    if hasattr(source, "read"):
        return _read_table(source, schema, delimiter)
    with open(os.fspath(source), newline="") as handle:
        return _read_table(handle, schema, delimiter)


def _read_table(handle, schema, delimiter):
    required = [name for name, kind in schema.items() if kind != OPTIONAL_FLOAT]
    if not required:
        # a blank record converts only where a required cell fails
        raise ValueError("a table schema needs a field that is not OPTIONAL_FLOAT")
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
    blocks, lines, fault = [], [], None
    while fault is None:
        rows, block_lines = [], []
        try:
            for cells in islice(reader, BLOCK_ROWS):
                if len(cells) > width and any(map(str.strip, cells[width:])):
                    raise SchemaError(
                        f"text beyond the {width} columns of the header", line=reader.line_num
                    )
                rows.append(cells)
                block_lines.append(reader.line_num)
        except (csv.Error, ValueError, SchemaError) as exc:
            # the records before an unreadable, undecodable or overlong
            # one are still checked first
            fault = exc
        if not rows:
            break
        try:
            blocks.append(_convert_block(rows, position, schema))
        except (ValueError, OverflowError):
            columns, block_lines, row_fault = _walk_block(rows, block_lines, position, schema)
            blocks.append(columns)
            fault = row_fault or fault
        lines.extend(block_lines)
    columns = {
        field: _join(kind, [block[field] for block in blocks]) for field, kind in schema.items()
    }
    return Table(columns, lines, fault)


def _convert_block(rows, position, schema):
    """Every field of a block converted a column at a time.

    Raises ``ValueError`` or ``OverflowError`` when a record is blank or too
    short for a field, or a cell does not convert.
    """
    cells = list(zip(*rows))  # as long as the shortest record
    columns = {}
    for field, kind in schema.items():
        i = position.get(field)
        if i is None:
            columns[field] = np.full(len(rows), math.nan)
        elif i >= len(cells):
            raise ValueError(f"a record has no cell for '{field}'")
        else:
            columns[field] = _COLUMN[kind](cells[i])
    return columns


def _texts(cells):
    values = list(map(str.strip, cells))
    if not all(values):
        raise ValueError("empty cell")
    return values


def _floats(cells):
    values = np.fromiter(map(float, cells), float, len(cells))
    if np.isnan(values).any():
        raise ValueError("NaN cell")
    return values


def _optional_floats(cells):
    cells = list(map(str.strip, cells))
    if all(cells):
        return _floats(cells)
    values = np.fromiter((float(c) if c else math.nan for c in cells), float, len(cells))
    if np.isnan(values).sum() != cells.count(""):
        raise ValueError("NaN cell")
    return values


_COLUMN = {
    TEXT: _texts,
    INT: lambda cells: list(map(int, cells)),
    INT64: lambda cells: np.fromiter(map(int, cells), np.int64, len(cells)),
    FLOAT: _floats,
    OPTIONAL_FLOAT: _optional_floats,
}
_DTYPE = {INT64: np.int64, FLOAT: float, OPTIONAL_FLOAT: float}


def _walk_block(rows, lines, position, schema):
    """A block converted cell by cell, up to its first faulty row.

    Returns the columns, as lists, and the lines of the non-blank rows
    before that row, and its ``SchemaError``, or None when every row
    converts.
    """
    columns = {field: [] for field in schema}
    kept = []
    for cells, line in zip(rows, lines):
        # blank: no column that a header name reads holds text
        if not any(cells[i].strip() for i in position.values() if i < len(cells)):
            continue
        try:
            row = [
                _cell(cells, position.get(field), kind, field, line)
                for field, kind in schema.items()
            ]
        except SchemaError as exc:
            return columns, kept, exc
        for column, value in zip(columns.values(), row):
            column.append(value)
        kept.append(line)
    return columns, kept, None


def _cell(cells, i, kind, field, line):
    """One cell converted to ``kind``, or its ``SchemaError``."""
    raw = cells[i].strip() if i is not None and i < len(cells) else ""
    if not raw:
        if kind == OPTIONAL_FLOAT:
            return math.nan
        raise SchemaError("empty value", line=line, field=field)
    if kind == TEXT:
        return raw
    if kind in (INT, INT64):
        try:
            value = int(raw)
        except ValueError:
            raise SchemaError(f"not an integer: '{raw}'", line=line, field=field)
        if kind == INT64 and not _INT64_RANGE.min <= value <= _INT64_RANGE.max:
            raise SchemaError(f"integer beyond 64 bits: '{raw}'", line=line, field=field)
        return value
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"not a number: '{raw}'", line=line, field=field)
    if math.isnan(value):
        raise SchemaError("NaN is not a valid value", line=line, field=field)
    return value


def _join(kind, parts):
    """One column of a kind from the columns of its blocks."""
    if kind in _DTYPE:
        dtype = _DTYPE[kind]
        return np.concatenate([np.empty(0, dtype), *(np.asarray(p, dtype) for p in parts)])
    return list(chain.from_iterable(parts))


def format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.12g}"
    return str(value)


@lru_cache(maxsize=16)
def _floats_template(count):
    # one % operation formats a whole column; no .12g cell holds a newline
    return "\n".join(["%.12g"] * count)


def format_column(values):
    """``format_value`` of every value of a column, one pass per column.

    A float64 array, or a column of floats (NaN and None allowed), is
    formatted with ``.12g``, one without floats and None with ``str``; only
    a column that mixes floats or None with other types goes through
    ``format_value`` per cell.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        values = values.tolist()
    else:
        kinds = set(map(type, values))
        floats = {kind for kind in kinds if issubclass(kind, float)}
        if not floats and NoneType not in kinds:
            return list(map(str, values))
        if kinds - floats - {NoneType}:
            return list(map(format_value, values))
        if NoneType in kinds:
            values = [math.nan if v is None else v for v in values]
    if not values:
        return []
    cells = (_floats_template(len(values)) % tuple(values)).split("\n")
    if "nan" in cells:
        cells = ["" if c == "nan" else c for c in cells]
    return cells


def write_columns(path, header, blocks, delimiter=","):
    """Write a table from ``blocks`` of formatted columns.

    Each block holds one column of cells per header field, as
    ``format_column`` returns them, all of one length; blocks are written
    in turn, so only the block at hand is held. A block whose cells need
    quoting is written by ``csv.writer``; the others as joined lines, which
    are the bytes ``csv.writer`` would write for them. A block whose columns
    differ from the header in number, or from each other in length, raises
    ``ValueError``.
    """
    if not header:
        raise ValueError("a table needs at least one column")
    with open(os.fspath(path), "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for columns in blocks:
            if len(columns) != len(header) or len(set(map(len, columns))) != 1:
                raise ValueError(
                    f"every block must have the {len(header)} columns of the header, "
                    f"all of one length"
                )
            if not columns[0]:
                continue
            if len(columns) < 2 or any(_needs_quoting(c, delimiter) for c in columns):
                # csv.writer also quotes the empty cell of a one-column row
                writer.writerows(zip(*columns))
            else:
                handle.write("\n".join(map(delimiter.join, zip(*columns))) + "\n")
    return path


def write_table(path, header, rows, delimiter=","):
    """Write a table; ``rows`` is an iterable of sequences matching ``header``.

    Rows are taken ``BLOCK_ROWS`` at a time and written by ``write_columns``,
    each block formatted a column at a time. A row whose length differs from
    the header's raises ``ValueError``.
    """
    return write_columns(path, header, _row_blocks(iter(rows), len(header)), delimiter)


def _row_blocks(rows, width):
    """The formatted columns of each block of ``BLOCK_ROWS`` rows."""
    while block := list(islice(rows, BLOCK_ROWS)):
        if set(map(len, block)) != {width}:
            raise ValueError(f"every row must have the {width} cells of the header")
        yield [format_column(values) for values in zip(*block)]


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
    A field annotated with a scalar type (``int``, ``float``, ``str`` or
    ``bool``, optionally ``| None``) and no converter must hold a value of
    that type: an int for ``int``, an int or a float for ``float``, never a
    bool for a number. A field annotated ``tuple[scalar, ...]`` must hold a
    list, not a string, whose items each fit the scalar so. A missing or
    unknown key, or a value of the wrong type or shape, raises
    ``ValidationError`` "malformed {what}: ..."; a ``ValidationError`` of
    ``cls`` itself passes through.
    """
    try:
        if not isinstance(payload, dict):
            raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
        annotations = get_type_hints(cls)
        values = {}
        for name, value in payload.items():
            if name in convert:
                if value is None:
                    continue
                value = convert[name](value)
            else:
                if name in annotations:
                    _check_field(name, value, annotations[name])
                if isinstance(value, list):
                    value = tuple(value)
            values[name] = value
        return cls(**values)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


# the JSON values that each scalar annotation takes
_SCALARS = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _check_field(name, value, annotation):
    """Raise ``TypeError`` when ``value`` does not fit ``annotation``, a
    scalar type or ``tuple[scalar, ...]``; other annotations are left to the
    dataclass."""
    if get_origin(annotation) is tuple and get_args(annotation)[1:] == (Ellipsis,):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"'{name}' must be a list, got {value!r}")
        for item in value:
            expected = _misfit(item, get_args(annotation)[0])
            if expected:
                raise TypeError(f"'{name}' items must be {expected}, got {item!r}")
        return
    expected = _misfit(value, annotation)
    if expected:
        raise TypeError(f"'{name}' must be {expected}, got {value!r}")


def _misfit(value, annotation):
    """What a scalar ``annotation`` takes, if ``value`` does not fit it;
    None if it fits or the annotation is not a scalar one."""
    options = get_args(annotation) or (annotation,)
    if not set(options) <= {*_SCALARS, NoneType} or (value is None and NoneType in options):
        return None
    if isinstance(value, bool):
        fits = bool in options
    else:
        fits = isinstance(value, tuple(chain.from_iterable(_SCALARS.get(t, ()) for t in options)))
    return None if fits else " or ".join("null" if t is NoneType else t.__name__ for t in options)
