import io
import math

import numpy as np
import pytest

from sparsemfd.errors import SchemaError
from sparsemfd.tableio import (
    BLOCK_ROWS,
    delimiter_for,
    format_value,
    iter_rows,
    parse_float,
    parse_int,
    parse_optional_float,
    parse_str,
    write_table,
)
from conftest import reference_iter_rows, reference_write_table


def test_iter_rows_from_stream():
    text = "a,b\n1,2\n\n3,4\n"
    rows = list(iter_rows(io.StringIO(text), ("a", "b")))
    assert [lineno for lineno, _ in rows] == [2, 4]
    assert rows[0][1]["a"] == "1"


def test_iter_rows_missing_column():
    with pytest.raises(SchemaError) as err:
        list(iter_rows(io.StringIO("a,b\n1,2\n"), ("a", "c")))
    assert err.value.field == "c"


def test_iter_rows_empty_document():
    with pytest.raises(SchemaError):
        list(iter_rows(io.StringIO(""), ("a",)))


def test_parse_float_rejects_nan_and_text():
    row = {"x": "nan", "y": "abc", "z": "2.5"}
    with pytest.raises(SchemaError):
        parse_float(row, "x", 3)
    with pytest.raises(SchemaError) as err:
        parse_float(row, "y", 3)
    assert err.value.line == 3
    assert parse_float(row, "z", 3) == 2.5


def test_parse_int_and_str():
    row = {"n": "7", "s": "  name  ", "bad": "7.5", "empty": ""}
    assert parse_int(row, "n", 2) == 7
    assert parse_str(row, "s", 2) == "name"
    with pytest.raises(SchemaError):
        parse_int(row, "bad", 2)
    with pytest.raises(SchemaError):
        parse_str(row, "empty", 2)


def test_parse_optional_float_blank_gives_default():
    assert parse_optional_float({"v": ""}, "v", 2) is None
    assert parse_optional_float({"v": "1.5"}, "v", 2) == 1.5


def test_format_value():
    assert format_value(None) == ""
    assert format_value(float("nan")) == ""
    assert format_value(0.1) == "0.1"
    assert format_value(155.0) == "155"
    assert format_value("x") == "x"


def test_write_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("a", "b"), [(1, 2.5), ("x", None)])
    rows = list(iter_rows(path, ("a", "b")))
    assert rows[0][1] == {"a": "1", "b": "2.5"}
    assert rows[1][1] == {"a": "x", "b": ""}


@pytest.mark.parametrize(
    "doc",
    [
        "a,b\n1,2\n",
        "a,b\n1,2\n\n\n3,4\n   \n ,\n5,6",
        # a short row, a long row whose extra cells are blank
        "a,b,c\n1\n1,2,3,, \n",
        # a repeated name reads its last column
        "a,b,a\n1,2,3\n1,2\n,2,\n1\n",
        # quoted cells over several lines, with CRLF and CR line ends
        'a,b\r\n"x\r\ny",2\r\n\r\n"p,q",""""\r\n',
        'a,b\r"x\ry",2\r3,4\r',
        "\na,b\n1,2\n",
        "a,b\n",
        "",
        # a document over several blocks, with two-line cells in each
        "a,b\n" + "".join(
            f'"{i}\n",{i}\n' if i % 300 == 0 else ("\n" if i % 7 == 0 else f"{i},{i}\n")
            for i in range(2 * BLOCK_ROWS + 11)
        ),
    ],
)
@pytest.mark.parametrize("from_path", [False, True])
def test_iter_rows_matches_the_dict_reader(doc, from_path, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(doc, newline="")

    def rows(read):
        source = path if from_path else io.StringIO(doc, newline="")
        try:
            return list(read(source, ("a",)))
        except SchemaError as exc:
            return str(exc)

    assert rows(iter_rows) == rows(reference_iter_rows)


def test_iter_rows_rejects_text_beyond_the_header():
    doc = "a,b,c\n1\n1,2,3,4\n,,,x\n"
    with pytest.raises(SchemaError) as err:
        list(iter_rows(io.StringIO(doc), ("a",)))
    assert str(err.value) == "text beyond the 3 columns of the header [line 3]"


def _long_table(quoted):
    rows = [(f"d{i}", i, i * 0.25, None if i % 5 else math.nan) for i in range(2 * BLOCK_ROWS + 3)]
    rows[-2] = (quoted, 1, 0.5, 1.5)
    return rows


WRITE_CASES = {
    "special ids": [
        ("a,b", 1.5), ("a\tb", 2.0), ('say "hi"', 3.0), ("two\nlines", 4.0),
        ("cr\rhere", 5.0), (" padded ", 6.0), ("", 7.0),
    ],
    "carriage return only": [("cr\rhere", 1.0), ("plain", 2.0)],
    "nan and none": [("x", math.nan, None), ("y", None, math.nan), ("z", -math.nan, 1.0)],
    "signed zero, infinities, subnormal scale": [
        (-0.0, math.inf, 1e-300), (0.0, -math.inf, -1e-300), (1 / 3, 1e22, 123456789012345.0),
    ],
    "numpy floats": [
        (np.float64(1 / 3), np.float64(math.nan), np.float32(0.1)),
        (np.float64(-0.0), np.float64(2.5), np.float32(math.nan)),
    ],
    "bools and large ints": [
        (True, 2 ** 70, np.int64(-7), np.bool_(False)),
        (False, -(2 ** 63), np.int64(2 ** 62), np.bool_(True)),
    ],
    "residual columns of floats and None": [
        (0, 1.5, None, 0.25), (1, None, 2.5, None), (2, np.float64(3.0), math.nan, None),
    ],
    "mixed types in a column": [("a", 1.0, None), (2, "b", True), (None, 3, math.nan)],
    "one column with empty cells": [(None,), ("",), (1.5,), (math.nan,)],
    "zero rows": [],
    "one row": [("d1", 0, 100.0, 10.0, None)],
    "quoted id in the last block only, comma": _long_table("late,id"),
    "quoted id in the last block only, tab": _long_table("late\tid"),
    "quoted id in the last block only, newline": _long_table("late\nid"),
}


@pytest.mark.parametrize("case", list(WRITE_CASES))
@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_write_table_matches_the_per_cell_reference(case, delimiter, tmp_path):
    rows = WRITE_CASES[case]
    header = tuple(f"c{i}" for i in range(len(rows[0]) if rows else 3))
    written = write_table(tmp_path / "new", header, iter(rows), delimiter)
    reference = reference_write_table(tmp_path / "old", header, rows, delimiter)
    assert written.read_bytes() == reference.read_bytes()


def test_write_table_rejects_rows_unlike_the_header(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), [(1, 2), (3,)])
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), [(1, 2, 3)])
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", (), [()])


def test_delimiter_for():
    assert delimiter_for("csv") == ","
    assert delimiter_for("tsv") == "\t"
    with pytest.raises(ValueError):
        delimiter_for("xlsx")
