import io
import math
import sys

import numpy as np
import pytest

from sparsemfd.errors import SchemaError
from sparsemfd.tableio import (
    BLOCK_ROWS,
    FLOAT,
    INT,
    INT64,
    OPTIONAL_FLOAT,
    TEXT,
    delimiter_for,
    format_column,
    format_value,
    read_table,
    write_columns,
    write_table,
)
from conftest import reference_read_table, reference_write_table


def test_read_table_from_stream():
    text = "a,b\n1,2\n\n3,4\n"
    table = read_table(io.StringIO(text), {"a": TEXT, "b": TEXT})
    assert table.lines == [2, 4]
    assert table["a"][0] == "1"
    assert table.fault is None


def test_read_table_missing_column():
    with pytest.raises(SchemaError) as err:
        read_table(io.StringIO("a,b\n1,2\n"), {"a": TEXT, "c": TEXT})
    assert err.value.field == "c"


def test_read_table_empty_document():
    with pytest.raises(SchemaError):
        read_table(io.StringIO(""), {"a": TEXT})


def _one_cell(kind, text, line):
    """The table of one cell ``text`` of kind ``kind`` on line ``line``,
    beside a text cell that keeps its row from being blank."""
    doc = "v,w\n" + "\n" * (line - 2) + f"{text},x\n"
    return read_table(io.StringIO(doc), {"v": kind, "w": TEXT})


def test_float_cells_reject_nan_and_text():
    with pytest.raises(SchemaError):
        _one_cell(FLOAT, "nan", 3).check()
    with pytest.raises(SchemaError) as err:
        _one_cell(FLOAT, "abc", 3).check()
    assert err.value.line == 3
    assert _one_cell(FLOAT, "2.5", 3)["v"].tolist() == [2.5]


def test_int_and_text_cells():
    assert _one_cell(INT, "7", 2)["v"] == [7]
    assert _one_cell(TEXT, "  name  ", 2)["v"] == ["name"]
    with pytest.raises(SchemaError):
        _one_cell(INT, "7.5", 2).check()
    with pytest.raises(SchemaError):
        _one_cell(TEXT, "", 2).check()


def test_a_blank_optional_float_cell_is_nan():
    assert math.isnan(_one_cell(OPTIONAL_FLOAT, "", 2)["v"][0])
    assert _one_cell(OPTIONAL_FLOAT, "1.5", 2)["v"].tolist() == [1.5]


def test_a_faulty_row_stops_the_table_after_the_rows_before_it():
    doc = "a,b\n1,2.5\n\n3,x\n4,1\n"
    table = read_table(io.StringIO(doc), {"a": INT, "b": FLOAT})
    assert (table.lines, table["a"], table["b"].tolist()) == ([2], [1], [2.5])
    assert list(table.rows()) == [(1, 2.5)]
    assert str(table.fault) == "not a number: 'x' [field 'b'] [line 4]"
    with pytest.raises(SchemaError) as err:
        table.check()
    assert err.value is table.fault


def test_columns_have_the_types_of_their_kinds():
    doc = "t,i,j,f\nx,99999999999999999999,-3,1e3\n"
    schema = {"t": TEXT, "i": INT, "j": INT64, "f": FLOAT, "o": OPTIONAL_FLOAT}
    table = read_table(io.StringIO(doc), schema)
    assert table["t"] == ["x"] and table["i"] == [99999999999999999999]
    assert table["j"].dtype == np.int64 and table["j"].tolist() == [-3]
    assert table["f"].dtype == float and math.isnan(table["o"][0])
    empty = read_table(io.StringIO("t,i,j,f\n"), {"t": TEXT, "i": INT, "j": INT64, "f": FLOAT})
    assert (empty["t"], empty["i"], empty["j"].dtype, empty["f"].dtype) == ([], [], np.int64, float)


def test_a_schema_needs_a_required_field():
    with pytest.raises(ValueError, match="needs a field that is not OPTIONAL_FLOAT"):
        read_table(io.StringIO("a\n1\n"), {"a": OPTIONAL_FLOAT})


def test_format_value():
    assert format_value(None) == ""
    assert format_value(float("nan")) == ""
    assert format_value(0.1) == "0.1"
    assert format_value(155.0) == "155"
    assert format_value("x") == "x"


def test_float_cells_are_formatted_like_the_format_spec():
    # random bit patterns reach every exponent, NaN payloads included
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**63, size=50_000, dtype=np.uint64) * np.uint64(2)
    bits += rng.integers(0, 2, size=bits.size, dtype=np.uint64)
    corpus = [
        *bits.view(np.float64).tolist(),
        *rng.normal(0.0, 1e3, size=20_000).tolist(),
        *rng.uniform(0.0, 1.0, size=20_000).round(6).tolist(),
        0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
        sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
        0.1, 1e12, 1e-5, 999999999999.5, 123456789012.0, 1e16,
    ]
    corpus += [np.float64(v) for v in corpus[::50]]
    expected = ["" if math.isnan(v) else format(v, ".12g") for v in corpus]
    assert format_column(corpus) == expected
    assert format_column(np.array(corpus)) == expected


def test_write_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("a", "b"), [(1, 2.5), ("x", None)])
    table = read_table(path, {"a": TEXT, "b": OPTIONAL_FLOAT})
    assert table["a"] == ["1", "x"]
    assert table["b"][0] == 2.5 and math.isnan(table["b"][1])


SCHEMAS = {
    "text": {"a": TEXT},
    "optional beside text": {"b": TEXT, "a": OPTIONAL_FLOAT},
    "int": {"b": INT},
    "int64 and text": {"a": INT64, "c": TEXT},
    "float beside an absent optional": {"b": FLOAT, "z": OPTIONAL_FLOAT},
}
READ_CASES = [
    "a,b\n1,2\n",
    "a,b\n1,2\n\n\n3,4\n   \n ,\n5,6",
    # a short row, a long row whose extra cells are blank
    "a,b,c\n1\n1,2,3,, \n",
    "a,b,c\n1,2,3\n4,5\n",
    # a repeated name reads its last column
    "a,b,a\n1,2,3\n1,2\n,2,\n1\n",
    # quoted cells over several lines, with CRLF and CR line ends
    'a,b\r\n"x\r\ny",2\r\n\r\n"p,q",""""\r\n',
    'a,b\r"x\ry",2\r3,4\r',
    "\na,b\n1,2\n",
    "a,b\n",
    "",
    # malformed cells: NaN, text in numbers, a bin beyond 64 bits, blanks
    "a,b,c\n1,2,x\nnan,1,y\n",
    "a,b,c\n 2 , 1_000 ,x\n3,1.5,y\n",
    "a,b,c\n1,+2,x\n99999999999999999999,3,y\n",
    "a,b,c\n-1,2,x\n,3,y\n1,4,\n",
    "a,b,c\ninf,-0,x\n1e3,2,x\n",
    # a document over several blocks, with two-line cells in each
    "a,b\n" + "".join(
        f'"{i}\n",{i}\n' if i % 300 == 0 else ("\n" if i % 7 == 0 else f"{i},{i}\n")
        for i in range(2 * BLOCK_ROWS + 11)
    ),
    # faults past the first block
    "a,b,c\n" + "".join(f"{i},{i},x\n" for i in range(BLOCK_ROWS + 20)) + "1,nan,x\n,1,\n",
    "a,b,c\n" + "".join(f"{i},{i},x\n" for i in range(BLOCK_ROWS + 20)) + "1,1\n1,1,x\n",
]


@pytest.mark.parametrize("doc", READ_CASES)
@pytest.mark.parametrize("schema", list(SCHEMAS))
@pytest.mark.parametrize("from_path", [False, True])
def test_read_table_matches_the_per_cell_reference(doc, schema, from_path, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(doc, newline="")
    schema = SCHEMAS[schema]

    def source():
        return path if from_path else io.StringIO(doc, newline="")

    try:
        table = read_table(source(), schema)
    except SchemaError as exc:
        # a header fault: no rows
        actual = ([], {field: [] for field in schema}, str(exc))
    else:
        columns = {
            f: c.tolist() if isinstance(c, np.ndarray) else c for f, c in table.columns.items()
        }
        actual = (table.lines, columns, None if table.fault is None else str(table.fault))
    assert _nan_as_text(actual) == _nan_as_text(reference_read_table(source(), schema))


def _nan_as_text(result):
    """``(lines, columns, fault)`` with every NaN value as the text "NaN",
    so that results compare with ``==``."""
    lines, columns, fault = result
    columns = {
        field: ["NaN" if isinstance(v, float) and math.isnan(v) else v for v in values]
        for field, values in columns.items()
    }
    return lines, columns, fault


def test_read_table_rejects_text_beyond_the_header():
    doc = "a,b,c\n1\n1,2,3,4\n,,,x\n"
    table = read_table(io.StringIO(doc), {"a": TEXT})
    assert table.lines == [2]
    with pytest.raises(SchemaError) as err:
        table.check()
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


COLUMN_CASES = {
    "nan and none": [(math.nan, None, 1.5), (None, math.nan, -math.nan)],
    "bools": [(True, np.bool_(False)), (False, np.bool_(True))],
    "ints": [(0, -(2 ** 63), np.int64(7)), (2 ** 70, 5, np.int64(-1))],
    "mixed": [("a", 1.0, None, True), (2, "b", math.nan, 1.5), (None, 3, 4, "c")],
    "header only": [],
    "ids with the comma": [("a,b", 1.0, "observed"), ("c", math.nan, "failed")],
    "ids with the tab": [("a\tb", 1.0, "observed"), ("c", 2.0, "imputed")],
    "ids with a double quote": [('say "hi"', 1.0, "observed"), ("c", 2.0, "imputed")],
    "ids with a carriage return": [("cr\rhere", 1.0, "observed"), ("c", 2.0, "imputed")],
    "ids with a newline": [("two\nlines", 1.0, "observed"), ("c", 2.0, "imputed")],
    "one column": [(None,), ("",), (1.5,), (math.nan,)],
}


def _blocks(rows, sizes):
    """``rows`` cut into blocks of ``sizes`` rows, the last taking the
    rest, each as its formatted columns."""
    blocks, start = [], 0
    for size in [*sizes, len(rows)]:
        block = rows[start:start + size]
        start += len(block)
        if block:
            blocks.append([format_column(c) for c in zip(*block)])
    return blocks


@pytest.mark.parametrize("case", list(COLUMN_CASES) + list(WRITE_CASES))
@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_write_columns_matches_the_per_cell_reference(case, delimiter, tmp_path):
    rows = COLUMN_CASES.get(case, WRITE_CASES.get(case))
    header = tuple(f"c{i}" for i in range(len(rows[0]) if rows else 3))
    reference = reference_write_table(tmp_path / "old", header, rows, delimiter).read_bytes()
    # one block, and blocks of one and of two rows, where a quoted cell
    # falls in some blocks only
    for sizes in ((), (1, 2)):
        written = write_columns(tmp_path / "new", header, _blocks(rows, sizes), delimiter)
        assert written.read_bytes() == reference


def test_float_arrays_are_formatted_like_their_values():
    rng = np.random.default_rng(4)
    values = rng.lognormal(5.0, 3.0, 500) * rng.choice([-1.0, 1.0], 500)
    values[::7] = math.nan
    values[1::50] = (math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e22, 1 / 3, 0.1, 155.0, -1e-300)
    assert format_column(values) == list(map(format_value, values.tolist()))
    assert format_column(values[:0]) == []
    # only float64 arrays take the .12g pass; other arrays keep their
    # per-value formatting
    single = values[:20].astype(np.float32)
    assert format_column(single) == list(map(format_value, single))


def test_write_columns_rejects_columns_unlike_the_header(tmp_path):
    cells = ["1", "2"]
    with pytest.raises(ValueError):
        write_columns(tmp_path / "t.csv", ("a", "b"), [[cells]])
    with pytest.raises(ValueError):
        write_columns(tmp_path / "t.csv", ("a", "b"), [[cells, cells, cells]])
    with pytest.raises(ValueError):
        write_columns(tmp_path / "t.csv", ("a", "b"), [[cells, cells], [cells, ["3"]]])
    with pytest.raises(ValueError):
        write_columns(tmp_path / "t.csv", (), [])


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
