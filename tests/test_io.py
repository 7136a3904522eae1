import math

import pytest

from stcmsense import io
from stcmsense.io import _fields, write_csv


def oracle_csv(header, rows) -> str:
    """The CSV written out one cell at a time."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    return "".join(",".join(map(cell, line)) + "\n" for line in [header, *rows])


HEADER = ("value", "flag", "count", "name", "empty", "masked_value")
FLOATS = [1.5, None, -0.0, 0.0, math.inf, -math.inf, 5e-324, 0.1 + 0.2, -2.5e-300, 1e22,
          123456789.0]
NUMBERS = [v for v in FLOATS if v is not None]


def mixed_columns(n: int) -> list[list]:
    """Columns cycling through the cell kinds the experiments write, and the
    float edge cases: None, signed zero, infinities, subnormals.  The last
    column is a map column: NaN at its masked cells."""
    return [[FLOATS[i % len(FLOATS)] for i in range(n)],
            [i % 3 == 0 for i in range(n)],
            [i - 7 for i in range(n)],
            [("human_like", "a b", "")[i % 3] for i in range(n)],
            [None] * n,
            [math.nan if i % 4 == 1 else NUMBERS[i % len(NUMBERS)] for i in range(n)]]


def by_columns(columns) -> list[tuple]:
    """Rows of CSV fields, one ``_fields`` call per column; the last column
    masked where NaN, as a map column is."""
    *plain, last = columns
    fields = [_fields(c) for c in plain] + [_fields(last, [math.isnan(v) for v in last])]
    return list(zip(*fields))


def oracle_rows(columns) -> list[tuple]:
    """The same cells as values, a masked NaN as None."""
    return [tuple(None if isinstance(v, float) and math.isnan(v) else v for v in row)
            for row in zip(*columns)]


@pytest.mark.parametrize("n_rows", [0, 1, 4, 9, 13])
def test_chunked_columns_match_per_cell_oracle(tmp_path, monkeypatch, n_rows):
    monkeypatch.setattr(io, "CHUNK_ROWS", 4)
    path = tmp_path / "t.csv"
    columns = mixed_columns(n_rows)
    write_csv(path, HEADER, by_columns(columns))
    assert path.read_bytes() == oracle_csv(HEADER, oracle_rows(columns)).encode()


def test_default_chunk_with_remainder(tmp_path):
    columns = mixed_columns(2 * io.CHUNK_ROWS + 5)
    path = tmp_path / "t.csv"
    write_csv(path, HEADER, iter(by_columns(columns)))  # any iterable of rows
    assert path.read_bytes() == oracle_csv(HEADER, oracle_rows(columns)).encode()
    assert path.read_text().count("\n") == len(columns[0]) + 1


def test_cell_forms(tmp_path):
    assert _fields([None, True, False]) == ["", "true", "false"]
    assert _fields([-0.0, 5e-324, math.inf, -math.inf, 1e22, 0.1 + 0.2, None]) == [
        "-0.0", "5e-324", "inf", "-inf", "1e+22", "0.30000000000000004", ""]
    assert _fields([3, None, "x", ""]) == ["3", "", "x", ""]
    assert _fields([None, None]) == ["", ""]
    assert _fields([math.nan, 2.5, math.nan], [True, False, True]) == ["", "2.5", ""]
    path = tmp_path / "t.csv"
    columns = [[None, 5e-324], [True, False], ["x", 3], [-0.0, math.inf]]
    write_csv(path, ("a", "b", "c", "d"), list(zip(*map(_fields, columns))))
    assert path.read_text() == "a,b,c,d\n,true,x,-0.0\n5e-324,false,3,inf\n"
