import math

import numpy as np
import pytest

from stcmsense import io
from stcmsense.io import format_column, write_csv


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
    """Rows of CSV fields, one ``format_column`` call per column; the last column
    an array masked where NaN, as a map column is."""
    *plain, last = columns
    return list(zip(*map(format_column, plain), format_column(np.array(last))))


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
    assert format_column([None, True, False]) == ["", "true", "false"]
    assert format_column([-0.0, 5e-324, math.inf, -math.inf, 1e22, 0.1 + 0.2, None]) == [
        "-0.0", "5e-324", "inf", "-inf", "1e+22", "0.30000000000000004", ""]
    assert format_column([3, None, "x", ""]) == ["3", "", "x", ""]
    assert format_column([None, None]) == ["", ""]
    assert format_column(np.array([math.nan, 2.5, math.nan])) == ["", "2.5", ""]
    path = tmp_path / "t.csv"
    columns = [[None, 5e-324], [True, False], ["x", 3], [-0.0, math.inf]]
    write_csv(path, ("a", "b", "c", "d"), list(zip(*map(format_column, columns))))
    assert path.read_text() == "a,b,c,d\n,true,x,-0.0\n5e-324,false,3,inf\n"


EDGES = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, 1e22, 0.1 + 0.2, 1.5, -2.5e-300]


def per_element(values, db=False) -> list[str]:
    """The fields of a float array written one cell at a time: NaN empty."""
    return ["" if math.isnan(v) else repr(10.0 * math.log10(v) if db else v)
            for v in values.tolist()]


@pytest.mark.parametrize("values", [
    np.array(EDGES),
    np.array([EDGES[i % 7] for i in range(50)] + [math.nan, -0.0, 0.0]),  # repeated values
    np.full(9, math.nan),  # all masked, as ris-compare's baseline column is by default
    np.array([]),
], ids=["edges", "repeated", "all-masked", "empty"])
def test_array_column_is_per_element_repr(values):
    assert format_column(values) == per_element(values)
    assert format_column(np.isnan(values)) == ["true" if m else "false" for m in np.isnan(values)]


def test_signed_zeros_and_edges_stay_apart():
    assert format_column(np.array([0.0, -0.0, 0.0, -0.0, 5e-324, 1e22, math.nan])) == [
        "0.0", "-0.0", "0.0", "-0.0", "5e-324", "1e+22", ""]


def test_db_column_is_per_element_log10():
    rng = np.random.default_rng(3)
    values = np.concatenate([10.0 ** rng.uniform(-30, 5, 200), [math.nan, 1.0, math.inf, 5e-324]])
    values = rng.permutation(np.tile(values, 3))
    assert format_column(values, db=True) == per_element(values, db=True)


def test_each_distinct_bit_pattern_is_formatted_once(monkeypatch):
    rng = np.random.default_rng(4)
    values = rng.choice(np.array([0.25, 3.0, -0.0, 0.0, 1e-12, math.nan, 7.5]), 500)
    positive = values[values > 0]
    want, want_db = per_element(values), per_element(positive, db=True)
    seen = {"repr": [], "log10": []}

    def recorder(name, fn):
        return lambda v: seen[name].append(v) or fn(v)

    monkeypatch.setattr(io, "repr", recorder("repr", repr), raising=False)
    monkeypatch.setattr(io.math, "log10", recorder("log10", math.log10))
    assert format_column(values) == want
    assert sorted(np.array(seen["repr"]).view(np.int64).tolist()) == sorted(
        set(values[~np.isnan(values)].view(np.int64).tolist()))
    seen["repr"].clear()
    assert format_column(positive, db=True) == want_db
    assert sorted(np.array(seen["log10"]).view(np.int64).tolist()) == sorted(
        set(positive.view(np.int64).tolist()))
    assert len(seen["repr"]) == len(seen["log10"])
