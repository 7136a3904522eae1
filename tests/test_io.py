import math

import pytest

from stcmsense import io
from stcmsense.io import write_csv


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


HEADER = ("value", "flag", "count", "name", "empty")


def mixed_rows(n: int) -> list[tuple]:
    """Rows cycling through the cell kinds the experiments write, and the
    float edge cases: masked values, signed zero, infinities, subnormals."""
    floats = [1.5, None, -0.0, 0.0, math.inf, -math.inf, 5e-324, 0.1 + 0.2, -2.5e-300,
              1e22, 123456789.0]
    return [(floats[i % len(floats)], i % 3 == 0, i - 7, ("human_like", "a b", "")[i % 3], None)
            for i in range(n)]


@pytest.mark.parametrize("n_rows", [0, 1, 4, 9, 13])
def test_chunked_columns_match_per_cell_oracle(tmp_path, monkeypatch, n_rows):
    monkeypatch.setattr(io, "CHUNK_ROWS", 4)
    path = tmp_path / "t.csv"
    rows = mixed_rows(n_rows)
    write_csv(path, HEADER, rows)
    assert path.read_bytes() == oracle_csv(HEADER, rows).encode()


def test_default_chunk_with_remainder(tmp_path):
    rows = mixed_rows(2 * io.CHUNK_ROWS + 5)
    path = tmp_path / "t.csv"
    write_csv(path, HEADER, iter(rows))  # any iterable of rows
    assert path.read_bytes() == oracle_csv(HEADER, rows).encode()
    assert path.read_text().count("\n") == len(rows) + 1


def test_cell_forms(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c", "d"), [(None, True, False, -0.0), (5e-324, 3, "x", math.inf)])
    assert path.read_text() == "a,b,c,d\n,true,false,-0.0\n5e-324,3,x,inf\n"
