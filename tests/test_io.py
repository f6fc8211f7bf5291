"""Deterministic writer tests."""
import numpy as np

from bandcross.io import write_csv


def test_write_csv_number_forms(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(str(path), list("abcdefg"),
              [(3, np.int64(7), 2.0, 0.1, float("nan"), float("inf"),
                -np.inf)])
    assert path.read_text() == "a,b,c,d,e,f,g\n3,7,2.0,0.1,nan,inf,-inf\n"
