import csv
import io
import json

import numpy as np
import pytest

from wml.serialize import dumps_csv, dumps_json


def test_json_writes_null_for_non_finite_values_at_any_depth():
    inf, nan = float("inf"), float("nan")
    doc = {"a": inf, "b": [1.0, -inf, {"c": nan, "d": [[np.float64(inf)]]}],
           "e": np.array([0.5, -np.inf, np.nan])}
    assert json.loads(dumps_json(doc)) == {"a": None, "b": [1.0, None, {"c": None, "d": [[None]]}],
                                          "e": [0.5, None, None]}


def test_json_is_one_line():
    # json's C encoder writes one line; any indent falls back to its
    # pure-Python encoder, several times slower
    text = dumps_json({"rows": [{"x": 0.5, "y": [1, 2]}], "pass": True})
    assert text.endswith("\n") and text.count("\n") == 1


def test_json_accepts_numpy_values():
    doc = {"flag": np.bool_(True), "count": np.int64(7), "x": np.float64(0.25),
           "matrix": np.array([[1.0, 2.0], [3.0, 4.0]]), "ranks": np.array([1, 2])}
    assert json.loads(dumps_json(doc)) == {"flag": True, "count": 7, "x": 0.25,
                                           "matrix": [[1.0, 2.0], [3.0, 4.0]], "ranks": [1, 2]}


@pytest.mark.parametrize("x", (0.1, 1.0 / 3.0, 5e-324, -0.0, 1.7976931348623157e308))
def test_json_and_csv_round_trip_bit_identical(x):
    from_json = json.loads(dumps_json({"x": x}))["x"]
    from_csv = float(next(csv.DictReader(io.StringIO(dumps_csv([{"x": x}]))))["x"])
    assert from_json.hex() == from_csv.hex() == x.hex()
