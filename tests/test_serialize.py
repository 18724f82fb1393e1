import csv
import io
import json
import math

import numpy as np
import pytest

import wml.serialize
from wml.cli import parse_model
from wml.experiments import list_experiments, run_experiment, sweep_kernel
from wml.features import FeatureMapSpec
from wml.geometry import jacobian, metric_tensor, numerical_rank, transversality_check
from wml.models import KernelSpec, canonical_family, cauchy_family, gaussian_family, scale_kernel_family
from wml.serialize import dumps_csv, dumps_json, eval_doc, experiment_doc, sweep_doc


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


def reference_plain(obj):
    """The value walk as it was written before it dispatched on types."""
    if isinstance(obj, dict):
        return {key: reference_plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [reference_plain(val) for val in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def documents():
    for name in list_experiments():
        yield experiment_doc(run_experiment(name))
    for text, lam in (("gaussian:mu=0.3,sigma=1.1", [1.2]), ("cauchy:mu=0", [0.7]), ("stable:alpha=1.5", [2.0])):
        model, spec = parse_model(text), FeatureMapSpec((0, 1, 2))
        fam, theta = canonical_family(model)
        rep = jacobian(fam, scale_kernel_family(), theta, lam, spec)
        yield eval_doc(text, KernelSpec(lam[0]), spec, rep.features, metric_tensor(rep),
                       numerical_rank(rep.joint, rep.error_estimates), transversality_check(rep, (), rep.features))
    kfam = scale_kernel_family()
    yield sweep_doc(sweep_kernel(cauchy_family(), kfam, FeatureMapSpec((0,)), [(0.5,), (4.0,)], [(0.0,)]))
    yield sweep_doc(sweep_kernel(gaussian_family(), kfam, FeatureMapSpec((0, 1, 2)), [(2.0,), (30.0,)],
                                 [(0.0, 1.0), (0.5, 0.7)]))
    inf, nan = float("inf"), float("nan")
    hostile = [inf, -inf, nan, np.float64(-inf), np.float32(nan), np.int64(3), np.bool_(False), np.float32(0.1),
               np.array([1.5, inf, -inf, nan]), np.array([[nan, 2.0], [3.0, -inf]]), np.array([1, 2]),
               np.array([True, False]), (0.25, -inf), None, "text", True, 7]
    yield {"top": hostile, "deep": {"a": {"b": [hostile, {"c": hostile}]}}, "x": nan, "y": np.float64(2.5)}


def test_every_document_serializes_as_the_reference_walk_did():
    # dispatching on type(obj), an array by one tolist, writes byte for
    # byte the text the isinstance walk wrote, non-finite floats as null
    # at every depth, numpy scalars and arrays as Python values
    for doc in documents():
        want = json.dumps(reference_plain(doc), allow_nan=False) + "\n"
        assert dumps_json(doc) == want
        assert json.dumps(wml.serialize._plain(doc), allow_nan=False) + "\n" == want
