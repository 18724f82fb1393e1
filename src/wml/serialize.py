"""Machine-readable output: JSON and CSV with stable schemas.

Floats are written in both formats as their shortest round-trip repr,
so a value parsed back from CSV is bit-identical to the same value
parsed from JSON.  Non-finite floats become null (JSON) or the tokens
inf/-inf/nan (CSV).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

__all__ = ["format_number", "dumps_json", "dumps_csv", "flatten_doc",
           "experiment_doc", "eval_doc", "sweep_doc"]


def format_number(x: float) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _plain(obj):
    """``obj`` with numpy scalars and arrays as Python values and
    non-finite floats as None, each value dispatched on its type, the
    JSON scalars first; an array is converted by one ``tolist``."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else None
    if kind is int or kind is str or kind is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    return _plain(obj.tolist()) if isinstance(obj, (np.ndarray, np.generic)) else obj


def dumps_json(obj) -> str:
    return json.dumps(_plain(obj), allow_nan=False) + "\n"


def dumps_csv(rows, columns=None) -> str:
    """Row-oriented CSV with a header; column order is first-seen order."""
    rows = list(rows)
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return format_number(x)


def flatten_doc(doc, prefix=""):
    """Flatten a nested document to (dotted-key, scalar) pairs."""
    items = []
    if isinstance(doc, dict):
        for key, val in doc.items():
            items.extend(flatten_doc(val, f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple, np.ndarray)):
        for i, val in enumerate(doc):
            items.extend(flatten_doc(val, f"{prefix}{i}."))
    else:
        items.append((prefix[:-1], doc))
    return items


def experiment_doc(res) -> dict:
    return {
        "name": res.name,
        "pass": bool(res.passed),
        "metrics": dict(res.metrics),
        "tolerances": dict(res.tolerances),
        "runtime_seconds": res.runtime_seconds,
        "diagnostic": res.diagnostic,
        "table": [dict(row) for row in res.table],
    }


def experiment_csv(res) -> str:
    rows = [{"experiment": res.name, "metric": k, "value": v,
             "tolerance": res.tolerances.get(k), "pass": bool(res.passed)}
            for k, v in res.metrics.items()]
    return dumps_csv(rows, ["experiment", "metric", "value", "tolerance", "pass"])


def eval_doc(model_text, kernel, spec, features, tensor, rank, trans) -> dict:
    return {
        "model": model_text,
        "kernel": {"s": kernel.s, "c": kernel.c},
        "orders": list(spec.orders),
        "path": spec.path,
        "features": {
            "values": list(features.values),
            "errors": list(features.errors),
            "paths": list(features.paths),
        },
        "metric_tensor": {
            "matrix": [list(row) for row in tensor.matrix],
            "det": tensor.det,
            "condition_number": tensor.condition_number,
            "correlation_det": tensor.correlation_det,
        },
        "joint_rank_report": {
            "singular_values": list(rank.singular_values),
            "rank": rank.rank,
            "tol_used": rank.tol_used,
        },
        "transversality": {
            "submersive": bool(trans.submersive),
            "model_rank": trans.model_rank,
            "joint_rank": trans.joint_rank,
            "enrichment": trans.enrichment,
            "verdicts": [
                {"stratum": v.name, "status": v.status,
                 "distance": v.distance, "normal_rank": v.normal_rank}
                for v in trans.verdicts
            ],
        },
    }


def sweep_doc(rows) -> dict:
    return {"rows": [dict(row) for row in rows]}
