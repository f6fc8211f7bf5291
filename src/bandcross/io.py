"""Deterministic CSV / JSON writers for the study reports.

Floats are rendered with repr (shortest round-trip form) so identical inputs
produce byte-identical files; no timestamps enter file bodies.  CSV keeps
nan and inf as Python spells them; JSON has no such values, so a non-finite
float is written there as null and the file stays strict JSON.
"""

import json
import os

import numpy as np

__all__ = ["fmt", "write_csv", "write_json"]


def fmt(x) -> str:
    """Shortest round-trip decimal form of a float or int."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header, rows):
    """Write rows of numbers (or strings) under a comma-separated header."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else fmt(c) for c in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    return obj


def write_json(path, payload):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
