"""Deterministic CSV / JSON / binary writers shared by the dump interfaces.

Floats are rendered with repr (shortest round-trip form) so identical inputs
produce byte-identical files; no timestamps enter file bodies.
"""

import json
import os

import numpy as np

__all__ = ["fmt", "write_csv", "write_json", "write_state_binary", "read_state_binary"]


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
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, payload):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_state_binary(path, values: np.ndarray, sidecar: dict):
    """Dump complex values as little-endian complex64 plus a JSON sidecar."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.asarray(values, dtype="<c8").tofile(path)
    write_json(path + ".json", dict(sidecar, dtype="<c8", count=int(values.size)))


def read_state_binary(path) -> tuple[np.ndarray, dict]:
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    values = np.fromfile(path, dtype="<c8").astype(np.complex128)
    return values, sidecar
