"""Deterministic serialization: canonical JSON with 17-significant-digit
floats, CSV emission with the same float format, and config hashing.

Identical inputs must produce byte-identical files, so floats never go
through the default ``repr`` path and dictionary keys are always sorted.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = ["canonical_json", "config_hash", "format_number", "write_csv"]


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        raise TypeError("bool is not a number here")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, float, np.integer, np.floating)):
        out.append(format_number(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if k:
                out.append(", ")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for k, item in enumerate(seq):
            if k:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """JSON text with sorted keys and fixed float formatting."""
    out: list = []
    _emit(obj, out)
    return "".join(out)


def config_hash(resolved: dict) -> str:
    """sha256 of the canonical JSON; invariant under key reordering of
    the source file because only the resolved mapping is hashed."""
    return hashlib.sha256(canonical_json(resolved).encode()).hexdigest()


def _cell(v) -> str:
    return "" if v is None else format_number(v)


def write_csv(path, header, rows, constant=()):
    """Write rows of numbers (or None) under a fixed header, each row as it
    comes: ``rows`` may be a generator, and no file-sized text is built.
    The ``constant`` cells end every row and are formatted once."""
    end = "".join("," + _cell(v) for v in constant) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + end)
