"""Deterministic JSON emission with 17-significant-digit floats.

Doubles round-trip exactly at 17 significant digits, so text produced here
parses back to bit-identical values. Dict key order is preserved as built,
which keeps repeated runs byte-identical.
"""

import json

import numpy as np


def complex_pair(z) -> list:
    """Complex number as a [re, im] pair of floats."""
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_pairs(m) -> list:
    """Row-major nested list of [re, im] entries."""
    m = np.asarray(m, dtype=np.complex128)
    return [[complex_pair(z) for z in row] for row in m]


def matrix_from_pairs(rows) -> np.ndarray:
    return np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128
    )


def dumps(obj) -> str:
    """Serialize nested dict/list/str/int/float structures deterministically,
    one dict entry per line, indented two spaces a level."""

    def emit(o, depth):
        if isinstance(o, dict):
            if not o:
                return "{}"
            pad = "  " * (depth + 1)
            items = [f"{pad}{json.dumps(str(k))}: {emit(v, depth + 1)}" for k, v in o.items()]
            return "{\n" + ",\n".join(items) + "\n" + "  " * depth + "}"
        if isinstance(o, (list, tuple)):
            inner = ", ".join(emit(v, depth + 1) for v in o)
            return f"[{inner}]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            if not np.isfinite(o):
                raise ValueError("non-finite float cannot be serialized")
            return "%.17g" % float(o)
        if isinstance(o, str):
            return json.dumps(o)
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj, 0)
