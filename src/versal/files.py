"""Self-describing JSON documents for matrices, structures, and polynomials.

Every document carries a ``kind`` tag and complex scalars serialize as
``[re, im]`` pairs, so one parser covers all fixture files.  Writing is
deterministic and floats round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .jordan import SegreStructure
from .linalg import as_matrix
from .linearization import MonicPolynomial


def _pairs(matrix):
    return [[float(z.real), float(z.imag)] for z in matrix.ravel()]


_JSON_TYPES = {int: "an integer", list: "an array", dict: "an object"}


def _field(doc, name, kind, expected):
    if name not in doc:
        raise ValueError(f"'{kind}' document is missing field '{name}'")
    return _typed(doc[name], expected, f"field '{name}'")


def _typed(value, expected, context):
    # bool is an int subclass; a float such as 1.9 is rejected, not truncated
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ValueError(f"{context}: expected {_JSON_TYPES[expected]}, got {value!r}")
    return value


def _complex_pair(value, context):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value)):
        raise ValueError(f"{context}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _complex_grid(entries, rows, cols, context, entry_prefix=""):
    # a row-major list of [re, im] pairs -> rows x cols complex array
    if len(entries) != rows * cols:
        raise ValueError(f"{context}: expected {rows * cols} pairs, got {len(entries)}")
    data = [_complex_pair(e, f"{entry_prefix}entry {i}") for i, e in enumerate(entries)]
    return np.array(data, dtype=complex).reshape(rows, cols)


def matrix_document(m):
    m = as_matrix(m)
    rows, cols = m.shape
    return {"kind": "matrix", "rows": rows, "cols": cols, "entries": _pairs(m)}


def parse_matrix(doc):
    _expect_kind(doc, "matrix")
    rows = _field(doc, "rows", "matrix", int)
    cols = _field(doc, "cols", "matrix", int)
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    entries = _field(doc, "entries", "matrix", list)
    return as_matrix(_complex_grid(entries, rows, cols, "field 'entries'"))


def segre_document(structure):
    return {
        "kind": "segre",
        "blocks": [{"eigenvalue": [float(eig.real), float(eig.imag)],
                    "sizes": list(sizes)}
                   for eig, sizes in structure.blocks],
    }


def parse_segre(doc):
    _expect_kind(doc, "segre")
    blocks = []
    for i, block in enumerate(_field(doc, "blocks", "segre", list)):
        block = _typed(block, dict, f"block {i}")
        eig = _complex_pair(_field(block, "eigenvalue", "segre", list), f"block {i}")
        sizes = _field(block, "sizes", "segre", list)
        blocks.append((eig, sizes))
    return SegreStructure(blocks)


def polynomial_document(poly):
    return {
        "kind": "polynomial",
        "degree": poly.degree,
        "size": poly.size,
        "coefficients": [_pairs(c) for c in poly.coefficients],
    }


def parse_polynomial(doc):
    _expect_kind(doc, "polynomial")
    degree = _field(doc, "degree", "polynomial", int)
    size = _field(doc, "size", "polynomial", int)
    raw = _field(doc, "coefficients", "polynomial", list)
    if degree < 1 or size < 1:
        raise ValueError(
            f"polynomial degree and size must be positive, got {degree} and {size}")
    if len(raw) != degree:
        raise ValueError(
            f"field 'coefficients': expected {degree} matrices, got {len(raw)}")
    coefficients = [
        _complex_grid(_typed(entries, list, f"coefficient {j}"), size, size,
                      f"coefficient {j}", f"coefficient {j} ")
        for j, entries in enumerate(raw)]
    return MonicPolynomial(coefficients)


def pattern_document(pattern):
    return {
        "kind": "pattern",
        "shape": pattern.shape.value,
        "base": segre_document(pattern.base)["blocks"],
        "parameters": pattern.parameter_count,
        "stars": [[row, col, param] for row, col, param in pattern.stars],
    }


def _expect_kind(doc, kind):
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    found = doc.get("kind")
    if found != kind:
        raise ValueError(f"expected a '{kind}' document, got kind={found!r}")


def load_document(path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level value must be a JSON object")
    return doc


def save_document(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _load(path, parser):
    try:
        return parser(load_document(path))
    except ValueError as exc:
        message = str(exc)
        if not message.startswith(str(path)):
            message = f"{path}: {message}"
        raise ValueError(message) from exc


def load_matrix(path):
    return _load(path, parse_matrix)


def load_segre(path):
    return _load(path, parse_segre)


def load_polynomial(path):
    return _load(path, parse_polynomial)
