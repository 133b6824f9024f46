"""JSON text for bsq documents, byte for byte as json.dumps(..., sort_keys=True, indent=2)."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

_FIELD = {int: "%d", float: "%r", str: "%s"}


def _flat(values: list):
    """(types, values) of a flat list of ints, finite floats and escaped strings, or None."""
    types = tuple(map(type, values))
    if not set(types) <= _FIELD.keys():
        return None
    if float in types and not all(math.isfinite(x) for x in values if type(x) is float):
        return None
    if str in types:
        values = [_escape(x) if type(x) is str else x for x in values]
    return types, values


def _shape(row):
    """(shape, values) of a row that a %-template can write, or None.

    A row is a flat list, or a dict with string keys whose values are
    scalars or flat lists; the shape fixes its types, lengths and keys.
    """
    if type(row) is list:
        return _flat(row)
    if type(row) is not dict or not row or not all(type(key) is str for key in row):
        return None
    shape, values = [], []
    for key in sorted(row):
        value = row[key]
        is_list = type(value) is list
        part = _flat(value if is_list else [value])
        if part is None:
            return None
        types, flat = part
        shape.append((key, types if is_list else types[0]))
        values += flat
    return tuple(shape), values


def _template(shape, nl: str) -> str:
    """The %-format of a row of this shape whose lines start with nl."""
    inner = nl + "  "
    if not shape:
        return "[]"
    if type(shape[0]) is type:
        return "[" + inner + ("," + inner).join(_FIELD[t] for t in shape) + nl + "]"
    return "{" + inner + ("," + inner).join(
        _escape(key).replace("%", "%%") + ": " + (_template(t, inner) if type(t) is tuple else _FIELD[t])
        for key, t in shape
    ) + nl + "}"


def _items(items: list, nl: str) -> list[str]:
    """Each item encoded at nl; rows of the first row's shape share one template."""
    first = _shape(items[0])
    if first is None:
        return [_encode(item, nl) for item in items]
    template = _template(first[0], nl)
    out = []
    for item in items:
        row = _shape(item)
        out.append(template % tuple(row[1]) if row is not None and row[0] == first[0] else _encode(item, nl))
    return out


def _complex_rows(matrix: np.ndarray, nl: str) -> list[str]:
    """A finite complex matrix as rows of [re, im] pairs, one template per row."""
    rows, cols = matrix.shape
    row_nl, pair_nl = nl + "  ", nl + "    "
    pair = "[" + pair_nl + "%r," + pair_nl + "%r" + row_nl + "]"
    template = "[" + row_nl + ("," + row_nl).join([pair] * cols) + nl + "]"
    flat = np.stack((matrix.real, matrix.imag), axis=-1).reshape(rows, 2 * cols).tolist()
    return [template % tuple(row) for row in flat]


def _encode(value, nl: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, each new line starting with nl."""
    kind = type(value)
    inner = nl + "  "
    if kind is dict and value and all(type(key) is str for key in value):
        parts = (_escape(key) + ": " + _encode(value[key], inner) for key in sorted(value))
    elif kind is list and value:
        parts = _items(value, inner)
    elif kind is np.ndarray and value.ndim == 2 and value.dtype.kind == "c" and value.size:
        if not np.isfinite(value).all():
            return _encode(np.stack((value.real, value.imag), axis=-1).tolist(), nl)
        parts = _complex_rows(value, inner)
    elif kind is int:
        return int.__repr__(value)
    elif kind is float and math.isfinite(value):
        return float.__repr__(value)
    elif kind is str:
        return _escape(value)
    else:
        # NaN, infinities, bools, None, empty containers and anything else
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", nl)
    brackets = "{}" if kind is dict else "[]"
    return brackets[0] + inner + ("," + inner).join(parts) + nl + brackets[1]


def dumps(doc) -> str:
    """The text of json.dumps(doc, sort_keys=True, indent=2), written faster.

    CPython's C encoder does not run when indent is set, so json writes
    every token from a Python generator.  Here an array whose rows share
    one shape (flat number lists, or dicts of numbers, strings and flat
    number lists) is written with one %-template per array, and a complex
    matrix as rows of [re, im] pairs.  int is written with %d and float with
    %r, which equal int.__repr__ and float.__repr__ as json uses them; the
    type checks are exact, so bool and float subclasses are not covered.
    NaN, infinities and every other value go through json itself.
    """
    return _encode(doc, "\n")
