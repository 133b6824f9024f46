"""JSON text for bsq documents, byte for byte as json.dumps(..., sort_keys=True, indent=2).

The text is streamed one value at a time.  The costly part of a large document
is float.__repr__, so what repeats is formatted once: a list of like records
from one %-template, and each row of a complex matrix from the text of its
least repeating block of [re, im] pairs, found by comparing the row's bytes.
A list of like records, or of flat int rows (a weights listing), is written
_BLOCK_ROWS items per %-format.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter

_INT = {int}
_ROW = {list, tuple}
# items per %-format of a list of flat int rows or like records: the text held at once is about one block
_BLOCK_ROWS = 512


def _write(value, write, nl: str) -> None:
    """Write value as json.dumps(value, sort_keys=True, indent=2) does, each new line starting with nl."""
    kind = type(value)
    inner = nl + "  "
    if kind is int:
        write(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        write(float.__repr__(value))
    elif kind is str:
        write(_escape(value))
    elif kind is dict and value and all(type(key) is str for key in value):
        sep = "{" + inner
        for key in sorted(value):
            write(sep + _escape(key) + ": ")
            _write(value[key], write, inner)
            sep = "," + inner
        write(nl + "}")
    elif kind is list and value:
        if type(value[0]) is dict and _write_records(value, write, nl):
            return
        _write_items(value, write, nl)
    elif (
        # a numpy.ndarray, recognised without importing numpy
        kind.__name__ == "ndarray" and kind.__module__ == "numpy"
        and value.ndim == 2 and value.dtype.kind == "c" and value.size
    ):
        _write_complex(value, write, nl)
    else:
        # NaN, infinities, bools, None, empty containers and anything else
        write(json.dumps(value, sort_keys=True, indent=2).replace("\n", nl))


def _int_width(block: list) -> int:
    """The common width of a block of flat int rows, or 0 if the block is anything else.

    Every row must be a non-empty list or tuple, all of one width, and every
    item an exact int, so that %d writes it as json does (int.__repr__):
    bools, int subclasses and floats fail the type check.
    """
    if not set(map(type, block)) <= _ROW:
        return 0
    widths = set(map(len, block))
    if len(widths) != 1 or set(map(type, chain.from_iterable(block))) != _INT:
        return 0
    return widths.pop()


def _write_items(items: list, write, nl: str) -> None:
    """Write a non-empty list _BLOCK_ROWS items at a time.

    A block of flat int rows of one width (see _int_width) is written with
    one %-format of a template of as many rows as the block has; any other
    block is written item by item through _write.
    """
    inner = nl + "  "
    comma, head, tail = "," + inner + "  ", "[" + inner + "  ", inner + "]"
    sep, next_sep = "[" + inner, "," + inner
    for start in range(0, len(items), _BLOCK_ROWS):
        block = items[start : start + _BLOCK_ROWS]
        width = _int_width(block)
        if width:
            row = head + comma.join(["%d"] * width) + tail
            write(sep + next_sep.join([row] * len(block)) % tuple(chain.from_iterable(block)))
            sep = next_sep
        else:
            for item in block:
                write(sep)
                _write(item, write, inner)
                sep = next_sep
    write(nl + "]")


def _scalars(column: list):
    """The %-slot and %-argument column for one scalar per record, or None.

    A column qualifies when its values are all finite floats, all ints or all
    strings.  Floats are finite when their sum is; a sum of finite floats that
    overflows only sends the list the slow way.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        return ("%r", column) if math.isfinite(sum(column)) else None
    if kinds == {int}:
        return "%d", column
    if kinds == {str}:
        return "%s", list(map(_escape, column))
    return None


def _write_records(records: list, write, nl: str) -> bool:
    """Write a list of like records from one %-template, or return False having written nothing.

    Like records are dicts with the same str keys whose values under each key
    are all scalars of one kind (see _scalars), or all non-empty flat lists of
    them of one length.  The template is built once from the first record, the
    arguments are gathered column by column, and _BLOCK_ROWS records are
    written per %-format and per write.
    """
    first = records[0]
    if not first or set(map(type, records)) != {dict} or set(map(len, records)) != {len(first)}:
        return False
    if not all(type(key) is str for key in first):
        return False
    field_nl, item_nl = nl + "    ", nl + "      "
    fields, columns = [], []
    for key in sorted(first):
        try:
            column = list(map(itemgetter(key), records))
        except KeyError:
            return False
        nested = type(first[key]) is list
        if nested:
            width = len(first[key])
            if not width or set(map(type, column)) != {list} or set(map(len, column)) != {width}:
                return False
            parts = [_scalars(list(map(itemgetter(j), column))) for j in range(width)]
        else:
            parts = [_scalars(column)]
        if None in parts:
            return False
        slots = [slot for slot, _ in parts]
        text = "[" + item_nl + ("," + item_nl).join(slots) + field_nl + "]" if nested else slots[0]
        fields.append(_escape(key).replace("%", "%%") + ": " + text)
        columns += [args for _, args in parts]
    inner = nl + "  "
    template = "{" + field_nl + ("," + field_nl).join(fields) + inner + "}"
    sep, next_sep = "[" + inner, "," + inner
    rows = zip(*columns)
    for start in range(0, len(records), _BLOCK_ROWS):
        count = min(_BLOCK_ROWS, len(records) - start)
        write(sep + next_sep.join([template] * count) % tuple(chain.from_iterable(islice(rows, count))))
        sep = next_sep
    write(nl + "]")
    return True


def _write_complex(matrix, write, nl: str) -> None:
    """A complex matrix (a numpy ndarray) as rows of [re, im] pairs, one row at a time.

    A finite row whose bytes repeat with period p, the least divisor of the
    row width for which they do, is written from the text of its first p
    pairs, repeated width/p times.  Equal bytes give equal text, so the
    output is the same as pair by pair; comparing bytes, not values, keeps
    0.0 and -0.0 apart.  A row of theta values c_j * omega^(j*l mod k) has
    period k/gcd(j, k).  Rows with NaN or an infinity go through _write.
    """
    import numpy as np

    inner, row_nl, pair_nl = nl + "  ", nl + "    ", nl + "      "
    comma, pair = "," + row_nl, "[" + pair_nl + "%r," + pair_nl + "%r" + row_nl + "]"
    width = matrix.shape[1]
    periods = [p for p in range(1, width + 1) if width % p == 0]
    sep = "[" + inner
    for row in matrix:
        write(sep)
        if np.isfinite(row).all():
            data, size = row.tobytes(), row.itemsize
            p = next(p for p in periods if data[size * p :] == data[: len(data) - size * p])
            head = row[:p]
            block = comma.join([pair] * p) % tuple(np.stack((head.real, head.imag), axis=-1).ravel().tolist())
            write("[" + row_nl + comma.join([block] * (width // p)) + inner + "]")
        else:
            _write([[z.real, z.imag] for z in row.tolist()], write, inner)
        sep = "," + inner
    write(nl + "]")


def dump(value, write) -> None:
    """Write the text of json.dumps(value, sort_keys=True, indent=2) through write, piece by piece.

    CPython's C encoder does not run when indent is set, and json.dumps joins
    the whole text before returning it.  Here a container is written item by
    item, a list of flat int rows of one width (such as a weights listing)
    _BLOCK_ROWS rows at a time from one %d template, a list of like records
    (such as the points of a u-curve slice) _BLOCK_ROWS records at a time from
    one %-template, and a complex matrix (an ndarray, which json cannot write) as rows of
    [re, im] pairs, so the text held at once is about one row or one block of
    rows.  A row whose bytes repeat with a period that divides its width has
    its first period formatted once and that text repeated (see
    _write_complex).  int and float are written with int.__repr__ (or %d) and
    float.__repr__, as json writes them; the type checks are exact, so bool,
    int and float subclasses are not covered.  NaN, infinities and every other
    value go through json itself.
    """
    _write(value, write, "\n")
