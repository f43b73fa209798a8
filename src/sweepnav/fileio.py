"""The text file formats every stage reads and writes.

CSV: a literal header line, then one comma-separated row per line.
Values are written with ``str``, which for a Python float is its repr
(the shortest string that reads back as the identical double).  A blank
file reads as a table with no rows; blank lines are skipped.

JSONL: one JSON object per line, keys sorted.  JSON: one document,
keys sorted, indented by two, ending in a newline.

The table writers take the table as columns, one per field, and share
one path from column to text; no object is built per row.  A column is
formatted in blocks of ``_WRITE_ROWS`` rows.  In a float64 array column
each run of values with equal bits (so ``-0.0`` and ``0.0`` differ) is
formatted once and its text repeated over the run; a block with no two
equal neighbours is formatted value by value, as are lists, ranges and
other arrays, each as a Python scalar's ``str`` (CSV) or JSON text.  A
block's texts are interleaved into one flat list and written with one
``%``, so the text held at once is one block's.

Sidecar: ``write_table`` writes ``write_csv``'s bytes for a table of
numbers and, in the same block loop, ``<name>.csv.f64``: a 16-byte stamp
(the CSV's byte length as a little-endian uint64, the CSV's
``zlib.crc32`` and the CRC-32 of the values as uint32s), then the
table's values as little-endian float64, row-major, exactly as the CSV
parses.  A table with a NaN or an infinity gets no sidecar.  The stamp
rule, checked once (``read_stamped``): a sidecar stands for its CSV when
the CSV's first line is the caller's header, the sidecar's size fits
its field count, and the stamp matches the CSV's bytes and the values.
Such a CSV is ``write_table``'s text of those values, each token the
``str`` of its value (a ``range`` column's are plain integers), and
``read_table`` returns a copy of the values in place of a parse.  Any
other CSV reads, or fails, as if there were no sidecar; no read writes a
file.  The checksum is CRC-32, not a ``hashlib`` digest: ``import
hashlib`` loads OpenSSL, about 3.6 MB of resident memory per command.
It guards against a stale copy, not against tampering.  The stamp
names no file, so a CSV copied with its sidecar (``copy_table``) keeps it.

Without a matching sidecar, a table of numbers is read as one array
by ``read_table``: after the header check, one ``np.loadtxt`` parses
the body when it holds only the bytes ``write_csv`` writes for finite
floats (digits, ``+-.e``, commas and newlines).  Over those bytes
loadtxt and ``float`` agree value for value, so that path is only taken
where it changes nothing.  Any other body, or one loadtxt refuses, goes
through the line codec (``read_csv``), which then returns the same
values or raises the same error.

The line codec hands each row or record to the caller's ``parse`` and
returns ``(lineno, parsed)`` pairs; any failure of a line raises
``ValueError("path:lineno: ...")``.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import struct
import zlib

import numpy as np

# what a parse function may raise on a malformed line (JSONDecodeError
# is a ValueError)
_LINE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
# JSON kind of a field -> its name and the Python types that hold it
_JSON_KINDS = {int: ("integer", int), float: ("number", (int, float)),
               str: ("string", str), list: ("list", list)}
# the bytes of rows written from finite floats (see the module docstring)
_TABLE_BYTES = b"0123456789+-.e,\n"
# rows a writer formats at once: one % over a flat list of their texts
# costs a fraction of a format per row, and this bounds the text held
# (about half a MiB for a 7-column table of float texts)
_WRITE_ROWS = 1024
# a sidecar's stamp: its CSV's byte length and CRC-32, and the CRC-32
# of the values that follow it
_STAMP = struct.Struct("<QII")


def _table_texts(line: str, columns: list, texts):
    """Row i of ``columns`` in the ``%s`` fields of ``line``, for every i,
    as ``(lo, text)`` per block of _WRITE_ROWS rows from row ``lo``: one
    ``%`` formats a block.  ``texts`` maps a list of a column's values
    to objects whose ``str`` is their text."""
    n_rows = {len(column) for column in columns}
    if len(n_rows) > 1:
        raise ValueError(f"columns differ in length: {[len(column) for column in columns]}")
    k = len(columns)
    for lo in range(0, n_rows.pop() if n_rows else 0, _WRITE_ROWS):
        block = [_block_texts(column[lo:lo + _WRITE_ROWS], texts) for column in columns]
        flat = [None] * (k * len(block[0]))
        for i, column in enumerate(block):
            flat[i::k] = column
        yield lo, (line * len(block[0])) % tuple(flat)


def _block_texts(values, texts) -> list:
    """One block of a column as ``texts`` objects.  A float64 array is
    formatted once per run of equal bits, each run's text repeated."""
    if not isinstance(values, np.ndarray):
        return texts(list(values))
    if values.dtype != np.float64 or len(values) < 2:
        return texts(values.tolist())
    bits = values.view(np.int64)
    new = np.empty(len(values), dtype=bool)
    new[0] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    if new.all():  # no repeats: every value is a run of its own
        return texts(values.tolist())
    starts = np.flatnonzero(new)
    once = np.array(list(map(str, texts(values[starts].tolist()))), dtype=object)
    return np.repeat(once, np.diff(starts, append=len(values))).tolist()


def _csv_texts(columns: list):
    """The CSV rows of ``columns`` as ``_table_texts`` yields them."""
    return _table_texts(",".join(["%s"] * len(columns)) + "\n", columns, lambda values: values)


def write_csv(path, header: str, columns) -> None:
    """Write the header line, then one row per index of ``columns`` (one
    column per header field), each value with ``str``."""
    columns = list(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(text for _, text in _csv_texts(columns))


def write_table(path, header: str, columns) -> None:
    """``write_csv`` for a table of numbers (float arrays, integer arrays
    or ranges), and beside it the sidecar ``<path>.f64`` that
    ``read_table`` takes in place of a parse.  A table with a NaN or an
    infinity gets no sidecar."""
    columns = list(columns)
    sidecar = f"{path}.f64"
    text = (header + "\n").encode()
    size, crc, values_crc, finite = len(text), zlib.crc32(text), 0, True
    with open(path, "wb") as fh, open(sidecar, "wb") as side:
        fh.write(text)
        side.write(bytes(_STAMP.size))  # a zero stamp matches no CSV with a header
        for lo, block in _csv_texts(columns):
            text = block.encode()
            fh.write(text)
            size, crc = size + len(text), zlib.crc32(text, crc)
            values = np.stack([np.asarray(column[lo:lo + _WRITE_ROWS], dtype=np.float64)
                               for column in columns], axis=1).astype("<f8", copy=False)
            finite = finite and bool(np.isfinite(values).all())
            if finite:
                side.write(values)
                values_crc = zlib.crc32(values, values_crc)
        if finite:
            side.seek(0)
            side.write(_STAMP.pack(size, crc, values_crc))
    if not finite:
        os.remove(sidecar)


def copy_table(src, dst) -> None:
    """Copy the CSV ``src`` to ``dst`` with its sidecar, so ``dst`` reads
    as ``src`` does; when ``src`` has none, remove a stale one at ``dst``."""
    shutil.copyfile(src, dst)
    if os.path.exists(f"{src}.f64"):
        shutil.copyfile(f"{src}.f64", f"{dst}.f64")
    elif os.path.exists(f"{dst}.f64"):
        os.remove(f"{dst}.f64")


def read_csv(path, header: str, parse) -> list[tuple[int, object]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not any(line.strip() for line in lines):
        return []
    if lines[0].strip() != header:
        raise ValueError(f"{path}:1: expected header '{header}', got '{lines[0].strip()}'")
    n_fields = header.count(",") + 1
    out = []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if line.strip():
                fields = line.split(",")
                if len(fields) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
                out.append((lineno, parse(fields)))
    except _LINE_ERRORS as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def read_table(path, header: str) -> np.ndarray:
    """The rows of a CSV table of numbers as an (n, k) float array, k
    the header's field count; errors as ``read_csv`` raises them."""
    n_fields = header.count(",") + 1
    data, table = read_stamped(path, header)
    if table is not None:
        return table
    first, _, body = data.partition(b"\n")
    if first == header.encode() and body.strip() and not body.translate(None, _TABLE_BYTES):
        try:
            table = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass  # the codec names the line
        else:
            if table.shape[1] == n_fields:
                return table
    rows = read_csv(path, header, lambda fields: list(map(float, fields)))
    return np.array([row for _, row in rows], dtype=float).reshape(-1, n_fields)


def read_stamped(path, header: str) -> tuple[bytes, np.ndarray | None]:
    """The bytes of the CSV at ``path``, and a copy of its sidecar's
    values as an (n, k) array, k the header's field count, when the CSV
    starts with the line ``header``, as ``write_table`` starts it, and
    the stamp matches (else None)."""
    with open(path, "rb") as fh:
        data = fh.read()
    n_fields = header.count(",") + 1
    if not data.startswith(header.encode() + b"\n"):
        return data, None
    try:
        with open(f"{path}.f64", "rb") as fh:
            side = fh.read()
    except OSError:
        return data, None
    if len(side) < _STAMP.size or (len(side) - _STAMP.size) % (8 * n_fields):
        return data, None
    size, crc, values_crc = _STAMP.unpack_from(side)
    if (size != len(data) or crc != zlib.crc32(data)
            or values_crc != zlib.crc32(memoryview(side)[_STAMP.size:])):
        return data, None
    return data, np.frombuffer(side, "<f8", offset=_STAMP.size).astype(np.float64).reshape(
        -1, n_fields)


def write_jsonl(path, columns: dict) -> None:
    """Write a table given as named columns of equal length, one record
    per row, each line the ``json.dumps(record, sort_keys=True)`` of that
    row."""
    keys = sorted(columns)
    record = "{" + ", ".join(json.dumps(key).replace("%", "%%") + ": %s" for key in keys) + "}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(text for _, text in _table_texts(record, [columns[key] for key in keys],
                                                       _json_texts))


def _json_texts(values: list) -> list:
    """Values as objects whose ``str`` is their JSON text: an int or a
    finite float is its own (a float's ``str`` is its repr), a non-finite
    float becomes ``NaN``, ``Infinity`` or ``-Infinity``, and anything
    else goes through ``json.dumps``."""
    kinds = set(map(type, values))
    if kinds <= {int} or (kinds == {float} and all(map(math.isfinite, values))):
        return values
    return [json.dumps(value, sort_keys=True) for value in values]


def read_jsonl(path, parse) -> list[tuple[int, object]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    out = []
    try:
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                out.append((lineno, parse(json.loads(line))))
    except _LINE_ERRORS as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def json_field(rec: dict, key: str, kind: type):
    """``rec[key]`` as ``kind``.  It must be a JSON integer for ``kind``
    int, any JSON number for float, a string for str or a list for list;
    ``true`` and ``false`` are not numbers."""
    value = rec[key]
    name, types = _JSON_KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool):
        raise TypeError(f"{key} must be a JSON {name}, got {json.dumps(value)}")
    return kind(value)


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

