"""The text file formats every stage reads and writes.

CSV: a literal header line, then one comma-separated row per line.
Values are written with ``str``, which for a Python float is its repr
(the shortest string that reads back as the identical double); callers
pass Python scalars (``ndarray.tolist()``), not numpy ones.  A blank
file reads as a table with no rows; blank lines are skipped.

JSONL: one JSON object per line, keys sorted.  JSON: one document,
keys sorted, indented by two, ending in a newline.

A table of numbers is read as one array by ``read_table``: after the
header check, one ``np.loadtxt`` parses the body when it holds only the
bytes ``write_csv`` writes for finite floats (digits, ``+-.e``, commas
and newlines).  Over those bytes loadtxt and ``float`` agree value for
value, so that path is only taken where it changes nothing.  Any other
body, or one loadtxt refuses, goes through the line codec
(``read_csv``), which then returns the same values or raises the same
error.

The line codec hands each row or record to the caller's ``parse`` and
returns ``(lineno, parsed)`` pairs; any failure of a line raises
``ValueError("path:lineno: ...")``.
"""

from __future__ import annotations

import io
import json

import numpy as np

# what a parse function may raise on a malformed line (JSONDecodeError
# is a ValueError)
_LINE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
# JSON kind of a field -> its name and the Python types that hold it
_JSON_KINDS = {int: ("integer", int), float: ("number", (int, float)),
               str: ("string", str), list: ("list", list)}
# the bytes of rows written from finite floats (see the module docstring)
_TABLE_BYTES = b"0123456789+-.e,\n"


def write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


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
    with open(path, "rb") as fh:
        first, _, body = fh.read().partition(b"\n")
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


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


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

