"""The text file formats every stage reads and writes.

CSV: a literal header line, then one comma-separated row per line.
Values are written with ``str``, which for a Python float is its repr
(the shortest string that reads back as the identical double); callers
pass Python scalars (``ndarray.tolist()``), not numpy ones.  A blank
file reads as a table with no rows; blank lines are skipped.

JSONL: one JSON object per line, keys sorted.  JSON: one document,
keys sorted, indented by two, ending in a newline.

Readers hand each row or record to the caller's ``parse`` and return
``(lineno, parsed)`` pairs; any failure of a line raises
``ValueError("path:lineno: ...")``.
"""

from __future__ import annotations

import json

# what a parse function may raise on a malformed line (JSONDecodeError
# is a ValueError)
_LINE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
_JSON_KINDS = {int: "integer", list: "list"}


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
    """``rec[key]``, which must be a JSON integer (not ``true`` or
    ``false``) for ``kind`` int, or a JSON list for ``kind`` list."""
    value = rec[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{key} must be a JSON {_JSON_KINDS[kind]}, got {json.dumps(value)}")
    return value


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

