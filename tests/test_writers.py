"""The table writers against the per-row writers they replace.

``write_csv`` and ``write_jsonl`` format a whole table in one pass; the
bytes must be the ones a ``join`` or ``json.dumps`` per row writes,
whatever the columns hold: non-finite floats, signed zeros, integers,
strings, lists and other JSON values.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepnav import fileio
from sweepnav.fileio import write_csv, write_jsonl

from .oracles import write_csv_ref, write_jsonl_ref

_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-320, 1e300, 0.1])
_FLOAT = st.one_of(st.floats(), _SPECIAL)
_COLUMN_KINDS = {
    "float": _FLOAT,
    "finite": st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(),
    "text": st.text(max_size=6),
    "number": st.one_of(_FLOAT, st.integers()),
    "json": st.one_of(st.booleans(), st.none(), st.lists(st.text(max_size=3), max_size=3),
                      st.dictionaries(st.text(max_size=3), st.integers(), max_size=3)),
}
_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _columns(draw, kinds):
    names = draw(st.lists(st.text(max_size=5), min_size=1, max_size=5, unique=True))
    n_rows = draw(st.integers(0, 12))
    return {name: draw(st.lists(_COLUMN_KINDS[draw(st.sampled_from(kinds))],
                                min_size=n_rows, max_size=n_rows))
            for name in names}


@_SETTINGS
@given(columns=_columns(["float", "finite", "int", "text", "number"]))
def test_csv_table_equals_rows_joined_one_by_one(tmp_path, columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    rows = [list(row) for row in zip(*columns.values())]
    write_csv(tmp_path / "new.csv", header, rows)
    write_csv_ref(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@_SETTINGS
@given(columns=_columns(list(_COLUMN_KINDS)))
def test_jsonl_table_equals_records_dumped_one_by_one(tmp_path, columns):
    records = [dict(zip(columns, row)) for row in zip(*columns.values())]
    write_jsonl(tmp_path / "new.jsonl", columns)
    write_jsonl_ref(tmp_path / "ref.jsonl", records)
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def test_edge_values(tmp_path):
    """nan, inf, -0.0, integer and string columns, and a key with a %."""
    columns = {"frame": [0, -3, 2**70], "v": [float("nan"), float("inf"), -0.0],
               "w": [-float("inf"), 5e-324, 1.0], "name": ["a,b", "%s", "é\"q"],
               "100%": [1, 2.5, True]}
    write_jsonl(tmp_path / "new.jsonl", columns)
    write_jsonl_ref(tmp_path / "ref.jsonl", [dict(zip(columns, row))
                                             for row in zip(*columns.values())])
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    rows = [list(row) for row in zip(*columns.values())]
    write_csv(tmp_path / "new.csv", "a,b,c,d,e", rows)
    write_csv_ref(tmp_path / "ref.csv", "a,b,c,d,e", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_tables_longer_than_one_run_of_rows(tmp_path, monkeypatch):
    """Rows are formatted _WRITE_ROWS at a time; the runs join seamlessly."""
    monkeypatch.setattr(fileio, "_WRITE_ROWS", 5)
    rng = np.random.default_rng(0)
    columns = {"frame": list(range(23)), "v": rng.normal(size=23).tolist(),
               "name": [f"n{i}" for i in range(23)]}
    rows = [list(row) for row in zip(*columns.values())]
    for n_rows in (0, 5, 23):
        write_csv(tmp_path / "new.csv", "a,b,c", rows[:n_rows])
        write_csv_ref(tmp_path / "ref.csv", "a,b,c", rows[:n_rows])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        write_jsonl(tmp_path / "new.jsonl", {k: v[:n_rows] for k, v in columns.items()})
        write_jsonl_ref(tmp_path / "ref.jsonl", [dict(zip(columns, row))
                                                 for row in rows[:n_rows]])
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_jsonl(tmp_path / "x.jsonl", {"a": [1, 2], "b": [1.0]})
