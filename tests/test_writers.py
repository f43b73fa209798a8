"""The table writers against the per-row writers they replace.

``write_csv`` and ``write_jsonl`` format a whole table in one pass; the
bytes must be the ones a ``join`` or ``json.dumps`` per row writes,
whatever the columns hold: non-finite floats, signed zeros, integers,
strings, lists and other JSON values.  ``write_table`` writes
``write_csv``'s bytes and a float64 sidecar that reads back as the
parse of those bytes would.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepnav import fileio
from sweepnav.cli import VELOCITY_CSV_HEADER, _load_velocities
from sweepnav.fileio import read_table, write_csv, write_jsonl, write_table
from sweepnav.imu import IMU_CSV_HEADER, ImuSequence, load_imu, save_imu
from sweepnav.trajectory import (TRAJECTORY_CSV_HEADER, Trajectory, load_trajectory,
                                 save_trajectory)

from .oracles import same_bits, write_csv_ref, write_jsonl_ref

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
    write_csv(tmp_path / "new.csv", header, columns.values())
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
    write_csv(tmp_path / "new.csv", "a,b,c,d,e", columns.values())
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
        write_csv(tmp_path / "new.csv", "a,b,c", [v[:n_rows] for v in columns.values()])
        write_csv_ref(tmp_path / "ref.csv", "a,b,c", rows[:n_rows])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        write_jsonl(tmp_path / "new.jsonl", {k: v[:n_rows] for k, v in columns.items()})
        write_jsonl_ref(tmp_path / "ref.jsonl", [dict(zip(columns, row))
                                                 for row in rows[:n_rows]])
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_jsonl(tmp_path / "x.jsonl", {"a": [1, 2], "b": [1.0]})
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "x.csv", "a,b", [[1, 2], np.zeros(3)])


# a small pool, so that drawn array columns hold runs of equal values
_POOL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-320, 0.1, -2.5, 1e300]


@st.composite
def _array_columns(draw):
    n_rows = draw(st.integers(0, 23))
    n_columns = draw(st.integers(1, 4))
    columns = []
    for _ in range(n_columns):
        kind = draw(st.sampled_from(["pool", "distinct", "int"]))
        if kind == "pool":
            picks = draw(st.lists(st.integers(0, len(_POOL) - 1), min_size=n_rows,
                                  max_size=n_rows))
            columns.append(np.array(_POOL)[picks])
        elif kind == "distinct":
            columns.append(np.array(draw(st.lists(_FLOAT, min_size=n_rows, max_size=n_rows,
                                                  unique_by=lambda v: repr(v))), dtype=float))
        else:
            columns.append(np.array(draw(st.lists(st.integers(-2**62, 2**62),
                                                  min_size=n_rows, max_size=n_rows)),
                                    dtype=np.int64))
    return columns


@_SETTINGS
@given(columns=_array_columns())
def test_array_columns_with_runs_across_blocks(tmp_path, monkeypatch, columns):
    """Runs of equal float64 values (formatted once each), signed zeros,
    NaNs, infinities, subnormals and int arrays, in blocks of 5 rows so
    that runs cross block boundaries: the bytes are those of the rows'
    Python scalars written one by one.  A "distinct" column is a block
    with no two equal neighbours, which is formatted value by value."""
    monkeypatch.setattr(fileio, "_WRITE_ROWS", 5)
    header = ",".join(f"c{i}" for i in range(len(columns)))
    rows = [list(row) for row in zip(*(column.tolist() for column in columns))]
    write_csv(tmp_path / "new.csv", header, columns)
    write_csv_ref(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    names = header.split(",")
    write_jsonl(tmp_path / "new.jsonl", dict(zip(names, columns)))
    write_jsonl_ref(tmp_path / "ref.jsonl", [dict(zip(names, row)) for row in rows])
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def test_adjacent_signed_zeros_are_formatted_apart(tmp_path):
    """0.0 and -0.0 compare equal but are runs of their own."""
    v = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0])
    write_csv(tmp_path / "z.csv", "v", [v])
    assert (tmp_path / "z.csv").read_text().split() == ["v", "0.0", "-0.0", "-0.0",
                                                       "0.0", "0.0", "-0.0"]


def test_held_values_and_strided_columns(tmp_path, monkeypatch):
    """A held velocity column (each value repeated over its window) and
    strided views of a 2-D array, as ``infer`` and ``save_trajectory``
    pass them."""
    monkeypatch.setattr(fileio, "_WRITE_ROWS", 64)
    rng = np.random.default_rng(4)
    held = np.repeat(rng.normal(size=(9, 2)), rng.integers(1, 150, size=9), axis=0)
    columns = [range(len(held)), *held.T]
    rows = [[f, vx, vy] for f, (vx, vy) in enumerate(held.tolist())]
    write_csv(tmp_path / "new.csv", "frame,vx,vy", columns)
    write_csv_ref(tmp_path / "ref.csv", "frame,vx,vy", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_writing_a_long_trajectory_builds_no_object_per_row(tmp_path):
    """Peak traced memory of ``save_trajectory`` on 200 000 frames stays
    below 4 MiB: one block's text and values, not a list per row (a
    writer that built a list per row peaked at 42.7 MiB on this input)."""
    n = 200_000
    rng = np.random.default_rng(0)
    traj = Trajectory(np.arange(n) / 50.0, np.cumsum(rng.normal(size=(n, 2)), axis=0),
                      rng.uniform(-np.pi, np.pi, n), 50.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_trajectory(traj, tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert (tmp_path / "traj.csv").read_text().count("\n") == n + 1


@_SETTINGS
@given(columns=_array_columns())
def test_table_writes_the_csv_bytes_and_a_sidecar_of_their_parse(tmp_path, monkeypatch,
                                                                 columns):
    """``write_table`` writes ``write_csv``'s bytes; its sidecar, written
    only for a finite table, reads as the bits the CSV parses to.  Int
    columns up to 2**62 round to float64 as their text does."""
    monkeypatch.setattr(fileio, "_WRITE_ROWS", 5)
    header = ",".join(f"c{i}" for i in range(len(columns)))
    path, sidecar = tmp_path / "t.csv", tmp_path / "t.csv.f64"
    write_table(path, header, columns)
    write_csv(tmp_path / "ref.csv", header, columns)
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert sidecar.exists() == all(np.isfinite(column).all() for column in columns)
    kept = read_table(path, header)
    sidecar.unlink(missing_ok=True)
    assert same_bits(kept, read_table(path, header))


# values a sidecar must carry bit for bit
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]


@st.composite
def _values(draw, n_rows, n_columns):
    """Normal values at a drawn scale, with drawn edge or arbitrary
    finite values at drawn cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.normal(size=(n_rows, n_columns)) * 10.0 ** draw(st.integers(-300, 300))
    for _ in range(draw(st.integers(0, 12)) if n_rows else 0):
        table[draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_columns - 1))] = draw(
            st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False)))
    return table


def _save_velocities(held, path):
    write_table(path, VELOCITY_CSV_HEADER, [range(len(held)), *held.T])  # as infer does


def _load_velocities_of(path):
    return _load_velocities(path, len(path.read_text().splitlines()) - 1)


# each table writer: its header, the number of columns beside the
# first, how to draw them, the object saved from (t, values), save,
# load, and an object's table as the CSV holds it
_TABLE_WRITERS = {
    "imu": (IMU_CSV_HEADER, 6, _values, lambda t, v: ImuSequence(t, v[:, :3], v[:, 3:]),
            save_imu, load_imu, lambda seq: np.column_stack([seq.t, seq.acc, seq.gyro])),
    "trajectory": (TRAJECTORY_CSV_HEADER, 3, _values,
                   lambda t, v: Trajectory(t, v[:, :2], v[:, 2], 50.0),
                   save_trajectory, load_trajectory,
                   lambda traj: np.column_stack([traj.t, traj.xy, traj.yaw])),
    "velocities": (VELOCITY_CSV_HEADER, 2, _values, lambda t, v: v, _save_velocities,
                   _load_velocities_of,
                   lambda held: np.column_stack([np.arange(len(held)), held])),
}


def _outcome(load, path):
    try:
        return "ok", load(path)
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("name", sorted(_TABLE_WRITERS))
@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_each_table_writer_round_trips_with_and_without_its_sidecar(tmp_path, name, data):
    """0 rows, one row (which no trajectory loads), and more than one
    1024-row block: the table reads as saved, and the load returns the
    same bits, or raises the same error, whether it takes the sidecar or
    parses the CSV."""
    header, n_values, draw_values, build, save, load, table = _TABLE_WRITERS[name]
    n_rows = data.draw(st.sampled_from([0, 1, 2, 3, 1024, 1025, 2500]))
    saved = build(np.arange(n_rows) / 50.0, data.draw(draw_values(n_rows, n_values)))
    path, sidecar = tmp_path / f"{name}.csv", tmp_path / f"{name}.csv.f64"
    save(saved, path)
    assert sidecar.exists()
    assert same_bits(read_table(path, header), table(saved))
    kept = _outcome(lambda p: table(load(p)), path)
    sidecar.unlink()
    parsed = _outcome(lambda p: table(load(p)), path)
    if kept[0] == "ok" == parsed[0]:
        assert same_bits(kept[1], parsed[1])
    else:
        assert kept == parsed
        assert name == "trajectory" and n_rows < 2


# ---------------------------------------------------------------------------
# The copy rule: ``write_table(..., source)`` copies a stamped source that
# holds its columns, and formats its own text in every other case.


def _files(path):
    """The bytes of a table and of its sidecar (None where there is none)."""
    sidecar = path.with_name(path.name + ".f64")
    return path.read_bytes(), sidecar.read_bytes() if sidecar.exists() else None


def _saved_without_source(traj, tmp_path):
    save_trajectory(traj, tmp_path / "ref.csv")
    return _files(tmp_path / "ref.csv")


def _long_trajectory(n=2500):
    """More than two 1024-row blocks, with t = 0.5 at frame 25."""
    rng = np.random.default_rng(7)
    return Trajectory(np.arange(n) / 50.0, np.cumsum(rng.normal(size=(n, 2)), axis=0),
                      rng.uniform(-np.pi, np.pi, n), 50.0)


def test_a_source_that_holds_the_table_is_copied(tmp_path, monkeypatch):
    """No text is formatted, and the CSV and its sidecar are the source's
    bytes, which are those ``save_trajectory`` writes on its own."""
    traj = _long_trajectory()
    source = tmp_path / "est.csv"
    save_trajectory(traj, source)
    before = _files(source)

    def no_format(columns):
        raise AssertionError("formatted a table its source holds")

    monkeypatch.setattr(fileio, "_csv_texts", no_format)
    save_trajectory(traj, tmp_path / "refined.csv", source)
    assert _files(tmp_path / "refined.csv") == before == _files(source)
    monkeypatch.undo()
    assert _saved_without_source(traj, tmp_path) == before


def _delete_sidecar(source, traj):
    source.with_name(source.name + ".f64").unlink()
    return traj


def _respell_a_token(source, traj):
    """One token written again with the same value: the sidecar's values
    still match, its stamp no longer does."""
    text = source.read_bytes()
    assert text.count(b"\n0.5,") == 1
    source.write_bytes(text.replace(b"\n0.5,", b"\n0.50,"))
    return traj


def _change_the_last_value(source, traj):
    """The table to write differs from the source in its last block only."""
    yaw = traj.yaw.copy()
    yaw[-1] = np.nextafter(yaw[-1], 0.0)
    return Trajectory(traj.t, traj.xy, yaw, traj.frame_rate)


def _integer_times(source, traj):
    """The source's times written from integers: the same float64 values
    and a stamp that matches, but each time's text lacks a float's '.0'."""
    n = len(traj)
    write_table(source, TRAJECTORY_CSV_HEADER, [range(n), *traj.xy.T, traj.yaw])
    return Trajectory(np.arange(n, dtype=float), traj.xy, traj.yaw, 1.0)


@pytest.mark.parametrize("case", [_delete_sidecar, _respell_a_token, _change_the_last_value,
                                  _integer_times])
def test_a_source_that_may_differ_is_not_copied(tmp_path, case):
    """A deleted or stale sidecar, values that differ in the last block
    only, or integer tokens: the CSV is ``save_trajectory``'s own text and
    the sidecar a fresh one, over stale files at the destination, and the
    source is left as it was."""
    source = tmp_path / "est.csv"
    save_trajectory(_long_trajectory(), source)
    traj = case(source, _long_trajectory())
    before = _files(source)
    dest = tmp_path / "refined.csv"
    dest.write_bytes(before[0])
    dest.with_name(dest.name + ".f64").write_bytes(b"stale")
    save_trajectory(traj, dest, source)
    assert _files(dest) == _saved_without_source(traj, tmp_path)
    assert _files(source) == before


@_SETTINGS
@given(columns=_array_columns(), change=st.booleans())
def test_a_table_written_from_a_source_has_its_own_bytes(tmp_path, monkeypatch, columns,
                                                         change):
    """A source written from any array columns, and a table of their
    float64 values, with one value moved by an ulp if ``change``: the
    table written from the source has the bytes ``write_table`` writes
    without one, and the source keeps its own."""
    monkeypatch.setattr(fileio, "_WRITE_ROWS", 5)
    header = ",".join(f"c{i}" for i in range(len(columns)))
    source = tmp_path / "source.csv"
    write_table(source, header, columns)
    table = [np.asarray(column, dtype=np.float64) for column in columns]
    if change and len(table[0]):
        table[-1][-1] = np.nextafter(table[-1][-1], np.inf)
    before = _files(source)
    write_table(tmp_path / "new.csv", header, table, source)
    write_table(tmp_path / "ref.csv", header, table)
    assert _files(tmp_path / "new.csv") == _files(tmp_path / "ref.csv")
    assert _files(source) == before
