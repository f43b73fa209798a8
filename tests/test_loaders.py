"""Every line-oriented loader against arbitrary lines.

Each file is the loader's header (none for JSONL) followed by a mix of
well-formed lines with arbitrary values and lines that cannot parse.
A load either succeeds or raises a ValueError that starts with the
path; a line that cannot parse is always named, and no later line is
blamed before it.  Any other exception type fails the test.

``read_table`` reads a well-formed table as one array; against the line
codec it returns the same bits or raises the same error, whatever the
lines hold.  A float64 sidecar is read in place of the parse, by
``read_table`` or ``_load_velocities``, only while it is the one written
with the CSV's bytes; any other sidecar leaves the parse and its errors
as they are.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepnav import cli
from sweepnav.cli import VELOCITY_CSV_HEADER, _load_velocities
from sweepnav.fileio import read_csv, read_table, write_table
from sweepnav.imu import IMU_CSV_HEADER, IMU_FIELDS, load_imu
from sweepnav.object_map import ITEMS_CSV_HEADER, load_captions, load_items_csv
from sweepnav.trajectory import (TRAJECTORY_CSV_HEADER, Trajectory, load_captures,
                                 load_trajectory, save_trajectory)

from .oracles import same_bits

_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\r\n,"), max_size=8)
_FLOAT = st.floats()
_FRAME = st.integers(-2, 6)
# JSON numbers may also be integers too large for a float
_NUMBER = st.one_of(st.floats(), st.integers())
# a frame of 3.7 must not load as frame 3, nor true as frame 1
_NOT_AN_INTEGER = st.one_of(st.floats(), st.booleans(), _TEXT)
# nor "0.5" or true as a coordinate, nor 7 as a trigger
_NOT_A_NUMBER = st.one_of(st.booleans(), _TEXT, st.none(), st.lists(st.integers(), max_size=2))
_NOT_A_STRING = st.one_of(_NUMBER, st.booleans(), st.none())


def _csv(columns, numeric):
    """(good, bad) line strategies for a CSV table; ``numeric`` lists the
    columns a non-number breaks."""
    good = st.tuples(*columns).map(lambda row: ",".join(map(str, row)))

    def spoil(row, k, junk):
        row = list(map(str, row))
        row[k] = "x" + junk
        return ",".join(row)

    bad = st.one_of(
        _TEXT.filter(str.strip),  # one field where three or more belong
        st.builds(spoil, st.tuples(*columns), st.sampled_from(numeric), _TEXT),
    )
    return good, bad


def _jsonl(fields, wrong=None):
    """(good, bad) line strategies for JSON objects with ``fields``;
    ``wrong`` maps a field to values of a type it must not have."""
    good = st.fixed_dictionaries(fields).map(json.dumps)

    def drop(rec, key):
        del rec[key]
        return json.dumps(rec)

    def retype(rec, key_value):
        rec[key_value[0]] = key_value[1]
        return json.dumps(rec)

    bad = [
        # not an object: invalid JSON or a value that cannot be indexed by key
        _TEXT.filter(lambda s: s.strip() and "{" not in s),
        st.builds(drop, st.fixed_dictionaries(fields), st.sampled_from(sorted(fields))),
    ]
    if wrong:
        bad.append(st.builds(retype, st.fixed_dictionaries(fields), st.one_of(
            [st.tuples(st.just(key), values) for key, values in sorted(wrong.items())])))
    return good, st.one_of(bad)


LOADERS = {
    "imu.csv": (load_imu, IMU_CSV_HEADER, _csv([_FLOAT] * 7, range(7))),
    # load_imu reads any file as CSV, so these lines are refused at line 1
    "imu.jsonl": (load_imu, None, _jsonl({k: _NUMBER for k in IMU_FIELDS},
                                         wrong={k: _NOT_A_NUMBER for k in IMU_FIELDS})),
    "trajectory.csv": (load_trajectory, TRAJECTORY_CSV_HEADER, _csv([_FLOAT] * 4, range(4))),
    "items.csv": (load_items_csv, ITEMS_CSV_HEADER, _csv([_TEXT] + [_FLOAT] * 3, [1, 2, 3])),
    "velocities.csv": (lambda path: _load_velocities(path, 5), VELOCITY_CSV_HEADER,
                       _csv([_FRAME, _FLOAT, _FLOAT], range(3))),
    "captures.jsonl": (load_captures, None, _jsonl({
        "frame": st.integers(), "t": _NUMBER, "x": _NUMBER, "y": _NUMBER, "yaw": _NUMBER,
        "trigger": _TEXT}, wrong={"frame": _NOT_AN_INTEGER, "t": _NOT_A_NUMBER,
                                  "x": _NOT_A_NUMBER, "y": _NOT_A_NUMBER,
                                  "yaw": _NOT_A_NUMBER, "trigger": _NOT_A_STRING})),
    "captions.jsonl": (load_captions, None, _jsonl({
        "image_id": _TEXT, "frame": st.integers(), "items": st.lists(_TEXT, max_size=3)},
        wrong={"image_id": _NOT_A_STRING, "frame": _NOT_AN_INTEGER,
               "items": st.one_of(_TEXT, st.lists(_NOT_A_STRING, min_size=1, max_size=3))})),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_lines_load_or_name_the_path_and_line(name, data, tmp_path):
    load, header, (good, bad) = LOADERS[name]
    lines = data.draw(st.lists(st.one_of(good.map(lambda s: (s, False)),
                                         bad.map(lambda s: (s, True))), max_size=8))
    first = 1 if header is None else 2
    bad_lines = [first + i for i, (_, is_bad) in enumerate(lines) if is_bad]
    path = tmp_path / name
    text = "".join(line + "\n" for line, _ in lines)
    path.write_text(text if header is None else header + "\n" + text, encoding="utf-8")
    try:
        load(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(str(path)), message
        line = re.match(rf"{re.escape(str(path))}:(\d+): ", message)
        if line:
            assert 1 <= int(line[1]) <= first + len(lines), message
        if bad_lines:
            assert line and int(line[1]) <= bad_lines[0], message
        return
    assert not bad_lines


_CAPTURE = {"frame": 3, "t": 0.5, "x": 1, "y": -2.0, "yaw": 0.25, "trigger": "distance"}


@pytest.mark.parametrize("load, name, rec, message", [
    (load_captures, "captures.jsonl", {**_CAPTURE, "t": "0.5"}, 't must be a JSON number, got "0.5"'),
    (load_captures, "captures.jsonl", {**_CAPTURE, "x": True}, "x must be a JSON number, got true"),
    (load_captures, "captures.jsonl", {**_CAPTURE, "trigger": 7},
     "trigger must be a JSON string, got 7"),
    (load_captures, "captures.jsonl", {**_CAPTURE, "frame": 3.5},
     "frame must be a JSON integer, got 3.5"),
    (load_captions, "captions.jsonl", {"image_id": 7, "frame": 3, "items": []},
     "image_id must be a JSON string, got 7"),
    (load_captions, "captions.jsonl", {"image_id": True, "frame": 3, "items": []},
     "image_id must be a JSON string, got true"),
    (load_captions, "captions.jsonl", {"image_id": "img_000003", "frame": 3, "items": [7, None]},
     "items must hold JSON strings, got 7"),
    (load_captions, "captions.jsonl", {"image_id": "img_000003", "frame": 3,
                                       "items": ["milk", None]},
     "items must hold JSON strings, got null"),
])
def test_jsonl_numbers_and_strings_are_typed(tmp_path, load, name, rec, message):
    path = tmp_path / name
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
        load(path)


@pytest.mark.parametrize("load, name, rec, message", [
    (load_captures, "captures.jsonl", {**_CAPTURE, "t": float("nan"), "y": float("inf")},
     "t must be a JSON number, got NaN"),
    (load_captures, "captures.jsonl", {**_CAPTURE, "y": float("-inf")},
     "y must be a JSON number, got -Infinity"),
    (load_captures, "captures.jsonl", {**_CAPTURE, "frame": 10**400},
     f"frame must be a JSON integer, got {10**400}"),
    (load_captions, "captions.jsonl", {"image_id": "img_000003", "frame": 10**400, "items": []},
     f"frame must be a JSON integer, got {10**400}"),
], ids=["captures-nan", "captures-infinity", "captures-huge", "captions-huge"])
def test_a_number_no_float_holds_is_refused_at_its_line(tmp_path, load, name, rec, message):
    """``NaN``, ``Infinity`` and an integer past the float range are not
    JSON numbers to any reader (``fileio._is_number``); a capture once
    loaded at t = nan, y = inf."""
    path = tmp_path / name
    good = _CAPTURE if load is load_captures else {"image_id": "img_000001", "frame": 1,
                                                     "items": []}
    path.write_text(json.dumps(good) + "\n" + json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load(path)


_IMU_ROW = ",0.0,0.0,9.81,0.0,0.0,0.0"


@pytest.mark.parametrize("load, header, rows, message", [
    (load_imu, IMU_CSV_HEADER, ["0.0" + _IMU_ROW, "0.02" + _IMU_ROW, "0.01" + _IMU_ROW],
     "4: non-monotonic timestamp"),
    (load_imu, IMU_CSV_HEADER, ["0.0" + _IMU_ROW, "", "0.02" + _IMU_ROW, "0.01" + _IMU_ROW],
     "5: non-monotonic timestamp"),
    (load_imu, IMU_CSV_HEADER, ["0.0" + _IMU_ROW, "0.01,nan,0,9.81,0,0,0"],
     "3: non-finite IMU sample"),
    (load_imu, IMU_CSV_HEADER, ["0.0" + _IMU_ROW, "-inf" + _IMU_ROW], "3: non-finite timestamp"),
    (load_trajectory, TRAJECTORY_CSV_HEADER, ["0.0,0,0,0", "0.02,0,0,0", "0.01,0,0,0"],
     "4: non-monotonic timestamp"),
    (load_trajectory, TRAJECTORY_CSV_HEADER, ["0.0,0,0,0", "0.01,0,0,0", "", "inf,0,0,0"],
     "5: non-finite trajectory entry"),
], ids=["imu-order", "imu-order-after-a-blank", "imu-nan", "imu-time", "trajectory-order",
        "trajectory-time-after-a-blank"])
def test_a_bad_sample_is_named_by_its_line(tmp_path, load, header, rows, message):
    """Sample k of a table with no blank lines is line k + 2."""
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{message}')}$"):
        load(path)


def _outcome(load, *args):
    """("ok", value) or ("error", message) of a load."""
    try:
        return "ok", load(*args)
    except ValueError as exc:
        return "error", str(exc)


def _same_outcome(a, b):
    if a[0] == "ok" == b[0]:
        return same_bits(a[1], b[1])
    return a == b


# tokens that ``float`` and ``np.loadtxt`` may read differently, or not at all
_ODD_TOKEN = st.sampled_from(["1_0", "\u0661\u0662", "\uff13", "nan", "-nan", "inf", "-Infinity",
                              "#", "1#2", " 1", "1 ", "\t2", "", "+1", "1.", ".5", "-0", "1e5",
                              "1E5", "1e500", "0x10", "1e", "--1", "'1'"])
_TOKEN = st.one_of(st.floats().map(str), _ODD_TOKEN)
_TABLE_HEADER = "a,b,c"


@st.composite
def _text_file(draw, header, body):
    """``header`` (or a spoiled one) over the ``body`` lines with blank
    lines drawn in between, LF or CRLF endings, with or without a final
    newline."""
    lines = [draw(st.sampled_from([header] * 4 + [" " + header, header + " ",
                                                 header.rsplit(",", 1)[0], header + ",d"]))]
    for line in body:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        lines.append(line)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) else text


def _codec_table(path, header):
    rows = read_csv(path, header, lambda fields: list(map(float, fields)))
    return np.array([row for _, row in rows], dtype=float).reshape(-1, header.count(",") + 1)


_TABLE_LINE = st.one_of(
    st.lists(st.floats().map(str), min_size=3, max_size=3).map(",".join),
    st.lists(_TOKEN, min_size=2, max_size=4).map(",".join))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_read_table_equals_the_line_codec(tmp_path, data):
    text = data.draw(_text_file(_TABLE_HEADER, data.draw(st.lists(_TABLE_LINE, max_size=6))))
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _same_outcome(_outcome(read_table, path, _TABLE_HEADER),
                         _outcome(_codec_table, path, _TABLE_HEADER))


# edits of a frame token ``{}``, some of which ``int`` reads as the same
# frame; each breaks the stamp
_RESPELLED = ["+{}", "0{}", "{}.0", " {}", "{} ", "{}e0", "{}_0", "1{}", "\u0661", "x", ""]


def _save_velocities(path, held):
    write_table(path, VELOCITY_CSV_HEADER, [range(len(held)), *held.T])  # as infer does


def _respell(path, frame, spelling):
    """Respell the frame token of ``frame``'s row, the sidecar left as it was."""
    lines = path.read_text(encoding="utf-8").split("\n")
    token, rest = lines[frame + 1].split(",", 1)
    lines[frame + 1] = spelling.format(token) + "," + rest
    path.write_text("\n".join(lines), encoding="utf-8")


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_velocities_equals_the_line_codec(tmp_path, data):
    """``infer``'s own file, or a copy with one frame token respelled:
    with its sidecar it reads as the line codec reads it once the
    sidecar is gone, the same bits or the same error, for any expected
    frame count."""
    n_rows = data.draw(st.integers(0, 6))
    held = np.array(data.draw(st.lists(st.tuples(_FLOAT, _FLOAT), min_size=n_rows,
                                       max_size=n_rows)), dtype=float).reshape(-1, 2)
    path = tmp_path / "velocities.csv"
    _save_velocities(path, held)
    if n_rows and data.draw(st.booleans()):
        _respell(path, data.draw(st.integers(0, n_rows - 1)),
                 data.draw(st.sampled_from(_RESPELLED)))
    n_frames = data.draw(st.one_of(st.just(n_rows), st.integers(0, 6)))
    stamped = _outcome(_load_velocities, path, n_frames)
    (tmp_path / "velocities.csv.f64").unlink(missing_ok=True)
    assert _same_outcome(stamped, _outcome(_load_velocities, path, n_frames))


@pytest.mark.parametrize("spelling, error", [
    (None, None),
    ("{}.0", r"5: invalid literal for int\(\) with base 10: '3.0'"),
    ("0{}", None), ("+{}", None)])
def test_a_respelled_frame_breaks_the_stamp(tmp_path, monkeypatch, spelling, error):
    """``infer``'s file with its sidecar reads bit-equal to the line codec
    without a parse.  A copy with frame 3 respelled no longer matches
    its stamp and goes to the codec, which refuses ``3.0`` at its line and
    reads ``03`` and ``+3`` as ``int`` does."""
    rng = np.random.default_rng(5)
    held = rng.normal(size=(40, 2)) * 10.0 ** rng.integers(-5, 5, size=(40, 2))
    path = tmp_path / "velocities.csv"
    _save_velocities(path, held)
    if spelling:
        _respell(path, 3, spelling)
    codec = []
    monkeypatch.setattr(cli, "read_csv", lambda *args: codec.append(1) or read_csv(*args))
    stamped = _outcome(_load_velocities, path, 40)
    assert codec == ([1] if spelling else [])
    if error:
        assert stamped[0] == "error" and re.match(f"{re.escape(str(path))}:{error}", stamped[1])
    else:
        assert same_bits(stamped[1], held)
    (tmp_path / "velocities.csv.f64").unlink()
    assert _same_outcome(stamped, _outcome(_load_velocities, path, 40))


@pytest.fixture
def saved_trajectory(tmp_path):
    """A 40-pose trajectory saved with its sidecar: (path, sidecar, the
    table the CSV parses to)."""
    rng = np.random.default_rng(3)
    path, sidecar = tmp_path / "trajectory.csv", tmp_path / "trajectory.csv.f64"
    save_trajectory(Trajectory(np.arange(40) / 50.0, rng.normal(size=(40, 2)),
                               rng.uniform(-3.0, 3.0, 40), 50.0), path)
    assert sidecar.exists()
    return path, sidecar, _codec_table(path, TRAJECTORY_CSV_HEADER)


def _files(path):
    return {p.name: p.read_bytes() for p in path.parent.iterdir()}


def test_an_edited_csv_reads_the_edit_not_its_old_sidecar(saved_trajectory):
    """One digit changed, so the length stays: the CRC refuses the sidecar."""
    path, _, table = saved_trajectory
    lines = path.read_text().split("\n")
    fields = lines[5].split(",")
    digit = next(i for i, c in enumerate(fields[1]) if c in "12345678")
    fields[1] = fields[1][:digit] + str(int(fields[1][digit]) + 1) + fields[1][digit + 1:]
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines))
    files = _files(path)
    loaded = read_table(path, TRAJECTORY_CSV_HEADER)
    assert loaded[4, 1] == float(fields[1]) != table[4, 1]
    assert same_bits(loaded, _codec_table(path, TRAJECTORY_CSV_HEADER))
    assert load_trajectory(path).xy[4, 0] == float(fields[1])
    assert _files(path) == files


def _flip_last_value_bit(side):
    return side[:-1] + bytes([side[-1] ^ 1])


@pytest.mark.parametrize("spoil", [
    lambda side: b"",
    lambda side: side[:10],  # part of the stamp
    lambda side: side[:-1],
    lambda side: side[:-32],  # one row short: the values' CRC differs
    lambda side: side + bytes(32),  # one row of zeros more
    _flip_last_value_bit,
    lambda side: bytes(len(side)),  # a zero stamp, as a write cut short leaves
    lambda side: bytes(range(256)) * (len(side) // 256) + side[:len(side) % 256],
], ids=["empty", "stamp-only", "byte-short", "row-short", "row-more", "flipped-bit",
        "zeros", "garbage"])
def test_a_damaged_sidecar_falls_back_to_the_parse(saved_trajectory, spoil):
    path, sidecar, table = saved_trajectory
    sidecar.write_bytes(spoil(sidecar.read_bytes()))
    files = _files(path)
    assert same_bits(read_table(path, TRAJECTORY_CSV_HEADER), table)
    assert _files(path) == files


def test_a_sidecar_read_under_another_header_raises_the_header_error(saved_trajectory):
    """Same field count, so the sidecar's size fits: the header decides."""
    path, _, _ = saved_trajectory
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: expected header "
                                         "'t,x,y,theta', got 't,x,y,yaw'$"):
        read_table(path, "t,x,y,theta")


def test_a_malformed_line_beside_a_stale_sidecar_is_named(saved_trajectory):
    path, sidecar, _ = saved_trajectory
    lines = path.read_text().split("\n")
    lines[7] = "0.12,x,0.5,0.25"
    path.write_text("\n".join(lines))
    stale = _outcome(load_trajectory, path)
    sidecar.unlink()
    assert stale == _outcome(load_trajectory, path) == (
        "error", f"{path}:8: could not convert string to float: 'x'")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_table_gets_no_sidecar_and_loads_as_before(saved_trajectory, bad):
    """The old sidecar goes too, and the load names the line of row 9,
    after the header."""
    path, sidecar, table = saved_trajectory
    yaw = table[:, 3].copy()
    yaw[9] = bad
    write_table(path, TRAJECTORY_CSV_HEADER, [table[:, 0], table[:, 1], table[:, 2], yaw])
    assert not sidecar.exists()
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:11: non-finite trajectory entry$"):
        load_trajectory(path)
