"""Every line-oriented loader against arbitrary lines.

Each file is the loader's header (none for JSONL) followed by a mix of
well-formed lines with arbitrary values and lines that cannot parse.
A load either succeeds or raises a ValueError that starts with the
path; a line that cannot parse is always named, and no later line is
blamed before it.  Any other exception type fails the test.

``read_table`` and ``_load_velocities`` read a well-formed table as one
array; against the line codec they return the same bits or raise the
same error, whatever the lines hold.
"""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepnav import cli
from sweepnav.cli import VELOCITY_CSV_HEADER, _load_velocities
from sweepnav.fileio import read_csv, read_table
from sweepnav.imu import IMU_CSV_HEADER, IMU_FIELDS, load_imu
from sweepnav.object_map import ITEMS_CSV_HEADER, load_captions, load_items_csv
from sweepnav.orientation import ORIENTATION_CSV_HEADER, load_orientations
from sweepnav.trajectory import TRAJECTORY_CSV_HEADER, load_captures, load_trajectory

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
    "imu.jsonl": (load_imu, None, _jsonl({k: _NUMBER for k in IMU_FIELDS},
                                         wrong={k: _NOT_A_NUMBER for k in IMU_FIELDS})),
    "trajectory.csv": (load_trajectory, TRAJECTORY_CSV_HEADER, _csv([_FLOAT] * 4, range(4))),
    "orientations.csv": (load_orientations, ORIENTATION_CSV_HEADER,
                         _csv([_FLOAT] * 5, range(5))),
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
        wrong={"frame": _NOT_AN_INTEGER, "items": _TEXT})),
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
    (load_imu, "imu.jsonl", {**dict.fromkeys(IMU_FIELDS, 0.0), "ay": True},
     "ay must be a JSON number, got true"),
])
def test_jsonl_numbers_and_strings_are_typed(tmp_path, load, name, rec, message):
    path = tmp_path / name
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
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


@st.composite
def _velocity_line(draw, frame, exact):
    """A row of frame ``frame``: its token exactly ``str(frame)`` when
    ``exact``, else often one that merely reads as a number near it."""
    token = str(frame)
    if not exact and draw(st.booleans()):
        token = draw(st.sampled_from([
            f"+{frame}", f"0{frame}", f"{frame}.0", f" {frame}", f"{frame} ", f"{frame}e0",
            f"{frame}_0", str(frame + 1), str(frame - 1), "\u0661", "x", ""]))
    value = st.floats().map(str) if exact else st.one_of(st.floats().map(str), _TOKEN)
    return ",".join([token] + draw(st.lists(value, min_size=2, max_size=2)))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_velocities_equals_the_line_codec(tmp_path, data):
    """Frame tokens such as +3, 03, 3.0 and ' 3' are the codec's to take
    or refuse."""
    n_rows = data.draw(st.integers(0, 6))
    exact = data.draw(st.booleans())  # the array path's case
    lines = [data.draw(_velocity_line(i, exact)) for i in range(n_rows)]
    text = data.draw(_text_file(VELOCITY_CSV_HEADER, lines))
    n_frames = data.draw(st.one_of(st.just(n_rows), st.integers(0, 6)))
    path = tmp_path / "velocities.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = _outcome(_load_velocities, path, n_frames)
    with mock.patch.object(cli, "read_table", side_effect=ValueError("line codec only")):
        codec = _outcome(_load_velocities, path, n_frames)
    assert _same_outcome(fast, codec)
