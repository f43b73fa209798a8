"""Every line-oriented loader against arbitrary lines.

Each file is the loader's header (none for JSONL) followed by a mix of
well-formed lines with arbitrary values and lines that cannot parse.
A load either succeeds or raises a ValueError that starts with the
path; a line that cannot parse is always named, and no later line is
blamed before it.  Any other exception type fails the test.
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepnav.cli import VELOCITY_CSV_HEADER, _load_velocities
from sweepnav.imu import IMU_CSV_HEADER, IMU_FIELDS, load_imu
from sweepnav.object_map import ITEMS_CSV_HEADER, load_captions, load_items_csv
from sweepnav.orientation import ORIENTATION_CSV_HEADER, load_orientations
from sweepnav.trajectory import TRAJECTORY_CSV_HEADER, load_captures, load_trajectory

_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\r\n,"), max_size=8)
_FLOAT = st.floats()
_FRAME = st.integers(-2, 6)
# JSON numbers may also be integers too large for a float
_NUMBER = st.one_of(st.floats(), st.integers())
# a frame of 3.7 must not load as frame 3, nor true as frame 1
_NOT_AN_INTEGER = st.one_of(st.floats(), st.booleans(), _TEXT)


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
    "imu.jsonl": (load_imu, None, _jsonl({k: _NUMBER for k in IMU_FIELDS})),
    "trajectory.csv": (load_trajectory, TRAJECTORY_CSV_HEADER, _csv([_FLOAT] * 4, range(4))),
    "orientations.csv": (load_orientations, ORIENTATION_CSV_HEADER,
                         _csv([_FLOAT] * 5, range(5))),
    "items.csv": (load_items_csv, ITEMS_CSV_HEADER, _csv([_TEXT] + [_FLOAT] * 3, [1, 2, 3])),
    "velocities.csv": (lambda path: _load_velocities(path, 5), VELOCITY_CSV_HEADER,
                       _csv([_FRAME, _FLOAT, _FLOAT], range(3))),
    "captures.jsonl": (load_captures, None, _jsonl({
        "frame": st.integers(), "t": _NUMBER, "x": _NUMBER, "y": _NUMBER, "yaw": _NUMBER,
        "trigger": _TEXT}, wrong={"frame": _NOT_AN_INTEGER})),
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
