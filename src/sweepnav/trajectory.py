"""Planar trajectories: velocity integration and captures.

Each window's velocity estimate is applied at its centre: the step into
a frame takes the window whose centre step is nearest, or the mean of
the two equally near (``held_velocities``).  The running sum of those
per-frame velocities gives the positions (``integrate``); yaw comes from
the orientation stream.  A capture schedule walks the resulting trajectory
and fires whenever the robot has moved or turned enough since the last
capture, which is how image capture is throttled on the real system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import json_field, read_jsonl, read_table, write_jsonl, write_table
from .geometry import _frozen, median, row_norms, wrap_angle

TRAJECTORY_CSV_HEADER = "t,x,y,yaw"

# relative slack on capture thresholds so that accumulated float error in
# "exactly d meters" fixtures cannot swallow the triggering frame
_TRIGGER_EPS = 1e-9


@dataclass(frozen=True)
class Pose2:
    t: float
    x: float
    y: float
    yaw: float

    def __post_init__(self):
        object.__setattr__(self, "yaw", float(wrap_angle(self.yaw)))

    def ahead(self, distance: float) -> tuple[float, float]:
        """The point ``distance`` meters ahead along the heading."""
        return (self.x + math.cos(self.yaw) * distance,
                self.y + math.sin(self.yaw) * distance)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled poses. Yaw is wrapped to (-pi, pi] at construction."""

    t: np.ndarray  # (n,)
    xy: np.ndarray  # (n, 2)
    yaw: np.ndarray  # (n,)
    frame_rate: float

    def __post_init__(self):
        t = _frozen(self.t)
        xy = _frozen(self.xy)
        yaw = _frozen(wrap_angle(np.asarray(self.yaw, dtype=float)))
        n = len(t)
        if xy.shape != (n, 2) or yaw.shape != (n,):
            raise ValueError(f"expected xy ({n}, 2) and yaw ({n},), got {xy.shape}, {yaw.shape}")
        if not (np.isfinite(t).all() and np.isfinite(xy).all() and np.isfinite(yaw).all()):
            raise ValueError("non-finite trajectory entry")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        if n >= 2:
            dt = np.diff(t)
            if (dt <= 0).any():
                raise ValueError(f"non-monotonic timestamp at index {int(np.argmax(dt <= 0)) + 1}")
            if np.max(np.abs(dt - 1.0 / self.frame_rate)) > 1e-6:
                raise ValueError("timestamps are not uniform at the stated frame rate")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "yaw", yaw)

    def __len__(self) -> int:
        return len(self.t)

    def pose(self, i: int) -> Pose2:
        return Pose2(float(self.t[i]), float(self.xy[i, 0]), float(self.xy[i, 1]), float(self.yaw[i]))

    def path_length(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(np.linalg.norm(np.diff(self.xy, axis=0), axis=1).sum())


def save_trajectory(traj: Trajectory, path, source=None) -> None:
    """Write ``traj``; a ``source`` trajectory file that holds it is
    copied instead (``fileio.write_table``)."""
    write_table(path, TRAJECTORY_CSV_HEADER, [traj.t, *traj.xy.T, traj.yaw], source)


def load_trajectory(path) -> Trajectory:
    """Read a trajectory; its frame rate is that of the median time step."""
    arr = read_table(path, TRAJECTORY_CSV_HEADER)
    if not len(arr):
        raise ValueError(f"{path}: empty trajectory")
    if len(arr) < 2:
        raise ValueError(f"{path}: cannot infer frame rate from a single pose")
    dt = float(median(np.diff(arr[:, 0])))
    if not dt > 0:
        raise ValueError(f"{path}: cannot infer frame rate: median time step is {dt!r}")
    try:
        return Trajectory(arr[:, 0], arr[:, 1:3], arr[:, 3], 1.0 / dt)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Velocity integration


def held_velocities(velocities: np.ndarray, starts, n_frames: int, tau: int) -> np.ndarray:
    """Expand windowed estimates to one velocity per frame.

    ``velocities[i]`` belongs to the window of ``tau`` steps starting at
    frame ``starts[i]``, whose centre step is ``starts[i] + (tau - 1) / 2``.
    The step into frame f (f >= 1) takes the window whose centre is
    nearest to f - 1, or the mean of the two windows whose centres are
    equally near; frames past the last centre hold the last window.  With
    non-overlapping windows this assigns each window's velocity to
    exactly the frames it spans.  Frame 0 mirrors frame 1 so the array
    is fully populated.
    """
    v = np.asarray(velocities, dtype=float)
    starts = np.asarray(starts)
    if len(v) == 0:
        raise ValueError("no velocity estimates")
    if v.shape != (len(starts), 2):
        raise ValueError(f"expected ({len(starts)}, 2) velocities, got {v.shape}")
    order = np.argsort(starts, kind="stable")
    v = v[order]
    # twice the centre step of each window, and of the step into each frame
    centre2 = 2 * starts[order] + (tau - 1)
    step2 = 2 * np.maximum(np.arange(n_frames) - 1, 0)
    j = np.searchsorted(centre2, step2)  # the first centre at or after the step
    lo, hi = np.maximum(j - 1, 0), np.minimum(j, len(v) - 1)
    d_lo, d_hi = step2 - centre2[lo], centre2[hi] - step2
    lo = np.where(d_hi < d_lo, hi, lo)
    hi = np.where(d_lo < d_hi, lo, hi)
    held = v[lo]
    tie = lo != hi
    held[tie] = 0.5 * (held[tie] + v[hi[tie]])
    return held


def integrate(held: np.ndarray, yaws, frame_rate: float = 50.0,
              t0: float = 0.0) -> Trajectory:
    """Sum held velocities (one per frame, see ``held_velocities``) into
    per-frame positions, starting at the origin.

    ``held[f]`` is the velocity over the step into frame f, so frame f
    lies ``held[f] / frame_rate`` past frame f - 1; ``held[0]`` is not
    used.  Yaw is copied from ``yaws`` (the heading stream), wrapped.
    """
    yaws = np.asarray(yaws, dtype=float)
    n = len(yaws)
    if n == 0:
        raise ValueError("empty yaw stream")
    held = np.asarray(held, dtype=float)
    if held.shape != (n, 2):
        raise ValueError(f"expected ({n}, 2) velocities, got {held.shape}")
    xy = np.zeros((n, 2))
    np.cumsum(held[1:] / frame_rate, axis=0, out=xy[1:])
    t = t0 + np.arange(n) * (1.0 / frame_rate)
    return Trajectory(t, xy, yaws, frame_rate)


# ---------------------------------------------------------------------------
# Capture scheduling


@dataclass(frozen=True)
class CaptureEvent:
    frame: int
    pose: Pose2
    trigger: str  # "first" | "distance" | "rotation"


def capture_schedule(traj: Trajectory, distance_m: float = 1.0,
                     rotation_rad: float = np.pi / 2) -> list[CaptureEvent]:
    """Spatial-interval capture events along a trajectory.

    Frame 0 always captures.  Afterwards a capture fires when the path
    distance accumulated since the last capture reaches ``distance_m``,
    or the accumulated absolute yaw change reaches ``rotation_rad``; its
    trigger is ``"distance"`` when the distance gate was reached, else
    ``"rotation"``.  Both accumulators reset on every capture.  An
    infinite threshold never fires, which leaves the other gate alone.

    The step lengths and the wrapped yaw steps are computed as arrays;
    only the accumulate-and-reset walk is a loop.  Each step length is
    ``row_norms``'s, bit-equal to ``np.linalg.norm`` of that step, so
    the events equal those of a walk that takes one norm per frame.
    """
    if distance_m <= 0 or rotation_rad <= 0:
        raise ValueError("capture thresholds must be positive")
    if len(traj) == 0:
        return []
    events = [CaptureEvent(0, traj.pose(0), "first")]
    steps = row_norms(np.diff(traj.xy, axis=0)).tolist()
    turns = np.abs(wrap_angle(np.diff(traj.yaw))).tolist()
    acc_d = 0.0
    acc_r = 0.0
    d_gate = distance_m * (1.0 - _TRIGGER_EPS)
    r_gate = rotation_rad * (1.0 - _TRIGGER_EPS)
    for f, (step, turn) in enumerate(zip(steps, turns), 1):
        acc_d += step
        acc_r += turn
        hit_d = acc_d >= d_gate
        if hit_d or acc_r >= r_gate:
            events.append(CaptureEvent(f, traj.pose(f), "distance" if hit_d else "rotation"))
            acc_d = 0.0
            acc_r = 0.0
    return events


def image_id_for_frame(frame: int) -> str:
    """Naming convention tying capture frames to image files and captions."""
    return f"img_{frame:06d}"


def save_captures(events, path) -> None:
    poses = [ev.pose for ev in events]
    write_jsonl(path, {"frame": [ev.frame for ev in events], "t": [p.t for p in poses],
                       "x": [p.x for p in poses], "y": [p.y for p in poses],
                       "yaw": [p.yaw for p in poses], "trigger": [ev.trigger for ev in events]})


def _capture(rec) -> CaptureEvent:
    pose = Pose2(*(json_field(rec, key, float) for key in ("t", "x", "y", "yaw")))
    return CaptureEvent(json_field(rec, "frame", int), pose, json_field(rec, "trigger", str))


def load_captures(path) -> list[CaptureEvent]:
    return [event for _, event in read_jsonl(path, _capture)]
