"""Planar trajectories: Kalman-filtered velocity integration and captures.

Windowed velocity estimates are fused by a constant-velocity Kalman
filter into per-frame positions; yaw comes from the orientation stream,
not from the filter.  A capture schedule walks the resulting trajectory
and fires whenever the robot has moved or turned enough since the last
capture, which is how image capture is throttled on the real system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import KalmanConfig
from .fileio import json_field, read_jsonl, read_table, write_csv, write_jsonl
from .geometry import median, row_norms, wrap_angle
from .imu import _frozen

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


def save_trajectory(traj: Trajectory, path) -> None:
    write_csv(path, TRAJECTORY_CSV_HEADER,
              np.column_stack([traj.t, traj.xy, traj.yaw]).tolist())


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
# Kalman-filtered integration


def held_velocities(velocities: np.ndarray, starts, n_frames: int) -> np.ndarray:
    """Expand windowed estimates to one velocity per frame.

    ``velocities[i]`` belongs to the window starting at frame
    ``starts[i]``.  Frame f (f >= 1) takes the estimate of the most
    recent window that started at or before f - 1; frames past the last
    window hold its value.  With non-overlapping windows this assigns
    each window's velocity to exactly the frames it spans.  Frame 0
    mirrors frame 1 so the array is fully populated.
    """
    v = np.asarray(velocities, dtype=float)
    starts = np.asarray(starts)
    if len(v) == 0:
        raise ValueError("no velocity estimates")
    if v.shape != (len(starts), 2):
        raise ValueError(f"expected ({len(starts)}, 2) velocities, got {v.shape}")
    order = np.argsort(starts, kind="stable")
    idx = np.searchsorted(starts[order], np.arange(n_frames) - 1, side="right") - 1
    if n_frames > 1:
        idx[0] = idx[1]
    return v[order][np.maximum(idx, 0)]


def integrate(held: np.ndarray, yaws, kf: KalmanConfig | None = None,
              frame_rate: float = 50.0, t0: float = 0.0) -> Trajectory:
    """Fuse held velocities (one per frame, see ``held_velocities``) into
    per-frame positions, starting at the origin.

    State is (x, y, vx, vy).  Each frame's held velocity estimate is
    applied as an observation of (vx, vy) covering the step into that
    frame: the filter updates velocity first, then propagates position,
    so in the small-noise limit the positions converge to the Riemann
    sum of the observations.  The velocity state is initialized from
    the first observation.  Yaw is copied from ``yaws`` (the heading
    stream), wrapped; the filter never touches it.

    The gain does not depend on the data, and it turns constant: the
    velocity columns ``P[:, 2:]`` of the covariance form a closed
    recursion, the gain is a function of them alone, and at the default
    noise levels they repeat bit for bit from frame 1519 on.  From the
    first frame whose ``P[:, 2:]`` equals its predecessor's, the ``inv``
    and Riccati step stop and the last gain is reused (the steady-state
    gain of Anderson & Moore, *Optimal Filtering*, 1979).  With
    ``sigma_process = 0`` the gain decays like 1/n and never repeats,
    and some settings (``sigma_process=1``, ``sigma_obs=0.01``) end in a
    two-frame cycle of last-bit flips; there the step runs every frame,
    in the same loop as the state.  The output is bit-identical to the
    filter that runs the step every frame.  The state update stays the
    numpy matmul ``F @ (x + K @ innov)``, because BLAS sums
    ``K @ innov`` with FMA, which scalar arithmetic would not.
    """
    kf = kf or KalmanConfig()
    yaws = np.asarray(yaws, dtype=float)
    n = len(yaws)
    if n == 0:
        raise ValueError("empty yaw stream")
    v_obs = np.asarray(held, dtype=float)
    if v_obs.shape != (n, 2):
        raise ValueError(f"expected ({n}, 2) velocities, got {v_obs.shape}")
    dt = 1.0 / frame_rate
    q = kf.sigma_process ** 2
    F = np.array([[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
    Q = q * np.array(
        [
            [dt ** 4 / 4, 0, dt ** 3 / 2, 0],
            [0, dt ** 4 / 4, 0, dt ** 3 / 2],
            [dt ** 3 / 2, 0, dt ** 2, 0],
            [0, dt ** 3 / 2, 0, dt ** 2],
        ]
    )
    H = np.array([[0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
    R = kf.sigma_obs ** 2 * np.eye(2)
    x = np.array([0.0, 0.0, v_obs[min(1, n - 1), 0], v_obs[min(1, n - 1), 1]])
    P = np.diag([0.0, 0.0, kf.sigma_obs ** 2, kf.sigma_obs ** 2])
    eye4 = np.eye(4)
    block = P[:, 2:].tobytes()
    states = [x]
    for f in range(1, n):
        if P is not None:
            K = P[:, 2:] @ np.linalg.inv(P[2:, 2:] + R)
            P = F @ ((eye4 - K @ H) @ P) @ F.T + Q
            block, last = P[:, 2:].tobytes(), block
            if block == last:
                P = None  # the next gain is this one, and so is every later gain
        # measurement update with the velocity over the step (f-1, f],
        # then the time update to frame f
        x = F @ (x + K @ (v_obs[f] - x[2:]))
        states.append(x)
    poses = np.array(states)[:, :2]
    t = t0 + np.arange(n) * dt
    return Trajectory(t, poses, yaws, frame_rate)


# ---------------------------------------------------------------------------
# Capture scheduling


@dataclass(frozen=True)
class CaptureEvent:
    frame: int
    pose: Pose2
    trigger: str  # "first" | "distance" | "rotation"


def capture_schedule(traj: Trajectory, distance_m: float = 1.0,
                     rotation_rad: float = np.pi / 2, mode: str = "or") -> list[CaptureEvent]:
    """Spatial-interval capture events along a trajectory.

    Frame 0 always captures.  Afterwards a capture fires when the path
    distance accumulated since the last capture reaches ``distance_m``,
    or the accumulated absolute yaw change reaches ``rotation_rad``
    (``mode="and"`` requires both; ``"distance"``/``"rotation"`` watch
    a single trigger).  Both accumulators reset on every capture.

    The step lengths and the wrapped yaw steps are computed as arrays;
    only the accumulate-and-reset walk is a loop.  Each step length is
    ``row_norms``'s, bit-equal to ``np.linalg.norm`` of that step, so
    the events equal those of a walk that takes one norm per frame.
    """
    if distance_m <= 0 or rotation_rad <= 0:
        raise ValueError("capture thresholds must be positive")
    if mode not in ("or", "and", "distance", "rotation"):
        raise ValueError("mode must be one of 'or', 'and', 'distance', 'rotation'")
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
        hit_r = acc_r >= r_gate
        if mode == "and":
            fire = hit_d and hit_r
        elif mode == "distance":
            fire = hit_d
        elif mode == "rotation":
            fire = hit_r
        else:
            fire = hit_d or hit_r
        if fire:
            if mode == "rotation":
                trigger = "rotation"
            elif mode == "distance" or hit_d:
                trigger = "distance"
            else:
                trigger = "rotation"
            events.append(CaptureEvent(f, traj.pose(f), trigger))
            acc_d = 0.0
            acc_r = 0.0
    return events


def image_id_for_frame(frame: int) -> str:
    """Naming convention tying capture frames to image files and captions."""
    return f"img_{frame:06d}"


def save_captures(events, path) -> None:
    write_jsonl(path, ({"frame": ev.frame, "t": ev.pose.t, "x": ev.pose.x, "y": ev.pose.y,
                        "yaw": ev.pose.yaw, "trigger": ev.trigger} for ev in events))


def _capture(rec) -> CaptureEvent:
    pose = Pose2(*(json_field(rec, key, float) for key in ("t", "x", "y", "yaw")))
    return CaptureEvent(json_field(rec, "frame", int), pose, json_field(rec, "trigger", str))


def load_captures(path) -> list[CaptureEvent]:
    return [event for _, event in read_jsonl(path, _capture)]
