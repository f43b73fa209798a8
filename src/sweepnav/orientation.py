"""Per-sample device orientation of a phone mounted rigidly on a floor robot.

The mount fixes the device's tilt and a level floor keeps it fixed, so
only the heading changes: gravity, read once from the recording's mean
specific force, gives the tilt, and the gyro's rate about the up axis,
summed over the recording, gives the heading.  A recording made any
other way brings its own orientations (``orientation.source=file``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import read_table, write_table
from .geometry import quat_yaw, quats_to_matrices, wrap_angle
from .imu import ImuSequence, _frozen

ORIENTATION_CSV_HEADER = "t,qw,qx,qy,qz"

_IDENTITY = (1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class OrientationSequence:
    """Unit quaternions (w, x, y, z), one per IMU sample."""

    t: np.ndarray  # (n,)
    q: np.ndarray  # (n, 4)

    def __post_init__(self):
        t = _frozen(self.t)
        q = np.array(self.q, dtype=float, copy=True)
        if q.shape != (len(t), 4):
            raise ValueError(f"quaternion array must be ({len(t)}, 4), got {q.shape}")
        for what, finite in (("timestamp", np.isfinite(t)),
                             ("quaternion", np.isfinite(q).all(axis=1))):
            if not finite.all():
                raise ValueError(f"non-finite {what} at index {int(np.argmin(finite))}")
        if len(q):
            norms = np.linalg.norm(q, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-3):
                bad = int(np.argmax(np.abs(norms - 1.0)))
                raise ValueError(f"quaternion at index {bad} is far from unit norm")
            q /= norms[:, None]
        q.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return len(self.t)


def estimate_orientation(seq: ImuSequence) -> OrientationSequence:
    """Orientation of a device mounted rigidly on a robot that drives on
    a level floor: q_t = Rz(psi_t) M.

    The mount ``M`` is ``_init_from_gravity`` of the recording's mean
    specific force, which levels the device once.  The heading ``psi``
    is the trapezoid running sum of the gyro rate about the up axis
    that ``M`` finds, from 0 at the first sample.  The mean specific
    force leans off gravity only by the run's mean body acceleration:
    its change of speed and, on turns, speed times turned angle, each
    over the run's duration.
    """
    n = len(seq)
    if n == 0:
        return OrientationSequence(np.zeros(0), np.zeros((0, 4)))
    mount = _init_from_gravity(seq.acc.mean(axis=0))
    up = quats_to_matrices(mount[None])[0, 2]  # world +z in the device frame
    rate = seq.gyro @ up
    psi = np.zeros(n)
    np.cumsum(0.5 * (rate[:-1] + rate[1:]) * np.diff(seq.t), out=psi[1:])
    # the Hamilton product of (cos psi/2, 0, 0, sin psi/2) and the mount
    c, s = np.cos(0.5 * psi), np.sin(0.5 * psi)
    w, x, y, z = mount
    return OrientationSequence(seq.t, np.column_stack(
        [c * w - s * z, c * x - s * y, c * y + s * x, c * z + s * w]))


def _init_from_gravity(acc: np.ndarray) -> np.ndarray:
    """The rotation about a horizontal axis that turns the specific force
    ``acc`` to world +z.

    Its ZYX yaw is not zero in general (``[1, 1, 9.7]`` gives -5.3e-3
    rad); ``to_hacf`` and ``relative_yaw`` subtract the first sample's
    yaw, so nothing downstream depends on it.  Near-zero specific force
    (free fall) yields identity, and force straight down a half turn
    about x.
    """
    norm = float(np.linalg.norm(acc))
    if norm < 1e-6:
        return np.array(_IDENTITY)
    v = acc / norm
    axis = np.cross(v, [0.0, 0.0, 1.0])
    s = float(np.linalg.norm(axis))
    if s < 1e-12:
        return np.array(_IDENTITY if v[2] > 0 else (0.0, 1.0, 0.0, 0.0))
    half = 0.5 * float(np.arctan2(s, v[2]))
    return np.concatenate([[np.cos(half)], np.sin(half) / s * axis])


def relative_yaw(orientations: OrientationSequence) -> np.ndarray:
    """Per-sample yaw minus the yaw at frame 0, wrapped to (-pi, pi].

    This is the heading stream in the heading-anchored frame and is the
    yaw source for integrated trajectories.  One array ``np.arctan2``;
    its elements equal ``quat_yaw`` of each row bit for bit.
    """
    if len(orientations) == 0:
        return np.zeros(0)
    yaws = quat_yaw(orientations.q)
    return wrap_angle(yaws - yaws[0])


def load_orientations(path) -> OrientationSequence:
    """Read a ``t,qw,qx,qy,qz`` CSV of precomputed orientations."""
    arr = read_table(path, ORIENTATION_CSV_HEADER)
    try:
        return OrientationSequence(arr[:, 0], arr[:, 1:5])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_orientations(orientations: OrientationSequence, path) -> None:
    write_table(path, ORIENTATION_CSV_HEADER, [orientations.t, *orientations.q.T])
