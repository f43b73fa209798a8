"""Orientation of a phone mounted rigidly on a floor robot.

The mount fixes the device's tilt and a level floor keeps it fixed, so
only the heading changes: the orientation at sample t is
q_t = Rz(psi_t) M, one mount ``M`` and a heading ``psi`` about world
+z.  Gravity, read once from the recording's mean specific force, gives
the mount, and the gyro's rate about the up axis, summed over the
recording, gives the heading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import write_csv
from .geometry import _frozen, quats_to_matrices, wrap_angle
from .imu import ImuSequence

ORIENTATION_CSV_HEADER = "t,qw,qx,qy,qz"

_IDENTITY = (1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class OrientationSequence:
    """The orientation model's parameters: per-sample timestamps and
    headings (rad about world +z), and one unit quaternion (w, x, y, z)
    that turns the device frame into the levelled frame."""

    t: np.ndarray  # (n,)
    heading: np.ndarray  # (n,)
    mount: np.ndarray = _IDENTITY  # (4,)

    def __post_init__(self):
        t, heading, mount = _frozen(self.t), _frozen(self.heading), _frozen(self.mount)
        if heading.shape != t.shape or mount.shape != (4,):
            raise ValueError(f"expected ({len(t)},) headings and a (4,) mount, "
                             f"got {heading.shape} and {mount.shape}")
        for what, finite in (("timestamp", np.isfinite(t)), ("heading", np.isfinite(heading))):
            if not finite.all():
                raise ValueError(f"non-finite {what} at index {int(np.argmin(finite))}")
        if not np.isclose(np.linalg.norm(mount), 1.0, rtol=0.0, atol=1e-9):
            raise ValueError("mount quaternion is far from unit norm")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "heading", heading)
        object.__setattr__(self, "mount", mount)

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
        return OrientationSequence(np.zeros(0), np.zeros(0))
    mount = _init_from_gravity(seq.acc.mean(axis=0))
    up = quats_to_matrices(mount[None])[0, 2]  # world +z in the device frame
    rate = seq.gyro @ up
    psi = np.zeros(n)
    np.cumsum(0.5 * (rate[:-1] + rate[1:]) * np.diff(seq.t), out=psi[1:])
    return OrientationSequence(seq.t, psi, mount)


def _init_from_gravity(acc: np.ndarray) -> np.ndarray:
    """The rotation about a horizontal axis that turns the specific force
    ``acc`` to world +z.

    The levelled device keeps whatever heading this rotation gives it
    (its ZYX yaw is not zero in general: ``[1, 1, 9.7]`` gives -5.3e-3
    rad).  Nothing reads that heading: ``psi`` starts at 0 and
    ``to_hacf`` anchors its frame to the levelled device at frame 0.
    Near-zero specific force (free fall) yields identity, and force
    straight down a half turn about x.
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
    """Per-sample heading minus the heading at frame 0, wrapped to
    (-pi, pi].

    This is the heading stream in the heading-anchored frame and is the
    yaw source for integrated trajectories.
    """
    heading = orientations.heading
    return wrap_angle(heading - heading[:1])


def save_orientations(orientations: OrientationSequence, path) -> None:
    """Write each sample's quaternion Rz(psi_t) M as a ``t,qw,qx,qy,qz``
    CSV, for inspection; no command reads it back."""
    # the Hamilton product of (cos psi/2, 0, 0, sin psi/2) and the mount
    half = 0.5 * orientations.heading
    c, s = np.cos(half), np.sin(half)
    w, x, y, z = orientations.mount
    write_csv(path, ORIENTATION_CSV_HEADER,
              [orientations.t, c * w - s * z, c * x - s * y, c * y + s * x, c * z + s * w])
