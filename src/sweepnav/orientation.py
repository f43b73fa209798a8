"""Per-sample device orientation from gyro integration with gravity blending.

A complementary filter: the gyro is integrated between samples, and the
tilt component is nudged toward the direction implied by the measured
specific force.  Yaw is gyro-only (gravity carries no heading
information), which is fine downstream because the heading-anchored
frame pins yaw at frame 0 anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import read_csv, write_csv
from .geometry import (
    GRAVITY,
    quat_from_rotvec,
    quat_identity,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_yaw,
    wrap_angle,
)
from .imu import ImuSequence, _frozen

ORIENTATION_CSV_HEADER = "t,qw,qx,qy,qz"

# corrections are gated to specific-force magnitudes near 1 g; far outside
# that band the measurement is dominated by linear acceleration
_ACC_GATE = (0.5 * GRAVITY, 1.5 * GRAVITY)


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


def estimate_orientation(seq: ImuSequence, alpha: float = 0.02) -> OrientationSequence:
    """Run the complementary filter over a recording.

    ``alpha`` is the per-sample blend fraction toward the
    accelerometer's gravity direction (0 disables blending).  The
    initial orientation is taken from the first sample's specific
    force, so a recording should start near rest for a clean start.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    n = len(seq)
    if n == 0:
        return OrientationSequence(np.zeros(0), np.zeros((0, 4)))
    quats = np.empty((n, 4))
    q = _init_from_gravity(seq.acc[0])
    quats[0] = q
    z = np.array([0.0, 0.0, 1.0])
    for i in range(1, n):
        dt = float(seq.t[i] - seq.t[i - 1])
        omega = 0.5 * (seq.gyro[i - 1] + seq.gyro[i])
        q = quat_multiply(q, quat_from_rotvec(omega * dt))
        if alpha > 0.0:
            a = seq.acc[i]
            norm = float(np.linalg.norm(a))
            if _ACC_GATE[0] <= norm <= _ACC_GATE[1]:
                up_meas = quat_rotate(q, a / norm)  # should be +z at rest
                axis = np.cross(up_meas, z)
                s = float(np.linalg.norm(axis))
                if s > 1e-12:
                    angle = float(np.arctan2(s, float(np.dot(up_meas, z))))
                    corr = quat_from_rotvec(axis / s * (alpha * angle))
                    q = quat_multiply(corr, q)
        q = quat_normalize(q)
        quats[i] = q
    return OrientationSequence(seq.t, quats)


def _init_from_gravity(acc: np.ndarray) -> np.ndarray:
    """Orientation aligning the measured specific force with world +z.

    The result has zero yaw by construction (its rotation axis is
    horizontal).  Near-zero specific force (free fall) yields identity.
    """
    norm = float(np.linalg.norm(acc))
    if norm < 1e-6:
        return quat_identity()
    v = acc / norm
    z = np.array([0.0, 0.0, 1.0])
    axis = np.cross(v, z)
    s = float(np.linalg.norm(axis))
    if s < 1e-12:
        if v[2] > 0:
            return quat_identity()
        # upside down: rotate pi about x
        return np.array([0.0, 1.0, 0.0, 0.0])
    angle = float(np.arctan2(s, float(np.dot(v, z))))
    return quat_from_rotvec(axis / s * angle)


def relative_yaw(orientations: OrientationSequence) -> np.ndarray:
    """Per-sample yaw minus the yaw at frame 0, wrapped to (-pi, pi].

    This is the heading stream in the heading-anchored frame and is the
    yaw source for integrated trajectories.
    """
    if len(orientations) == 0:
        return np.zeros(0)
    yaws = np.array([quat_yaw(q) for q in orientations.q])
    return wrap_angle(yaws - yaws[0])


def load_orientations(path) -> OrientationSequence:
    """Read a ``t,qw,qx,qy,qz`` CSV of precomputed orientations."""
    rows = read_csv(path, ORIENTATION_CSV_HEADER, lambda fields: list(map(float, fields)))
    arr = np.array([row for _, row in rows], dtype=float).reshape(-1, 5)
    try:
        return OrientationSequence(arr[:, 0], arr[:, 1:5])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_orientations(orientations: OrientationSequence, path) -> None:
    write_csv(path, ORIENTATION_CSV_HEADER,
              np.column_stack([orientations.t, orientations.q]).tolist())
