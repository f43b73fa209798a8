"""Per-sample device orientation from gyro integration with gravity blending.

A complementary filter: the gyro is integrated between samples, and the
tilt component is nudged toward the direction implied by the measured
specific force.  Yaw is gyro-only (gravity carries no heading
information), which is fine downstream because the heading-anchored
frame pins yaw at frame 0 anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .fileio import read_table, write_csv
from .geometry import GRAVITY, quat_from_rotvec, quat_yaw, row_norms, wrap_angle
from .imu import ImuSequence, _frozen

ORIENTATION_CSV_HEADER = "t,qw,qx,qy,qz"

# corrections are gated to specific-force magnitudes near 1 g; far outside
# that band the measurement is dominated by linear acceleration
_ACC_GATE = (0.5 * GRAVITY, 1.5 * GRAVITY)
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


def estimate_orientation(seq: ImuSequence, alpha: float = 0.02) -> OrientationSequence:
    """Run the complementary filter over a recording.

    ``alpha`` is the per-sample blend fraction toward the
    accelerometer's gravity direction (0 disables blending).  The
    initial orientation is taken from the first sample's specific
    force, so a recording should start near rest for a clean start.

    Per sample: compose the gyro increment (the midpoint rate over the
    step, as a rotation vector), then, when the specific force lies in
    the gate around 1 g, turn the estimate by ``alpha`` of the angle
    between the measured and the world up, then renormalise.

    The output is bit-identical to that recipe written with one numpy
    call per 3- or 4-vector (the reference in the test suite).  What
    depends only on the data (the increment quaternions, the gate and
    the unit specific force) is computed as arrays up front and read
    from flat float lists, four or three values at a time; the state is
    four Python floats, appended to one flat list that becomes the
    (n, 4) output, so no object is kept per sample.  Every norm is
    ``sqrt`` of a BLAS dot product, as ``np.linalg.norm`` takes it of a
    vector: OpenBLAS sums with FMA, so ``math.sqrt(x*x + y*y + z*z)``
    would differ in the last bit for about one vector in ten.  The
    data-only norms come from ``row_norms``; the three that depend on
    the state (tilt axis, correction angle, renormalisation) call
    ``ndarray.dot`` on a small reused buffer.  ``np.arctan2`` stays
    because ``math.atan2`` rounds differently; ``math.sin``/``math.cos``
    match numpy's here.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    n = len(seq)
    if n == 0:
        return OrientationSequence(np.zeros(0), np.zeros((0, 4)))
    # the midpoint gyro rate over each step as a rotation, four floats a
    # step, and the gate and unit specific force of samples 1..n-1, three
    # floats a sample
    steps = iter(quat_from_rotvec(0.5 * (seq.gyro[:-1] + seq.gyro[1:])
                                  * np.diff(seq.t)[:, None]).ravel().tolist())
    if alpha > 0.0:
        norms = row_norms(seq.acc)
        gate = (_ACC_GATE[0] <= norms) & (norms <= _ACC_GATE[1])
        gated = gate[1:].tolist()
        ups = iter((seq.acc / np.where(gate, norms, 1.0)[:, None])[1:].ravel().tolist())
    else:
        gated, ups = [False] * (n - 1), repeat(0.0)
    buf3, buf4 = np.empty(3), np.empty(4)
    out = _init_from_gravity(seq.acc[0]).tolist()
    w, x, y, z = out
    for bw, bx, by, bz, in_gate, ux, uy, uz in zip(steps, steps, steps, steps,
                                                    gated, ups, ups, ups):
        w, x, y, z = (w * bw - x * bx - y * by - z * bz,
                      w * bx + x * bw + y * bz - z * by,
                      w * by - x * bz + y * bw + z * bx,
                      w * bz + x * by - y * bx + z * bw)
        if in_gate:
            # the unit specific force rotated to the world: +z at rest
            tx, ty, tz = 2.0 * (y * uz - z * uy), 2.0 * (z * ux - x * uz), 2.0 * (x * uy - y * ux)
            upx = ux + w * tx + (y * tz - z * ty)
            upy = uy + w * ty + (z * tx - x * tz)
            upz = uz + w * tz + (x * ty - y * tx)
            # up x (0, 0, 1); the zero products keep np.cross's signed zeros
            buf3[0] = ax = upy - upz * 0.0
            buf3[1] = ay = upz * 0.0 - upx
            buf3[2] = az = upx * 0.0 - upy * 0.0
            s = math.sqrt(buf3.dot(buf3))
            if s > 1e-12:
                turn = alpha * float(np.arctan2(s, upz))
                buf3[0] = rx = ax / s * turn
                buf3[1] = ry = ay / s * turn
                buf3[2] = rz = az / s * turn
                angle = math.sqrt(buf3.dot(buf3))
                if angle < 1e-12:
                    cw, cx, cy, cz = quat_from_rotvec(buf3).tolist()
                else:
                    cw, sin_half = math.cos(0.5 * angle), math.sin(0.5 * angle)
                    cx, cy, cz = (sin_half * rx / angle, sin_half * ry / angle,
                                  sin_half * rz / angle)
                w, x, y, z = (cw * w - cx * x - cy * y - cz * z,
                              cw * x + cx * w + cy * z - cz * y,
                              cw * y - cx * z + cy * w + cz * x,
                              cw * z + cx * y - cy * x + cz * w)
        buf4[0], buf4[1], buf4[2], buf4[3] = w, x, y, z
        norm = math.sqrt(buf4.dot(buf4))
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
        out += (w, x, y, z)
    return OrientationSequence(seq.t, np.array(out).reshape(n, 4))


def _init_from_gravity(acc: np.ndarray) -> np.ndarray:
    """Orientation aligning the measured specific force with world +z.

    The result has zero yaw by construction (its rotation axis is
    horizontal).  Near-zero specific force (free fall) yields identity.
    """
    norm = float(np.linalg.norm(acc))
    if norm < 1e-6:
        return np.array(_IDENTITY)
    v = acc / norm
    z = np.array([0.0, 0.0, 1.0])
    axis = np.cross(v, z)
    s = float(np.linalg.norm(axis))
    if s < 1e-12:
        if v[2] > 0:
            return np.array(_IDENTITY)
        # upside down: rotate pi about x
        return np.array([0.0, 1.0, 0.0, 0.0])
    angle = float(np.arctan2(s, float(np.dot(v, z))))
    return quat_from_rotvec(axis / s * angle)


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
    write_csv(path, ORIENTATION_CSV_HEADER, [orientations.t, *orientations.q.T])
