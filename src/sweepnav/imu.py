"""IMU data model, file formats, gravity-aligned frame transform, windowing.

The estimator consumes inertial data expressed in a heading-anchored
gravity-aligned frame: z points along gravity (up), and the horizontal
axes are fixed by the heading at frame 0.  ``to_hacf`` performs that
transform given a per-sample orientation stream; ``make_windows`` views
the result as one array of fixed-length windows for the velocity
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fileio import json_field, read_jsonl, read_table, write_csv, write_jsonl
from .geometry import (
    GRAVITY_VEC,
    median,
    quat_yaw,
    quats_to_matrices,
    rotate_xyz_about_z,
)

IMU_FIELDS = ("t", "ax", "ay", "az", "gx", "gy", "gz")
IMU_CSV_HEADER = ",".join(IMU_FIELDS)
# the longest time step ``resample`` interpolates across, s
_MAX_GAP_S = 0.5


def _frozen(a, dtype=float) -> np.ndarray:
    """Copy to an owned array and mark it read-only."""
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ImuSequence:
    """A time-ordered IMU recording.

    Arrays are copied at construction and marked read-only, so a
    sequence can be shared across threads safely.
    """

    t: np.ndarray  # (n,)
    acc: np.ndarray  # (n, 3)
    gyro: np.ndarray  # (n, 3)

    def __post_init__(self):
        t = _frozen(np.atleast_1d(self.t))
        acc = _frozen(np.atleast_2d(self.acc) if np.size(self.acc) else np.zeros((0, 3)))
        gyro = _frozen(np.atleast_2d(self.gyro) if np.size(self.gyro) else np.zeros((0, 3)))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "acc", acc)
        object.__setattr__(self, "gyro", gyro)
        n = len(t)
        if acc.shape != (n, 3) or gyro.shape != (n, 3):
            raise ValueError(
                f"shape mismatch: t has {n} samples, acc {acc.shape}, gyro {gyro.shape}"
            )
        if n and not np.isfinite(t).all():
            raise ValueError("non-finite timestamp")
        if n and (t < 0).any():
            raise ValueError("negative timestamp")
        if not (np.isfinite(acc).all() and np.isfinite(gyro).all()):
            raise ValueError("non-finite IMU sample")
        if n >= 2:
            bad = np.nonzero(np.diff(t) <= 0)[0]
            if bad.size:
                raise ValueError(f"non-monotonic timestamp at index {bad[0] + 1}")

    def __len__(self) -> int:
        return len(self.t)

    def sample_rate(self) -> float:
        if len(self) < 2:
            raise ValueError("need at least two samples to infer a rate")
        return 1.0 / float(median(np.diff(self.t)))


def load_imu(path) -> ImuSequence:
    """Load an IMU recording from CSV or JSONL (by file suffix).

    CSV has a literal ``t,ax,ay,az,gx,gy,gz`` header; JSONL carries one
    object per line with the same keys.  Parse failures report the
    1-based line number.  An empty file yields an empty sequence.
    """
    path = Path(path)
    if path.suffix.lower() == ".jsonl":
        rows = read_jsonl(path, lambda rec: [json_field(rec, k, float) for k in IMU_FIELDS])
        arr = np.array([row for _, row in rows], dtype=float).reshape(-1, 7)
    else:
        arr = read_table(path, IMU_CSV_HEADER)
    try:
        return ImuSequence(arr[:, 0], arr[:, 1:4], arr[:, 4:7])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_imu(seq: ImuSequence, path) -> None:
    """Write a recording as CSV or JSONL depending on the file suffix."""
    rows = np.column_stack([seq.t, seq.acc, seq.gyro]).tolist()
    if Path(path).suffix.lower() == ".jsonl":
        write_jsonl(path, (dict(zip(IMU_FIELDS, row)) for row in rows))
    else:
        write_csv(path, IMU_CSV_HEADER, rows)


def resample(seq: ImuSequence, rate_hz: float = 50.0) -> ImuSequence:
    """Resample onto a uniform grid at ``rate_hz`` via linear interpolation.

    Input already uniform at the requested rate is returned unchanged
    (bit-for-bit).  A gap between consecutive samples larger than
    ``_MAX_GAP_S`` (0.5 s) is an error: interpolating across it would fabricate
    motion.
    """
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    n = len(seq)
    if n < 2:
        return seq
    dt = 1.0 / rate_hz
    diffs = np.diff(seq.t)
    worst = int(np.argmax(diffs))
    if diffs[worst] > _MAX_GAP_S:
        raise ValueError(
            f"gap of {diffs[worst]:.3f} s at t={seq.t[worst]:.3f} exceeds {_MAX_GAP_S} s"
        )
    if np.max(np.abs(diffs - dt)) < 1e-9:
        return seq
    m = int(np.floor((seq.t[-1] - seq.t[0]) * rate_hz)) + 1
    grid = seq.t[0] + np.arange(m) * dt
    acc = np.column_stack([np.interp(grid, seq.t, seq.acc[:, i]) for i in range(3)])
    gyro = np.column_stack([np.interp(grid, seq.t, seq.gyro[:, i]) for i in range(3)])
    return ImuSequence(grid, acc, gyro)


# ---------------------------------------------------------------------------
# Heading-anchored gravity-aligned frame


@dataclass(frozen=True)
class HacfSequence:
    """Gravity-removed inertial data in the heading-anchored frame."""

    t: np.ndarray  # (n,)
    a: np.ndarray  # (n, 3) linear acceleration, gravity removed
    g: np.ndarray  # (n, 3) angular rate

    def __post_init__(self):
        object.__setattr__(self, "t", _frozen(self.t))
        object.__setattr__(self, "a", _frozen(self.a))
        object.__setattr__(self, "g", _frozen(self.g))

    def __len__(self) -> int:
        return len(self.t)


def to_hacf(seq: ImuSequence, orientations) -> HacfSequence:
    """Rotate device-frame samples into the heading-anchored frame.

    Per sample: ``a = Rz(-yaw0) R(q) acc - (0, 0, 9.81)`` and
    ``g = Rz(-yaw0) R(q) gyro`` where ``yaw0`` is the yaw of the first
    orientation.  Anchoring makes the output frame's x axis coincide
    with the heading at frame 0, so the transform is idempotent with
    respect to the initial heading.
    """
    if len(orientations) != len(seq):
        raise ValueError(
            f"orientation stream has {len(orientations)} samples, IMU has {len(seq)}"
        )
    if len(seq) == 0:
        return HacfSequence(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))
    mats = quats_to_matrices(orientations.q)
    a_world = np.einsum("nij,nj->ni", mats, seq.acc)
    g_world = np.einsum("nij,nj->ni", mats, seq.gyro)
    yaw0 = quat_yaw(orientations.q[0])
    a = rotate_xyz_about_z(a_world, -yaw0) - GRAVITY_VEC
    g = rotate_xyz_about_z(g_world, -yaw0)
    return HacfSequence(seq.t, a, g)


def make_windows(hacf: HacfSequence, tau: int = 64, stride: int | None = None) -> np.ndarray:
    """Cut windows of ``tau + 1`` samples starting at frames 0, stride, ...

    Returns a read-only ``(N, 2, tau + 1, 3)`` strided view: window ``i``
    starts at frame ``i * stride`` and covers frames ``i * stride ..
    i * stride + tau`` inclusive; ``[:, 0]`` holds the acceleration and
    ``[:, 1]`` the angular rate, so ``windows.reshape(N, -1)`` is the
    acc-then-gyro row-major network input.  Windows that would run past
    the end of the recording are not emitted, so a recording shorter
    than ``tau + 1`` samples yields no window.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if stride is None:
        stride = tau
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if len(hacf) <= tau:
        return _frozen(np.empty((0, 2, tau + 1, 3)))
    # (2, n - tau, 3, tau + 1) -> (N, 2, tau + 1, 3)
    view = sliding_window_view(np.stack([hacf.a, hacf.g]), tau + 1, axis=1)
    return view[:, ::stride].transpose(1, 0, 3, 2)
