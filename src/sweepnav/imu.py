"""IMU data model, file formats, gravity-aligned frame transform, windowing.

The estimator consumes inertial data expressed in a heading-anchored
gravity-aligned frame: z points along gravity (up), and the horizontal
axes are fixed by the heading at frame 0.  ``to_hacf`` performs that
transform given the orientation model's mount and headings;
``make_windows`` views the result as one array of fixed-length windows
for the velocity estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fileio import check_rows, read_table, table_error, write_table
from .geometry import GRAVITY_VEC, _frozen, median, quats_to_matrices, rotate_xyz_about_z

IMU_FIELDS = ("t", "ax", "ay", "az", "gx", "gy", "gz")
IMU_CSV_HEADER = ",".join(IMU_FIELDS)
# the longest time step ``resample`` interpolates across, s
_MAX_GAP_S = 0.5


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
        check_rows(np.isfinite(t), "non-finite timestamp")
        check_rows(t >= 0, "negative timestamp")
        check_rows(np.isfinite(acc).all(axis=1) & np.isfinite(gyro).all(axis=1),
                   "non-finite IMU sample")
        check_rows(np.append(True, t[1:] > t[:-1]), "non-monotonic timestamp")

    def __len__(self) -> int:
        return len(self.t)

    def sample_rate(self) -> float:
        if len(self) < 2:
            raise ValueError("need at least two samples to infer a rate")
        return 1.0 / float(median(np.diff(self.t)))


def load_imu(path) -> ImuSequence:
    """Load an IMU recording from CSV with a literal
    ``t,ax,ay,az,gx,gy,gz`` header, whatever the file's suffix.  Parse
    failures report the 1-based line number, so a file in any other
    format is refused at line 1.  An empty file yields an empty
    sequence.
    """
    arr = read_table(path, IMU_CSV_HEADER)
    try:
        return ImuSequence(arr[:, 0], arr[:, 1:4], arr[:, 4:7])
    except ValueError as exc:
        raise table_error(path, exc) from None


def save_imu(seq: ImuSequence, path) -> None:
    """Write a recording as CSV, as ``load_imu`` reads it."""
    write_table(path, IMU_CSV_HEADER, [seq.t, *seq.acc.T, *seq.gyro.T])


def resample(seq: ImuSequence, rate_hz: float) -> ImuSequence:
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


def to_hacf(seq: ImuSequence, orientations) -> np.ndarray:
    """Rotate device-frame samples into the heading-anchored frame.

    Returns a read-only ``(2, n, 3)`` array: ``[0]`` holds the linear
    acceleration ``Rz(psi - psi0) M acc - (0, 0, 9.81)`` and ``[1]`` the
    angular rate ``Rz(psi - psi0) M gyro`` of each sample, where ``M``
    is the orientations' mount, which levels every sample, ``psi`` each
    sample's heading and ``psi0`` the first.  The output frame is the
    levelled device at frame 0, so it does not depend on the heading
    the recording starts at.
    """
    if len(orientations) != len(seq):
        raise ValueError(
            f"orientation stream has {len(orientations)} samples, IMU has {len(seq)}"
        )
    level = quats_to_matrices(orientations.mount[None])[0]
    turn = orientations.heading - orientations.heading[:1]
    hacf = np.empty((2, len(seq), 3))
    for out, x in zip(hacf, (seq.acc, seq.gyro)):
        out[:] = rotate_xyz_about_z(x @ level.T, turn)
    hacf[0] -= GRAVITY_VEC
    hacf.flags.writeable = False
    return hacf


def window_stride(tau: int, stride: int = 0) -> int:
    """Frames from one window's start to the next: ``stride``, where 0
    stands for ``tau`` (windows that share only their end sample)."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if stride < 0:
        raise ValueError("stride must be >= 0 (0 = tau)")
    return stride or tau


def make_windows(hacf: np.ndarray, tau: int = 64, stride: int = 0) -> np.ndarray:
    """Cut windows of ``tau + 1`` samples from the ``(2, n, 3)`` array
    that ``to_hacf`` returns, starting at frames 0, stride, ... (stride
    as ``window_stride`` reads it).

    Returns a read-only ``(N, 2, tau + 1, 3)`` strided view: window ``i``
    starts at frame ``i * stride`` and covers frames ``i * stride ..
    i * stride + tau`` inclusive; ``[:, 0]`` holds the acceleration and
    ``[:, 1]`` the angular rate, so ``windows.reshape(N, -1)`` is the
    acc-then-gyro row-major network input.  Windows that would run past
    the end of the recording are not emitted, so a recording shorter
    than ``tau + 1`` samples yields no window.
    """
    stride = window_stride(tau, stride)
    if hacf.shape[1] <= tau:
        return _frozen(np.empty((0, 2, tau + 1, 3)))
    # (2, n - tau, 3, tau + 1) -> (N, 2, tau + 1, 3)
    view = sliding_window_view(hacf, tau + 1, axis=1)
    return view[:, ::stride].transpose(1, 0, 3, 2)
