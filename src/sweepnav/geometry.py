"""Planar rotation and quaternion helpers shared across the package.

Conventions
-----------
* World frame: x-y horizontal, z up.  Gravity points along -z.
* Quaternions are (w, x, y, z), unit norm, and rotate device-frame
  vectors into the world frame: ``v_world = R(q) @ v_device``.
* Yaw is the rotation about +z, wrapped to the half-open interval
  (-pi, pi].
"""

from __future__ import annotations

import numpy as np

GRAVITY = 9.81
GRAVITY_VEC = np.array([0.0, 0.0, GRAVITY])


def wrap_angle(theta):
    """Wrap an angle (or array of angles) into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)


def median(x) -> np.float64:
    """``np.median`` of a float array, bit for bit: the mean of the middle
    one or two values of the same ``np.partition``, or the value that
    partition puts last when that is NaN.  ``np.median`` imports
    ``numpy.ma`` for its NaN check; this does not."""
    a = np.asarray(x, dtype=float).ravel()
    mid, odd = divmod(len(a), 2)
    part = np.partition(a, ([mid] if odd else [mid - 1, mid]) + [-1])
    if len(a) and np.isnan(part[-1]):  # NaNs sort last
        return part[-1]
    return part[mid - 1 + odd:mid + 1].mean()


def unique(a) -> np.ndarray:
    """``np.unique`` of a 1-D integer array: its distinct values, sorted.
    ``np.unique`` imports ``numpy.ma`` to check for a mask; this does not."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def rot2(theta: float) -> np.ndarray:
    """2x2 rotation matrix for a counterclockwise angle ``theta``."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate_xy(v, theta):
    """Rotate 2-vectors by ``theta`` about the origin.

    ``v`` has shape (..., 2); ``theta`` is a scalar or broadcastable to
    the leading shape of ``v``.
    """
    v = np.asarray(v, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    x, y = v[..., 0], v[..., 1]
    return np.stack([c * x - s * y, s * x + c * y], axis=-1)


def rotate_xyz_about_z(v, theta):
    """Rotate 3-vectors about the z axis; z components pass through."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., :2] = rotate_xy(v[..., :2], theta)
    out[..., 2] = v[..., 2]
    return out


# ---------------------------------------------------------------------------
# Quaternions


def quats_to_matrices(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (device -> world) of an (n, 4) array of unit
    quaternions, as an (n, 3, 3) array."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((len(q), 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, bit-equal to
    ``np.linalg.norm`` of that row.

    That norm is ``sqrt`` of one BLAS dot product, which OpenBLAS sums
    with FMA; a matmul of (n, 1, d) by (n, d, 1) makes the same dot
    product per row, where ``np.linalg.norm(a, axis=1)`` and
    ``math.hypot`` round differently.
    """
    return np.sqrt((a[:, None, :] @ a[:, :, None]).ravel())
