"""Planar rotation and quaternion helpers, and the immutable record
classes of the package with the read-only array copy they hold.

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


def _frozen(a, dtype=float) -> np.ndarray:
    """Copy to an owned array and mark it read-only."""
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


_REQUIRED = object()  # the default of a record field that has none


def _record_fields(cls) -> dict:
    """The fields of a ``_record`` class in order, each name mapped to its
    default, or to ``_REQUIRED`` where it has none."""
    return {name: cls.__dict__.get(name, _REQUIRED) for name in cls.__match_args__}


def _record(cls):
    """Make ``cls`` an immutable record of the fields its annotations
    name, in order; a field's class attribute, where it has one, is its
    default.

    Instances behave as those of ``dataclasses.dataclass(frozen=True)``:
    they are built by position or keyword, where a missing, unknown or
    repeated argument is a ``TypeError``, and ``__post_init__``, if the
    class has one, runs last and may set a field with
    ``object.__setattr__``.  Setting or deleting an attribute raises
    ``AttributeError``.  ``==`` and ``hash`` compare the tuple of field
    values of two instances of one class, and ``repr`` names each field.
    The methods are closures over the field table, where a dataclass
    compiles generated source for each class: 0.5-2 ms of CPU a class on
    CPython 3.11, paid by every command that imports it.
    """
    cls.__match_args__ = names = tuple(cls.__dict__.get("__annotations__", ()))
    fields = _record_fields(cls)
    post_init = getattr(cls, "__post_init__", None)

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def bind(args, kwargs) -> list:
        """The field values of a call that does not give every field by position."""
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        given.update(kwargs)
        bound = [given.get(name, default) for name, default in fields.items()]
        for name, value in zip(names, bound):
            if value is _REQUIRED:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        fields_text = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields_text})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


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
