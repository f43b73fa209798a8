"""Rotation-augmented ensembling of windowed velocity estimates.

A velocity estimator trained on handheld data sees a coverage robot's
motion as out-of-domain, and its errors are not rotation-equivariant.
Ensembling helps: rotate the window inputs by K angles about gravity,
run the estimator on each copy, rotate each estimate back, and reduce.
Any error component that is fixed in the estimator's input frame is
spread over K directions by the rotate-back step, onto a regular polygon
about the true velocity on a uniform angle grid.  Both reducers that
commute with rotation, the mean and the geometric median, land on its
centre and cancel the error exactly; the median also bounds the pull of
a single wild member.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import _REDUCERS, RaeConfig
from .estimator import NonFiniteEstimateError, clamp_speed, estimate_velocity
from .geometry import rotate_xy, rotate_xyz_about_z

# Geometric median: members within _COLLINEAR_TOL * spread of one line are
# collinear; the descent stops once a step is below _GM_RTOL times the
# harmonic mean distance to the members, or after _GM_MAX_ITER steps.
_COLLINEAR_TOL = 1e-12
_GM_RTOL = 1e-10
_GM_MAX_ITER = 100
# Windows per model call: bounds the K rotated copies held in memory
# (64 windows x K=5 x 390 samples is 1 MB) without a per-window call.
_BLOCK = 64


def ensemble_angles(cfg: RaeConfig, rng_seed: int = 0) -> np.ndarray:
    """Rotation angles for the K ensemble members.

    ``grid``: theta_k = -pi + 2 pi k / K for k = 0..K-1.
    ``seeded_random``: K draws from U(-pi, pi), fixed per recording by
    ``rng_seed`` (the window does not enter the seed).
    """
    if cfg.angle_mode == "grid":
        return -np.pi + 2.0 * np.pi * np.arange(cfg.k) / cfg.k
    rng = np.random.default_rng(rng_seed)
    return rng.uniform(-np.pi, np.pi, cfg.k)


def _pull(pts, yx, yy):
    """Sum of the unit vectors from (yx, yy) to the members (the negative
    gradient of the distance sum), that sum's Hessian (xx, xy, yy), the
    Weiszfeld point, and the sum of inverse distances.  Members at
    (yx, yy) are left out."""
    gx = gy = hxx = hxy = hyy = wsum = wx = wy = 0.0
    for x, y in pts:
        ex, ey = x - yx, y - yy
        d = math.hypot(ex, ey)
        if d > 0.0:
            w = 1.0 / d
            ux, uy = ex * w, ey * w
            gx += ux
            gy += uy
            hxx += w * uy * uy
            hxy -= w * ux * uy
            hyy += w * ux * ux
            wsum += w
            wx += w * x
            wy += w * y
    return gx, gy, hxx, hxy, hyy, wx / wsum, wy / wsum, wsum


def _distance_sum_change(pts, yx, yy, sx, sy):
    """Change of the distance sum from (yx, yy) to (yx + sx, yy + sy), as
    sum (|e - s|^2 - |e|^2) / (|e - s| + |e|), which keeps its precision
    for steps far below the sum's own rounding."""
    ss = sx * sx + sy * sy
    total = 0.0
    for x, y in pts:
        ex, ey = x - yx, y - yy
        den = math.hypot(ex, ey) + math.hypot(ex - sx, ey - sy)
        if den > 0.0:
            total += (ss - 2.0 * (ex * sx + ey * sy)) / den
    return total


def _geometric_median(members: np.ndarray) -> np.ndarray:
    """The point minimising the sum of Euclidean distances to the members.

    Rotation-equivariant, breakdown point 0.5.  Collinear members
    (including K=2) have a segment of minimisers; the 1-D median along
    their line is taken (the midpoint of the middle pair for an even
    count).  A member that meets the Vardi-Zhang optimality condition
    |sum over x_j != x_i of unit(x_j - x_i)| <= multiplicity(x_i) is
    returned exactly.  Otherwise descent starts at the mean: a Newton
    step when it lowers the distance sum, else a Weiszfeld step.  Members
    are sorted first, so the result does not depend on their order.
    """
    pts = sorted(map(tuple, members.tolist()))
    k = len(pts)
    cx = math.fsum(x for x, _ in pts) / k
    cy = math.fsum(y for _, y in pts) / k
    ax, ay = max(pts, key=lambda p: math.hypot(p[0] - cx, p[1] - cy))
    spread = math.hypot(ax - cx, ay - cy)
    if spread == 0.0:
        return np.array(pts[0])
    dx, dy = (ax - cx) / spread, (ay - cy) / spread
    if all(abs((x - cx) * dy - (y - cy) * dx) <= _COLLINEAR_TOL * spread for x, y in pts):
        line = sorted(pts, key=lambda p: ((p[0] - cx) * dx + (p[1] - cy) * dy, p))
        (lx, ly), (hx, hy) = line[(k - 1) // 2], line[k // 2]
        return np.array([0.5 * (lx + hx), 0.5 * (ly + hy)])
    for p in pts:
        rx, ry = _pull(pts, *p)[:2]
        if math.hypot(rx, ry) <= pts.count(p):
            return np.array(p)
    yx, yy = cx, cy
    for _ in range(_GM_MAX_ITER):
        gx, gy, hxx, hxy, hyy, qx, qy, wsum = _pull(pts, yx, yy)
        det = hxx * hyy - hxy * hxy
        sx = sy = 0.0
        if det > 0.0:
            sx = (hyy * gx - hxy * gy) / det
            sy = (hxx * gy - hxy * gx) / det
        if not _distance_sum_change(pts, yx, yy, sx, sy) < 0.0:
            sx, sy = qx - yx, qy - yy
        yx += sx
        yy += sy
        if math.hypot(sx, sy) <= _GM_RTOL * k / wsum:
            break
    return np.array([yx, yy])


def reduce_members(members: np.ndarray, reducer: str, trim_fraction: float = 0.1) -> np.ndarray:
    """Reduce a (K, 2) stack of member estimates to one velocity.

    ``median`` is the geometric median (see ``_geometric_median``), so
    it commutes with rotation like ``mean``.  ``trimmed_mean`` sorts each
    component and drops ``floor(K * trim_fraction)`` entries from both
    ends before averaging.  All reducers are permutation-invariant.
    """
    members = np.asarray(members, dtype=float)
    if members.ndim != 2 or members.shape[1] != 2 or len(members) == 0:
        raise ValueError("members must have shape (K, 2) with K >= 1")
    if reducer == "median":
        return _geometric_median(members)
    if reducer == "mean":
        return members.mean(axis=0)
    if reducer == "trimmed_mean":
        k = len(members)
        cut = int(np.floor(k * trim_fraction))
        srt = np.sort(members, axis=0)
        return srt[cut : k - cut].mean(axis=0)
    raise ValueError(f"reducer must be one of {_REDUCERS}")


class RaeResult(NamedTuple):
    v: np.ndarray  # (N, 2) reduced velocity per window, clamped to v_max
    n_members_nonfinite: int  # members dropped for non-finite output
    n_windows_clamped: int  # windows with a member or the reduction clamped
    member_spread: np.ndarray  # (N,) largest |kept member - reduced velocity|


def rae_estimate(windows: np.ndarray, starts, model, cfg: RaeConfig,
                 rng_seed: int = 0, v_max: float = 2.0) -> RaeResult:
    """Ensemble velocity estimates for an (N, 2, tau + 1, 3) window stack.

    Window i starts at frame ``starts[i]``.  Member k runs the model on
    the window rotated by theta_k and rotates the estimate back by
    -theta_k.  Members with non-finite output are dropped; a window
    whose members are all dropped fails.  Each window's members are
    reduced on their own, and the reduced velocity is clamped to
    ``v_max`` like any single estimate.  The model sees blocks of
    windows, all K rotated copies of each at once.
    """
    angles = ensemble_angles(cfg, rng_seed)
    k = len(angles)
    n = len(windows)
    starts = np.asarray(starts, dtype=int)
    if starts.shape != (n,):
        raise ValueError(f"expected {n} window starts, got shape {starts.shape}")
    back = np.empty((n, k, 2))
    kept = np.empty((n, k), dtype=bool)
    over = np.empty((n, k), dtype=bool)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        # (hi - lo, K, 2, tau + 1, 3): copy k of each window rotated by theta_k
        rotated = rotate_xyz_about_z(np.repeat(windows[lo:hi, None], k, axis=1),
                                     angles[:, None, None])
        est = estimate_velocity(rotated.reshape(-1, *windows.shape[1:]),
                                np.repeat(starts[lo:hi], k), np.tile(angles, hi - lo),
                                model, v_max)
        back[lo:hi] = rotate_xy(est.v.reshape(-1, k, 2), -angles)
        kept[lo:hi] = est.kept.reshape(-1, k)
        over[lo:hi] = est.over.reshape(-1, k)
    dead = np.flatnonzero(~kept.any(axis=1))
    if dead.size:
        raise NonFiniteEstimateError(
            f"all {k} ensemble members were non-finite for window {starts[dead[0]]}"
        )
    reduced = np.array([reduce_members(m[keep], cfg.reducer, cfg.trim_fraction)
                        for m, keep in zip(back, kept)]).reshape(n, 2)
    spread = np.where(kept, np.linalg.norm(back - reduced[:, None], axis=2), -np.inf)
    v, clamped = clamp_speed(reduced, v_max)
    return RaeResult(v, int((~kept).sum()), int((over.any(axis=1) | clamped).sum()),
                     spread.max(axis=1))
