"""Rotation-augmented ensembling of windowed velocity estimates.

A velocity estimator trained on handheld data sees a coverage robot's
motion as out-of-domain, and its errors are not rotation-equivariant.
Ensembling helps: turn the window inputs by K angles about gravity,
estimate each turned window, rotate each estimate back, and reduce.  The
model does the turning: it takes each window once with the K angles and
returns its K members (see ``estimator``), so no turned copy is made.
Any error component that is fixed in the estimator's input frame is
spread over K directions by the rotate-back step, onto a regular polygon
about the true velocity on a uniform angle grid.  Both reducers that
commute with rotation, the mean and the geometric median, land on its
centre and cancel the error exactly; the median also bounds the pull of
a single wild member.

More generally, write a member's error as a function of the heading phi
of the true velocity in its input frame, in complex xy: e(phi) =
sum_n c_n e^{i n phi}.  Turned back and averaged over the grid theta_k =
-pi + 2 pi k / K, the mean keeps exactly the harmonics n = 1 (mod K),
each times (-1)^{n-1}, and cancels every other.  So a bias fixed in the
input frame (n = 0) and an axis-dependent gain (n = 2) cancel at every
K >= 2.  An error along or across the velocity, a speed bias or a crab
angle (n = 1), is the same on every turned-back member, so it survives
every K and either reducer: no rotation ensemble removes it
(``tests/oracles.py::harmonic_residual_ref``).

The reduction runs over blocks of windows (``reduce_members``): each
step of the geometric median is taken by every window still descending,
with sums in member order and ``np.hypot``'s distances, so every window
gets the bits of a loop over its own members.  That loop is the test
reference, ``tests/oracles.py::geometric_median_ref``, and it calls the
same ``np.hypot`` on each pair, so the two agree on any platform; the
bits themselves follow the platform's libm ``hypot``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import _REDUCERS, RaeConfig
from .estimator import NonFiniteEstimateError, clamp_speed, estimate_velocity
from .geometry import rotate_xy

# Geometric median: members within _COLLINEAR_TOL * spread of one line are
# collinear; the descent stops once a step is below _GM_RTOL times the
# harmonic mean distance to the members or below _GM_ULPS ulps of the
# median's norm, whichever is larger, or after _GM_MAX_ITER steps.  The
# floor ends descents among members that differ only by rounding, where
# the relative rule asks for a step far below one ulp of the median.
_COLLINEAR_TOL = 1e-12
_GM_RTOL = 1e-10
_GM_ULPS = 4
_GM_MAX_ITER = 100
# Ensemble members per model call (64 windows at K=5; at least one window):
# bounds the activations a call holds, whatever K is.
_MEMBERS = 320
# Ensemble members per reduction, in whole model calls (at least one):
# bounds the members held and the arrays the median holds.  Far above
# _MEMBERS, as each descent step costs a few dozen array calls per block
# (3008 windows at K=5: 67 ms in blocks of 320).
_REDUCED = 65536


def ensemble_angles(cfg: RaeConfig) -> np.ndarray:
    """Rotation angles for the K ensemble members: the uniform grid
    theta_k = -pi + 2 pi k / K for k = 0..K-1."""
    return -np.pi + 2.0 * np.pi * np.arange(cfg.k) / cfg.k


def _member_sums(terms: np.ndarray) -> np.ndarray:
    """Sum a (..., m) array over its last axis in member order, from +0.0:
    the adds a Python loop over the members makes.  A left-out member
    holds a zero of either sign, which leaves the sum unchanged: a sum
    that starts at +0.0 never becomes -0.0."""
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total += terms[..., j]
    return total


def _unit_terms(ex, ey):
    """Distances d to the members along the last axis, 1/d, and the unit
    vectors; the last three are zero at a member where d is zero."""
    d = np.hypot(ex, ey)
    w = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)
    return d, w, ex * w, ey * w


def _geometric_medians(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """The geometric median of each window's members, an (n, m, 2) stack,
    and the number of windows whose descent stopped at _GM_MAX_ITER.

    Rotation-equivariant, breakdown point 0.5.  Members are sorted first,
    so the result does not depend on their order.  Collinear members
    (including m=2) have a segment of minimisers; the 1-D median along
    their line is taken (the midpoint of the middle pair for an even
    count).  A member that meets the Vardi-Zhang optimality condition
    |sum over x_j != x_i of unit(x_j - x_i)| <= multiplicity(x_i) is
    returned exactly.  Otherwise descent starts at the mean: a Newton
    step when it lowers the distance sum, else a Weiszfeld step.  All
    windows take each step at once, and a window leaves once its step
    meets the stop rule.  Sums run in member order and distances are
    ``np.hypot``'s, so each window's result is the one a loop over its
    members gives (``tests/oracles.py::geometric_median_ref``, which
    calls ``np.hypot`` on each pair: the bits follow the platform's libm,
    not the Python version, and both sides follow it alike).
    """
    m = pts.shape[1]
    order = np.lexsort((pts[..., 1], pts[..., 0]), axis=1)
    x = np.take_along_axis(pts[..., 0], order, axis=1)
    y = np.take_along_axis(pts[..., 1], order, axis=1)
    out = np.column_stack([x[:, 0], y[:, 0]])  # where all members are equal
    cx = np.array([math.fsum(row) for row in x.tolist()]) / m
    cy = np.array([math.fsum(row) for row in y.tolist()]) / m
    ex, ey = x - cx[:, None], y - cy[:, None]
    dist = np.hypot(ex, ey)
    live = np.flatnonzero(dist.max(axis=1) != 0.0)
    far = dist[live].argmax(axis=1)
    spread = dist[live, far]
    ex, ey = ex[live], ey[live]
    dx, dy = ex[np.arange(len(live)), far] / spread, ey[np.arange(len(live)), far] / spread
    on_line = np.all(np.abs(ex * dy[:, None] - ey * dx[:, None])
                     <= _COLLINEAR_TOL * spread[:, None], axis=1)
    rows = live[on_line]
    line = np.argsort(ex[on_line] * dx[on_line, None] + ey[on_line] * dy[on_line, None],
                      axis=1, kind="stable")
    lo, hi = line[:, (m - 1) // 2], line[:, m // 2]
    out[rows, 0] = 0.5 * (x[rows, lo] + x[rows, hi])
    out[rows, 1] = 0.5 * (y[rows, lo] + y[rows, hi])
    rows = live[~on_line]
    px, py = x[rows], y[rows]
    optimal = np.empty((len(rows), m), dtype=bool)
    for i in range(m):  # Vardi-Zhang: the pull of the members on member i
        d, _, ux, uy = _unit_terms(px - px[:, i, None], py - py[:, i, None])
        optimal[:, i] = np.hypot(_member_sums(ux), _member_sums(uy)) <= (d == 0.0).sum(axis=1)
    first = optimal.argmax(axis=1)
    hit = optimal[np.arange(len(rows)), first]
    out[rows[hit], 0] = px[hit, first[hit]]
    out[rows[hit], 1] = py[hit, first[hit]]
    rows, px, py = rows[~hit], px[~hit], py[~hit]
    yx, yy = cx[rows], cy[rows]
    stop_scale = _GM_RTOL * m
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_GM_MAX_ITER):
            if not len(rows):
                break
            ex, ey = px - yx[:, None], py - yy[:, None]
            d, w, ux, uy = _unit_terms(ex, ey)
            gx, gy, hxx, hxy, hyy, wsum, wx, wy = _member_sums(np.stack(
                [ux, uy, w * uy * uy, -(w * ux * uy), w * ux * ux, w, w * px, w * py]))
            det = hxx * hyy - hxy * hxy
            newton = det > 0.0
            sx = np.where(newton, (hyy * gx - hxy * gy) / det, 0.0)
            sy = np.where(newton, (hxx * gy - hxy * gx) / det, 0.0)
            # change of the distance sum over the step, as
            # sum (|e - s|^2 - |e|^2) / (|e - s| + |e|), which keeps its
            # precision for steps far below the sum's own rounding
            den = d + np.hypot(ex - sx[:, None], ey - sy[:, None])
            num = (sx * sx + sy * sy)[:, None] - 2.0 * (ex * sx[:, None] + ey * sy[:, None])
            change = _member_sums(np.divide(num, den, out=np.zeros_like(den), where=den > 0.0))
            weiszfeld = ~(change < 0.0)
            sx = np.where(weiszfeld, wx / wsum - yx, sx)
            sy = np.where(weiszfeld, wy / wsum - yy, sy)
            yx, yy = yx + sx, yy + sy
            done = np.hypot(sx, sy) <= np.maximum(stop_scale / wsum,
                                                  _GM_ULPS * np.spacing(np.hypot(yx, yy)))
            out[rows[done], 0] = yx[done]
            out[rows[done], 1] = yy[done]
            rows, px, py, yx, yy = (a[~done] for a in (rows, px, py, yx, yy))
    out[rows, 0] = yx
    out[rows, 1] = yy
    return out, len(rows)


def reduce_members(back: np.ndarray, kept: np.ndarray, reducer: str) -> tuple[np.ndarray, int]:
    """Reduce each window's kept members to one velocity.

    ``back`` is an (N, K, 2) stack of member estimates and ``kept`` the
    (N, K) mask of members to use; each window keeps at least one.
    Returns the (N, 2) reduced velocities and the number of windows
    whose median descent stopped at _GM_MAX_ITER steps.  ``median`` is
    the geometric median (see ``_geometric_medians``), so it commutes
    with rotation like ``mean``.  Both reducers are
    permutation-invariant.  Windows are reduced together, grouped by
    their count of kept members.
    """
    back = np.asarray(back, dtype=float)
    kept = np.asarray(kept, dtype=bool)
    n_kept = kept.sum(axis=-1)
    if back.ndim != 3 or back.shape[2] != 2 or kept.shape != back.shape[:2] or not n_kept.all():
        raise ValueError("members must have shape (N, K, 2) with K >= 1 kept per window")
    if reducer not in _REDUCERS:
        raise ValueError(f"reducer must be one of {_REDUCERS}")
    out = np.empty((len(back), 2))
    capped = 0
    for m in np.flatnonzero(np.bincount(n_kept)).tolist():
        rows = np.flatnonzero(n_kept == m)
        pts = back[rows][kept[rows]].reshape(len(rows), m, 2)
        if reducer == "mean":
            out[rows] = pts.mean(axis=1)
        else:
            out[rows], n_capped = _geometric_medians(pts)
            capped += n_capped
    return out, capped


class RaeResult(NamedTuple):
    v: np.ndarray  # (N, 2) reduced velocity per window, clamped to v_max
    n_members_nonfinite: int  # members dropped for non-finite output
    n_windows_clamped: int  # windows with a member or the reduction clamped
    member_spread: np.ndarray  # (N,) largest |kept member - reduced velocity|
    n_windows_median_capped: int  # median descents stopped at _GM_MAX_ITER


def rae_estimate(windows: np.ndarray, starts, model, cfg: RaeConfig,
                 v_max: float = 2.0) -> RaeResult:
    """Ensemble velocity estimates for an (N, 2, tau + 1, 3) window stack.

    Window i starts at frame ``starts[i]``.  Member k, the model's
    estimate for the window turned by theta_k, is rotated back by
    -theta_k.  Members with non-finite output are dropped; a window
    whose members are all dropped fails.  The kept members are reduced
    (``reduce_members``) and each reduced velocity is clamped to
    ``v_max`` like any single estimate.  A model call takes whole
    windows with all K angles: at most _MEMBERS members, or one window
    where K is larger.  Members are collected and reduced one block of
    whole calls at a time, at most _REDUCED members or one call, so
    memory does not grow with N x K.
    """
    angles = ensemble_angles(cfg)
    k = len(angles)
    n = len(windows)
    starts = np.asarray(starts, dtype=int)
    if starts.shape != (n,):
        raise ValueError(f"expected {n} window starts, got shape {starts.shape}")
    reduced, spread, over = np.empty((n, 2)), np.empty(n), np.empty(n, dtype=bool)
    n_dropped = n_capped = 0
    call = max(1, _MEMBERS // k)
    step = call * max(1, _REDUCED // (call * k))
    for lo in range(0, n, step):
        block = slice(lo, min(lo + step, n))
        back = np.empty((block.stop - lo, k, 2))
        kept = np.empty((block.stop - lo, k), dtype=bool)
        for c in range(lo, block.stop, call):
            est = estimate_velocity(windows[c:c + call], starts[c:c + call], angles, model, v_max)
            back[c - lo:c - lo + call] = rotate_xy(est.v, -angles)
            kept[c - lo:c - lo + call] = est.kept
            over[c:c + call] = est.over.any(axis=1)
        dead = np.flatnonzero(~kept.any(axis=1))
        if dead.size:
            raise NonFiniteEstimateError(
                f"all {k} ensemble members were non-finite for window {starts[lo + dead[0]]}"
            )
        reduced[block], capped = reduce_members(back, kept, cfg.reducer)
        n_capped += capped
        n_dropped += int((~kept).sum())
        spread[block] = np.where(kept, np.linalg.norm(
            back - reduced[block, None], axis=2), -np.inf).max(axis=1)
    v, clamped = clamp_speed(reduced, v_max)
    return RaeResult(v, n_dropped, int((over | clamped).sum()), spread, n_capped)
