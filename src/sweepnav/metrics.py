"""Trajectory evaluation: similarity alignment and error metrics.

Estimated trajectories live in an arbitrary frame, so evaluation first
aligns estimate to ground truth with the least-squares similarity
transform (rotation, translation, and optionally scale), then reports:

  rte        translation RMSE after free-scale alignment (m)
  rte_metric translation RMSE with scale fixed to 1 (m); penalizes
             scale drift that free alignment would absorb
  rre        mean absolute yaw error after applying the alignment
             rotation (rad)
  coverage   fraction of ground-truth poses with a matched estimate

Pose pairs are matched by frame index.  Outliers (capture detections
gone wrong, degenerate windows) are trimmed by median-absolute-
deviation gating on alignment residuals before the final alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import write_csv, write_json
from .geometry import median, rot2, wrap_angle
from .imu import _frozen
from .trajectory import Trajectory

RESIDUAL_CSV_HEADER = "frame,dx,dy,dist,yaw_err"
# outlier gate on alignment residuals: median + _MAD_K * MAD
_MAD_K = 3.0


@dataclass(frozen=True)
class AlignmentResult:
    """Similarity transform gt ~ scale * R(rotation) @ est + translation."""

    scale: float
    rotation: float
    translation: np.ndarray  # (2,)
    inliers: np.ndarray  # (n,) bool, False for MAD-trimmed pairs
    rmse: float

    def __post_init__(self):
        object.__setattr__(self, "translation", _frozen(self.translation))
        object.__setattr__(self, "inliers", _frozen(self.inliers, dtype=bool))


@dataclass(frozen=True)
class EvalReport:
    rte: float
    rte_metric: float
    rre: float
    coverage: float
    n_pairs: int
    n_inliers: int


def _similarity_fit(gt: np.ndarray, est: np.ndarray, fix_scale: bool) -> tuple[float, float, np.ndarray]:
    """Closed-form 2D least-squares similarity (scale, theta, t)."""
    mg = gt.mean(axis=0)
    me = est.mean(axis=0)
    gc = gt - mg
    ec = est - me
    # Cross-covariance determines the rotation for both scale modes.
    M = gc.T @ ec  # M[i, j] = sum gt_c[:, i] * est_c[:, j]
    trace = M[0, 0] + M[1, 1]
    skew = M[1, 0] - M[0, 1]
    theta = float(np.arctan2(skew, trace))
    if fix_scale:
        scale = 1.0
    else:
        denom = float((ec * ec).sum())
        if denom == 0.0:
            raise ValueError("estimate points are coincident; scale is undefined")
        scale = float(np.hypot(trace, skew) / denom)
    R = rot2(theta)
    t = mg - scale * (R @ me)
    return scale, theta, t


def apply_alignment(points: np.ndarray, result: AlignmentResult) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    R = rot2(result.rotation)
    return result.scale * (points @ R.T) + result.translation


def align_similarity(gt: np.ndarray, est: np.ndarray, fix_scale: bool = False,
                     trim_outliers: bool = True) -> AlignmentResult:
    """Fit the similarity transform, optionally trimming residual outliers.

    Trimming runs two rounds: fit, gate residual distances at
    ``median + _MAD_K * MAD``, refit on survivors.  At least half the
    pairs (rounded up) always survive; if gating would cut deeper, the
    smallest-residual half is kept instead.
    """
    gt = np.asarray(gt, dtype=float)
    est = np.asarray(est, dtype=float)
    if gt.shape != est.shape or gt.ndim != 2 or gt.shape[1] != 2:
        raise ValueError(f"expected matching (n, 2) arrays, got {gt.shape} and {est.shape}")
    n = len(gt)
    if n < 2:
        raise ValueError("alignment needs at least two pose pairs")
    keep = np.ones(n, dtype=bool)
    rounds = 2 if trim_outliers else 0
    for _ in range(rounds):
        scale, theta, t = _similarity_fit(gt[keep], est[keep], fix_scale)
        R = rot2(theta)
        resid = np.linalg.norm(gt - (scale * (est @ R.T) + t), axis=1)
        med = median(resid[keep])
        mad = median(np.abs(resid[keep] - med))
        # Floor keeps the gate above float noise when residuals are ~0.
        gate = med + _MAD_K * max(float(mad), 1e-12)
        new_keep = resid <= gate
        min_keep = int(np.ceil(n / 2))
        if new_keep.sum() < min_keep:
            order = np.argsort(resid, kind="stable")
            new_keep = np.zeros(n, dtype=bool)
            new_keep[order[:min_keep]] = True
        if new_keep.sum() < 2:
            break
        keep = new_keep
    scale, theta, t = _similarity_fit(gt[keep], est[keep], fix_scale)
    R = rot2(theta)
    resid = np.linalg.norm(gt - (scale * (est @ R.T) + t), axis=1)
    rmse = float(np.sqrt(np.mean(resid[keep] ** 2)))
    return AlignmentResult(scale, theta, t, keep, rmse)


def match_by_frame(gt: Trajectory, est: Trajectory,
                   frames: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pair poses by frame index.

    Returns (frames, gt_xy, est_xy, gt_yaw, est_yaw) over the frames
    present in both trajectories (optionally restricted to ``frames``).
    """
    n = min(len(gt), len(est))
    idx = np.arange(n)
    if frames is not None:
        frames = np.asarray(frames, dtype=int)
        idx = frames[(frames >= 0) & (frames < n)]
    return idx, gt.xy[idx], est.xy[idx], gt.yaw[idx], est.yaw[idx]


def evaluate(gt: Trajectory, est: Trajectory, frames: np.ndarray | None = None,
             trim_outliers: bool = True) -> tuple[EvalReport, AlignmentResult]:
    """Full evaluation of an estimated trajectory against ground truth.

    ``frames`` restricts the comparison to a subset of frame indices
    (e.g. capture frames).  Coverage is the fraction of requested pairs
    that exist in both trajectories.
    """
    requested = len(frames) if frames is not None else max(len(gt), len(est))
    idx, gt_xy, est_xy, gt_yaw, est_yaw = match_by_frame(gt, est, frames)
    if len(idx) < 2:
        raise ValueError("evaluation needs at least two matched poses")
    free = align_similarity(gt_xy, est_xy, fix_scale=False, trim_outliers=trim_outliers)
    keep = free.inliers
    metric = align_similarity(gt_xy[keep], est_xy[keep], fix_scale=True, trim_outliers=False)
    yaw_err = wrap_angle(est_yaw[keep] + free.rotation - gt_yaw[keep])
    report = EvalReport(
        rte=free.rmse,
        rte_metric=metric.rmse,
        rre=float(np.mean(np.abs(yaw_err))),
        coverage=float(len(idx) / requested) if requested else 0.0,
        n_pairs=int(len(idx)),
        n_inliers=int(keep.sum()),
    )
    return report, free


def save_report(report: EvalReport, path, extra: dict | None = None) -> None:
    payload = {
        "rte": report.rte,
        "rte_metric": report.rte_metric,
        "rre": report.rre,
        "coverage": report.coverage,
        "n_pairs": report.n_pairs,
        "n_inliers": report.n_inliers,
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)


def save_residuals(frames: np.ndarray, gt_xy: np.ndarray, est_xy: np.ndarray,
                   gt_yaw: np.ndarray, est_yaw: np.ndarray,
                   alignment: AlignmentResult, path) -> None:
    aligned = apply_alignment(est_xy, alignment)
    delta = gt_xy - aligned
    dist = np.linalg.norm(delta, axis=1)
    yaw_err = wrap_angle(est_yaw + alignment.rotation - gt_yaw)
    write_csv(path, RESIDUAL_CSV_HEADER,
              [np.asarray(frames, dtype=int), *delta.T, dist, yaw_err])
