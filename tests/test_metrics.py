"""Tests for trajectory alignment and evaluation metrics."""

import json

import numpy as np
import pytest

import sweepnav as sn
from sweepnav.metrics import (
    RESIDUAL_CSV_HEADER,
    align_similarity,
    apply_alignment,
    evaluate,
    match_by_frame,
    save_report,
    save_residuals,
)

from .oracles import apply_similarity_ref, random_similarity


def _cloud(seed, n=40, scale=2.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, (n, 2))


def _traj_from(xy, yaw=None, rate=50.0):
    xy = np.asarray(xy, dtype=float)
    n = len(xy)
    if yaw is None:
        yaw = np.zeros(n)
    return sn.Trajectory(np.arange(n) / rate, xy, np.asarray(yaw, dtype=float), rate)


def _lsq_error(gt, est, scale, rotation, translation):
    c, s = np.cos(rotation), np.sin(rotation)
    R = np.array([[c, -s], [s, c]])
    resid = gt - (scale * (est @ R.T) + translation)
    return float((resid ** 2).sum())


class TestAlignSimilarity:
    def test_identity_on_equal_inputs(self):
        pts = _cloud(0)
        result = align_similarity(pts, pts)
        np.testing.assert_allclose(result.scale, 1.0, atol=1e-12)
        np.testing.assert_allclose(result.rotation, 0.0, atol=1e-12)
        np.testing.assert_allclose(result.translation, [0.0, 0.0], atol=1e-12)
        assert result.inliers.all()
        assert result.rmse < 1e-12

    def test_recovers_known_transform(self):
        est = _cloud(1)
        theta = np.pi / 6
        c, s = np.cos(theta), np.sin(theta)
        gt = 2.0 * (est @ np.array([[c, -s], [s, c]]).T) + [1.0, 2.0]
        result = align_similarity(gt, est)
        np.testing.assert_allclose(result.scale, 2.0, atol=1e-9)
        np.testing.assert_allclose(result.rotation, theta, atol=1e-9)
        np.testing.assert_allclose(result.translation, [1.0, 2.0], atol=1e-9)

    def test_recovers_random_transforms(self):
        """Any similarity in scale range [0.5, 2] is recovered to 1e-9."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            est = rng.normal(0.0, 3.0, (30, 2))
            scale, theta, t = random_similarity(rng)
            gt = apply_similarity_ref(est, scale, theta, t)
            result = align_similarity(gt, est)
            np.testing.assert_allclose(result.scale, scale, atol=1e-9)
            np.testing.assert_allclose(
                sn.wrap_angle(result.rotation - theta), 0.0, atol=1e-9)
            np.testing.assert_allclose(result.translation, t, atol=1e-9)
            np.testing.assert_allclose(apply_alignment(est, result), gt, atol=1e-9)

    def test_fixed_scale_never_beats_free_scale(self):
        est = _cloud(2)
        gt = apply_similarity_ref(est, 1.7, 0.4, np.array([0.5, -0.3]))
        free = align_similarity(gt, est)
        fixed = align_similarity(gt, est, fix_scale=True)
        assert fixed.scale == 1.0
        assert fixed.rmse >= free.rmse

    def test_optimum_beats_nearby_transforms(self):
        """Nudging any single component of the fit by 1e-3 increases the
        squared error on the inlier set."""
        rng = np.random.default_rng(3)
        est = _cloud(3)
        gt = apply_similarity_ref(est, 1.3, -0.7, np.array([2.0, 1.0]))
        gt = gt + rng.normal(0.0, 0.05, gt.shape)
        result = align_similarity(gt, est)
        keep = result.inliers
        base = _lsq_error(gt[keep], est[keep], result.scale, result.rotation,
                          result.translation)
        for ds, dth, dt in [
            (1e-3, 0.0, [0.0, 0.0]), (-1e-3, 0.0, [0.0, 0.0]),
            (0.0, 1e-3, [0.0, 0.0]), (0.0, -1e-3, [0.0, 0.0]),
            (0.0, 0.0, [1e-3, 0.0]), (0.0, 0.0, [-1e-3, 0.0]),
            (0.0, 0.0, [0.0, 1e-3]), (0.0, 0.0, [0.0, -1e-3]),
        ]:
            perturbed = _lsq_error(gt[keep], est[keep], result.scale + ds,
                                   result.rotation + dth,
                                   result.translation + np.asarray(dt))
            assert perturbed >= base - 1e-12

    def test_coincident_estimate_rejected(self):
        gt = _cloud(4)
        est = np.zeros_like(gt)
        with pytest.raises(ValueError, match="coincident"):
            align_similarity(gt, est)

    def test_noisy_pairs_mostly_retained(self):
        """With pure iid noise and no outliers the MAD gate at k=3 keeps
        at least 95 of 100 pairs."""
        rng = np.random.default_rng(7)
        gt = rng.normal(0.0, 3.0, (100, 2))
        est = gt + rng.normal(0.0, 0.05, (100, 2))
        assert align_similarity(gt, est).inliers.sum() >= 95

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            align_similarity(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            align_similarity(np.zeros((5, 2)), np.zeros((4, 2)))


class TestEvaluate:
    def test_identical_trajectories_score_zero(self):
        traj = _traj_from(_cloud(10), yaw=np.linspace(-1.0, 1.0, 40))
        report, alignment = evaluate(traj, traj)
        assert report.rte < 1e-12
        assert report.rte_metric < 1e-12
        assert report.rre < 1e-12
        assert report.coverage == 1.0
        assert report.n_pairs == 40
        assert report.n_inliers == 40
        np.testing.assert_allclose(alignment.scale, 1.0, atol=1e-12)

    def test_uniform_scaling_only_hits_metric_variant(self):
        xy = _cloud(11)
        gt = _traj_from(xy)
        est = _traj_from(1.5 * xy)
        report, _ = evaluate(gt, est)
        assert report.rte < 1e-9
        assert report.rte_metric > 0.1

    def test_global_rotation_absorbed(self):
        xy = _cloud(12)
        yaw = np.linspace(-2.0, 2.0, 40)
        theta = np.deg2rad(10.0)
        c, s = np.cos(theta), np.sin(theta)
        est_xy = xy @ np.array([[c, -s], [s, c]]).T
        gt = _traj_from(xy, yaw=yaw)
        est = _traj_from(est_xy, yaw=sn.wrap_angle(yaw + theta))
        report, _ = evaluate(gt, est)
        assert report.rte < 1e-9
        assert report.rre < 1e-9

    def test_per_pose_yaw_bias_survives_alignment(self):
        xy = _cloud(13)
        yaw = np.linspace(-2.0, 2.0, 40)
        gt = _traj_from(xy, yaw=yaw)
        est = _traj_from(xy, yaw=sn.wrap_angle(yaw + 0.1))
        report, _ = evaluate(gt, est)
        np.testing.assert_allclose(report.rre, 0.1, atol=1e-9)

    def test_yaw_errors_wrap_across_pi(self):
        """Yaws of 3.1 and -3.1 differ by 2*pi - 6.2, not 6.2."""
        xy = _cloud(14)
        gt = _traj_from(xy, yaw=np.full(40, -3.1))
        est = _traj_from(xy, yaw=np.full(40, 3.1))
        report, _ = evaluate(gt, est)
        np.testing.assert_allclose(report.rre, 2.0 * np.pi - 6.2, atol=1e-12)
        assert report.rre < 0.1

    def test_rte_invariant_under_similarity_of_estimate(self):
        rng = np.random.default_rng(15)
        xy = _cloud(15)
        yaw = rng.uniform(-np.pi, np.pi, 40)
        gt = _traj_from(xy, yaw=yaw)
        est_xy = xy + rng.normal(0.0, 0.1, xy.shape)
        est = _traj_from(est_xy, yaw=yaw)
        base, _ = evaluate(gt, est)
        scale, theta, t = random_similarity(rng)
        moved = _traj_from(apply_similarity_ref(est_xy, scale, theta, t),
                           yaw=sn.wrap_angle(yaw + theta))
        report, _ = evaluate(gt, moved)
        np.testing.assert_allclose(report.rte, base.rte, atol=1e-9)
        np.testing.assert_allclose(report.rre, base.rre, atol=1e-9)

    def test_rte_metric_invariant_under_rigid_motion_only(self):
        rng = np.random.default_rng(16)
        xy = _cloud(16)
        est_xy = xy + rng.normal(0.0, 0.1, xy.shape)
        gt = _traj_from(xy)
        base, _ = evaluate(gt, _traj_from(est_xy))
        rigid = apply_similarity_ref(est_xy, 1.0, 0.8, np.array([3.0, -2.0]))
        report_rigid, _ = evaluate(gt, _traj_from(rigid))
        np.testing.assert_allclose(report_rigid.rte_metric, base.rte_metric, atol=1e-9)
        scaled = apply_similarity_ref(est_xy, 1.5, 0.8, np.array([3.0, -2.0]))
        report_scaled, _ = evaluate(gt, _traj_from(scaled))
        assert abs(report_scaled.rte_metric - base.rte_metric) > 1e-6

    def test_short_estimate_counts_against_coverage(self):
        xy = _cloud(17)
        gt = _traj_from(xy)
        est = _traj_from(xy[:20])
        report, _ = evaluate(gt, est)
        assert report.coverage == 0.5
        assert report.n_pairs == 20

    def test_frame_subset_restricts_comparison(self):
        xy = _cloud(18)
        gt = _traj_from(xy)
        est_xy = xy.copy()
        est_xy[30:] += 50.0
        frames = np.arange(10)
        report, _ = evaluate(gt, _traj_from(est_xy), frames=frames)
        assert report.coverage == 1.0
        assert report.n_pairs == 10
        assert report.rte < 1e-9

    def test_too_few_matched_poses_rejected(self):
        gt = _traj_from(_cloud(19))
        est = _traj_from(_cloud(19)[:1])
        with pytest.raises(ValueError, match="at least two matched"):
            evaluate(gt, est)


class TestMatchByFrame:
    def test_pairs_over_common_prefix(self):
        gt = _traj_from(_cloud(20))
        est = _traj_from(_cloud(21)[:25])
        idx, gt_xy, est_xy, gt_yaw, est_yaw = match_by_frame(gt, est)
        assert len(idx) == 25
        assert gt_xy.shape == est_xy.shape == (25, 2)

    def test_out_of_range_frames_dropped(self):
        gt = _traj_from(_cloud(22))
        est = _traj_from(_cloud(23))
        idx, *_ = match_by_frame(gt, est, frames=np.array([-1, 0, 5, 200]))
        np.testing.assert_array_equal(idx, [0, 5])


class TestReportFiles:
    def test_report_json_round_trip(self, tmp_path):
        traj = _traj_from(_cloud(24))
        report, _ = evaluate(traj, traj)
        path = tmp_path / "report.json"
        save_report(report, path, extra={"n_captures": 6})
        payload = json.loads(path.read_text())
        assert payload["rte"] == report.rte
        assert payload["rte_metric"] == report.rte_metric
        assert payload["coverage"] == 1.0
        assert payload["n_captures"] == 6

    def test_residual_csv_layout(self, tmp_path):
        xy = _cloud(25)
        yaw = np.linspace(-1.0, 1.0, 40)
        gt = _traj_from(xy, yaw=yaw)
        est = _traj_from(xy + 0.01, yaw=yaw)
        frames, gt_xy, est_xy, gt_yaw, est_yaw = match_by_frame(gt, est)
        alignment = align_similarity(gt_xy, est_xy)
        path = tmp_path / "residuals.csv"
        save_residuals(frames, gt_xy, est_xy, gt_yaw, est_yaw, alignment, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == RESIDUAL_CSV_HEADER
        assert len(lines) == 41
        row = lines[1].split(",")
        assert row[0] == "0"
        assert len(row) == 5
        assert abs(float(row[3])) < 0.05
