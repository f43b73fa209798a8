"""Tests for the coverage-run simulator: sweep paths, IMU synthesis, scenes."""

import math

import numpy as np
import pytest

import sweepnav as sn
from sweepnav.estimator import OracleConfig, OracleVelocityEstimator, estimate_velocity
from sweepnav.object_map import observe_items
from sweepnav.sim import default_items

from .oracles import quantization_bound


class TestSweepPath:
    def test_loop_closes_by_construction(self, default_sim_traj):
        traj = default_sim_traj
        np.testing.assert_allclose(traj.xy[0], [0.0, 0.0], atol=1e-12)
        assert np.linalg.norm(traj.xy[-1] - traj.xy[0]) <= 1e-9

    def test_small_room_also_closes(self):
        traj = sn.generate_trajectory(
            sn.SimConfig(room_width=0.5, room_height=0.5, row_spacing=0.5))
        assert np.linalg.norm(traj.xy[-1] - traj.xy[0]) <= 1e-9

    def test_rows_swept_at_spacing(self, default_sim_traj):
        """A 4 m x 2 m room at 1 m spacing is swept on rows y = 0, 1, 2."""
        traj = default_sim_traj
        for j, min_span in [(0, 3.9), (1, 3.9), (2, 3.4)]:
            on_row = np.abs(traj.xy[:, 1] - j) < 1e-9
            assert on_row.sum() > 50
            span = traj.xy[on_row, 0].max() - traj.xy[on_row, 0].min()
            assert span >= min_span

    def test_path_length_matches_geometry(self, default_sim_traj):
        # rows 4 + 4 + 3.5, return wall-follow 1 + 3.5, two half turns
        # and two quarter turns of radius 0.5
        expected = 16.0 + 1.5 * math.pi * 0.5 * 2
        assert default_sim_traj.path_length() == pytest.approx(expected, rel=1e-4)

    def test_stays_inside_turn_envelope(self, default_sim_traj):
        xy = default_sim_traj.xy
        assert xy[:, 0].min() >= -0.5 - 1e-9 and xy[:, 0].max() <= 4.5 + 1e-9
        assert xy[:, 1].min() >= -1e-9 and xy[:, 1].max() <= 2.0 + 1e-9

    def test_frame_timing(self, default_sim_traj):
        traj = default_sim_traj
        assert traj.frame_rate == 50.0
        np.testing.assert_allclose(np.diff(traj.t), 0.02, atol=1e-12)

    def test_stop_and_turn_variant_closes_with_stationary_spins(self):
        cfg = sn.SimConfig(turn_model="stop_and_turn")
        traj = sn.generate_trajectory(cfg)
        assert np.linalg.norm(traj.xy[-1] - traj.xy[0]) <= 1e-9
        steps = np.linalg.norm(np.diff(traj.xy, axis=0), axis=1)
        turning = np.abs(np.diff(np.unwrap(traj.yaw))) > 1e-9
        stationary_turn = (steps < 1e-12) & turning
        assert stationary_turn.sum() > 50

    def test_config_validation(self):
        with pytest.raises(ValueError, match="row_spacing must not exceed room_height"):
            sn.SimConfig(room_height=0.5, row_spacing=1.0)
        with pytest.raises(ValueError, match="turn radius"):
            sn.SimConfig(room_width=0.2, room_height=3.0, row_spacing=1.0)
        with pytest.raises(ValueError, match="positive"):
            sn.SimConfig(speed=0.0)
        with pytest.raises(ValueError, match="turn_model"):
            sn.SimConfig(turn_model="teleport")


class TestImuSynthesis:
    def test_straight_rows_read_gravity_only(self, default_sim_traj, clean_imu):
        traj, imu = default_sim_traj, clean_imu
        mid_row = (np.abs(traj.xy[:, 1]) < 1e-9) & (traj.xy[:, 0] > 1.0) & (traj.xy[:, 0] < 3.0)
        expected = np.broadcast_to([0.0, 0.0, 9.81], imu.acc[mid_row].shape)
        np.testing.assert_allclose(imu.acc[mid_row], expected, atol=1e-9)
        np.testing.assert_allclose(imu.gyro[mid_row], np.zeros_like(expected), atol=1e-9)

    def test_arc_reads_centripetal_and_yaw_rate(self, default_sim_traj, clean_imu):
        """On a half-circle turn at speed v and rate w the device frame
        sees a lateral acceleration v * w and a z rate w.  Frame times
        are stretched by up to half a period to close the loop exactly,
        so the rates sit within ~2e-4 of nominal rather than exactly on it."""
        traj, imu = default_sim_traj, clean_imu
        deep_in_arc = traj.xy[:, 0] > 4.3
        assert deep_in_arc.sum() > 10
        np.testing.assert_allclose(imu.gyro[deep_in_arc, 2], 1.0, atol=5e-4)
        np.testing.assert_allclose(imu.acc[deep_in_arc, 0], 0.0, atol=1e-3)
        np.testing.assert_allclose(imu.acc[deep_in_arc, 1], 0.5, atol=1e-3)
        np.testing.assert_allclose(imu.acc[deep_in_arc, 2], 9.81, atol=1e-12)

    def test_bias_added_verbatim(self, default_sim_traj):
        cfg = sn.SimConfig(acc_bias=(0.05, 0.02, 0.0), gyro_bias=(0.0, 0.0, 0.001))
        imu = sn.synthesize_imu(default_sim_traj, cfg)
        traj = default_sim_traj
        mid_row = (np.abs(traj.xy[:, 1]) < 1e-9) & (traj.xy[:, 0] > 1.0) & (traj.xy[:, 0] < 3.0)
        np.testing.assert_allclose(
            imu.acc[mid_row], np.broadcast_to([0.05, 0.02, 9.81], imu.acc[mid_row].shape),
            atol=1e-9)
        np.testing.assert_allclose(
            imu.gyro[mid_row], np.broadcast_to([0.0, 0.0, 0.001], imu.gyro[mid_row].shape),
            atol=1e-9)

    def test_noise_reproducible_per_seed(self, default_sim_traj):
        cfg = sn.SimConfig(acc_noise=0.05, gyro_noise=0.002, seed=3)
        a = sn.synthesize_imu(default_sim_traj, cfg)
        b = sn.synthesize_imu(default_sim_traj, cfg)
        assert np.array_equal(a.acc, b.acc) and np.array_equal(a.gyro, b.gyro)
        c = sn.synthesize_imu(default_sim_traj, sn.SimConfig(acc_noise=0.05,
                                                             gyro_noise=0.002, seed=4))
        assert not np.array_equal(a.acc, c.acc)

    def test_rate_mismatch_rejected(self, default_sim_traj):
        with pytest.raises(ValueError, match="differs"):
            sn.synthesize_imu(default_sim_traj, sn.SimConfig(sample_rate_hz=100.0))

    def test_short_trajectory_rejected(self):
        traj = sn.Trajectory(np.array([0.0, 0.02]), np.zeros((2, 2)),
                             np.zeros(2), 50.0)
        with pytest.raises(ValueError, match="too short"):
            sn.synthesize_imu(traj, sn.SimConfig())

    def test_true_orientations_carry_the_yaw(self, default_sim_traj):
        orients = sn.true_orientations(default_sim_traj)
        yaw = sn.relative_yaw(orients)
        expected = sn.wrap_angle(default_sim_traj.yaw - default_sim_traj.yaw[0])
        np.testing.assert_allclose(sn.wrap_angle(yaw - expected), 0.0, atol=1e-12)


class TestZeroNoiseRoundTrip:
    def test_pipeline_recovers_the_sweep(self, default_sim_traj, clean_imu):
        """Noise-free IMU through orientation, windowing, the ground-truth
        estimator double and integration lands near the true path."""
        traj, imu = default_sim_traj, clean_imu
        orients = sn.estimate_orientation(imu)
        hacf = sn.to_hacf(imu, orients)
        windows = sn.make_windows(hacf, tau=64)
        starts = 64 * np.arange(len(windows))
        model = OracleVelocityEstimator(traj)
        est = estimate_velocity(windows, starts, [0.0], model)
        held = sn.held_velocities(est.v[:, 0], starts, len(imu), 64)
        est_traj = sn.integrate(held, sn.relative_yaw(orients), frame_rate=traj.frame_rate)
        report, _ = sn.evaluate(traj, est_traj)
        assert report.rte_metric < 0.05
        assert report.rre < 0.02
        assert report.coverage == 1.0


class TestScene:
    def _capture(self, x, y, yaw, frame=0):
        return sn.CaptureEvent(frame, sn.Pose2(frame / 50.0, x, y, yaw), "distance")

    def test_item_ahead_is_captioned_at_its_depth(self):
        cfg = sn.SimConfig()
        captures = [self._capture(1.0, 1.0, 0.0)]
        rasters, records, gt = sn.generate_scene(captures, {"milk": (3.0, 1.0)}, cfg)
        assert records[0].items == ("milk",)
        assert records[0].image_id == "img_000000"
        assert rasters[0].depth[24, 31] == 2.0
        np.testing.assert_array_equal(gt["milk"], [3.0, 1.0, 0.3])

    def test_observation_chain_is_exact_on_axis(self):
        cfg = sn.SimConfig()
        captures = [self._capture(1.0, 1.0, 0.0)]
        rasters, records, _ = sn.generate_scene(captures, {"milk": (3.0, 1.0)}, cfg)
        obs = observe_items(records[0], rasters[0], captures[0].pose)
        assert len(obs) == 1
        np.testing.assert_allclose(obs[0].point, [3.0, 1.0, 0.3], atol=1e-9)

    def test_item_behind_camera_not_captioned(self):
        cfg = sn.SimConfig()
        captures = [self._capture(1.0, 1.0, 0.0)]
        _, records, _ = sn.generate_scene(captures, {"milk": (0.5, 1.0)}, cfg)
        assert records[0].items == ()

    def test_caption_cone_and_depth_band(self):
        cfg = sn.SimConfig()
        pose = self._capture(0.3, 1.0, 0.0)
        off_axis = (2.3, 1.0 + 2.0 * math.tan(0.025))  # outside the 0.02 rad cone
        too_far = (3.8, 1.0)  # 3.5 m ahead, beyond the 3 m caption band
        in_cone = (2.3, 1.0 + 2.0 * math.tan(0.01))
        _, records, _ = sn.generate_scene(
            [pose], {"a": off_axis, "b": too_far, "c": in_cone}, cfg)
        assert records[0].items == ("c",)

    def test_near_item_occludes_far_one(self):
        cfg = sn.SimConfig()
        captures = [self._capture(1.0, 1.0, 0.0)]
        _, records, _ = sn.generate_scene(
            captures, {"near": (2.0, 1.0), "far": (3.5, 1.0)}, cfg)
        assert records[0].items == ("near",)

    def test_ground_truth_keys_normalized(self):
        cfg = sn.SimConfig()
        _, _, gt = sn.generate_scene([self._capture(1.0, 1.0, 0.0)],
                                     {"Milk Jug!": (2.0, 1.0)}, cfg)
        assert list(gt) == ["milk jug"]

    def test_item_outside_room_rejected(self):
        cfg = sn.SimConfig()
        with pytest.raises(ValueError, match="outside the room"):
            sn.generate_scene([self._capture(1.0, 1.0, 0.0)], {"x": (9.0, 1.0)}, cfg)

    def test_walls_give_background_depth(self):
        cfg = sn.SimConfig()
        rasters, _, _ = sn.generate_scene([self._capture(1.0, 1.0, 0.0)], {}, cfg)
        # facing +x from x=1: the far wall sits at 4 + 1 margin
        assert rasters[0].depth[24, 31] == pytest.approx(4.0, abs=1e-9)

    def test_quantization_bound_value(self):
        assert quantization_bound() == pytest.approx(0.06)


class TestDefaultItems:
    def test_items_on_row_lines_inside_room(self):
        cfg = sn.SimConfig()
        items = default_items(cfg)
        assert len(items) == 10
        for x, y in items.values():
            assert 0.0 <= x <= cfg.room_width
            assert y in (0.0, 1.0, 2.0)

    def test_deterministic_per_seed(self):
        assert (default_items(sn.SimConfig(n_items=6, seed=1))
                == default_items(sn.SimConfig(n_items=6, seed=1)))
        assert (default_items(sn.SimConfig(n_items=6, seed=1))
                != default_items(sn.SimConfig(n_items=6, seed=2)))


class TestMappingEndToEnd:
    def test_sweep_captures_localize_items_within_pixel_bound(self, default_sim_traj):
        """Items captioned from true sweep poses land within the pixel
        quantization bound of their true positions."""
        cfg = sn.SimConfig(n_items=4)
        items = default_items(cfg)
        captures = sn.capture_schedule(default_sim_traj, distance_m=0.5)
        rasters, records, gt = sn.generate_scene(captures, items, cfg)
        observations = []
        for ev, raster, record in zip(captures, rasters, records):
            if record.items:
                observations.extend(observe_items(record, raster, ev.pose))
        clusters = sn.cluster_items(observations)
        report = sn.evaluate_map(clusters, gt)
        assert report.n_matched == 4
        assert report.unmatched_gt == ()
        assert report.mean_error <= quantization_bound() + 1e-9
