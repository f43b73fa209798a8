"""Velocity holding, integration, capture scheduling, trajectory IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepnav as sn
from sweepnav.geometry import wrap_angle

from .oracles import capture_schedule_ref, line_trajectory, turn_in_place_trajectory


class TestTrajectoryType:
    def test_non_uniform_spacing_rejected(self):
        t = np.array([0.0, 0.02, 0.05])
        with pytest.raises(ValueError):
            sn.Trajectory(t, np.zeros((3, 2)), np.zeros(3), 50.0)

    def test_pose_and_path_length(self):
        traj = line_trajectory(speed=0.5, n_frames=101)
        assert traj.path_length() == pytest.approx(1.0, abs=1e-12)
        p = traj.pose(100)
        assert isinstance(p, sn.Pose2)
        assert p.x == pytest.approx(1.0, abs=1e-12)

    def test_pose_wraps_yaw(self):
        assert sn.Pose2(0.0, 0.0, 0.0, 7.0).yaw == pytest.approx(7.0 - 2.0 * np.pi)

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        traj = sn.Trajectory(np.arange(30) / 50.0, rng.normal(size=(30, 2)),
                             rng.uniform(-3, 3, 30), 50.0)
        path = tmp_path / "traj.csv"
        sn.save_trajectory(traj, path)
        back = sn.load_trajectory(path)
        assert np.array_equal(back.t, traj.t)
        assert np.array_equal(back.xy, traj.xy)
        assert np.array_equal(back.yaw, traj.yaw)
        assert back.frame_rate == pytest.approx(50.0)


def _held_ref(v, starts, n_frames, tau):
    """The centre rule one frame at a time: the step into frame f >= 1
    takes the window whose centre step start + (tau - 1) / 2 is nearest
    to f - 1, or the mean of the two equally near; frame 0 copies frame 1."""
    held = np.empty((n_frames, 2))
    for f in range(n_frames):
        dist = [abs(2 * (max(f, 1) - 1) - (2 * s + tau - 1)) for s in starts]
        near = [i for i, d in enumerate(dist) if d == min(dist)]
        held[f] = v[near[0]] if len(near) == 1 else 0.5 * (v[near[0]] + v[near[1]])
    return held


class TestHeldVelocities:
    def test_frames_hold_the_latest_window_estimate(self):
        """At stride = tau each window covers the steps of its own span; frame 0
        mirrors frame 1 so integration has a velocity everywhere."""
        held = sn.held_velocities(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 64], 129, 64)
        assert held.shape == (129, 2)
        assert np.all(held[0] == [1.0, 0.0])
        assert np.all(held[1:65] == [1.0, 0.0])
        assert np.all(held[65:] == [0.0, 1.0])

    @pytest.mark.parametrize("n_frames", [1, 2, 63, 64, 65, 200, 641])
    def test_stride_tau_keeps_the_latest_window_started(self, n_frames):
        """At stride = tau no two centres are equally near a step, and
        frame f >= 1 holds the last window started at or before f - 1 (the
        first if none has): the assignment of the start rule before it."""
        v = np.random.default_rng(n_frames).normal(size=(8, 2))
        starts = 64 * np.arange(8)
        ref = np.empty((n_frames, 2))
        for f in range(n_frames):
            ref[f] = v[max(i for i in range(8) if starts[i] <= max(f - 1, 0))]
        assert np.array_equal(sn.held_velocities(v, starts, n_frames, 64), ref)

    def test_odd_stride_takes_the_mean_of_two_equally_near_windows(self):
        """Centres 1.5, 2.5 and 3.5: steps 2 and 3 lie halfway between two."""
        v = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
        held = sn.held_velocities(v, [0, 1, 2], 6, 4)
        assert held.tolist() == [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0],
                                 [0.5, 0.5], [1.5, 2.0], [3.0, 3.0]]

    def test_last_frames_take_the_last_window(self):
        """Centres 31.5, ..., 61.5, 71.5: from step 67, nearer 71.5 than
        61.5, to the end of the recording, every step takes the last window."""
        v = np.random.default_rng(4).normal(size=(5, 2))
        held = sn.held_velocities(v, 10 * np.arange(5), 300, 64)
        assert np.all(held[68:] == v[-1])
        assert np.all(held[67] == v[-2])

    @pytest.mark.parametrize("stride", [1, 5, 16, 64])
    def test_frame_zero_mirrors_frame_one(self, stride):
        v = np.random.default_rng(stride).normal(size=(20, 2))
        held = sn.held_velocities(v, stride * np.arange(20), 400, 64)
        assert np.array_equal(held[0], held[1])

    def test_order_of_estimates_does_not_matter(self):
        held = sn.held_velocities(np.array([[0.0, 1.0], [1.0, 0.0]]), [64, 0], 129, 64)
        np.testing.assert_allclose(held[1], [1.0, 0.0])
        np.testing.assert_allclose(held[65], [0.0, 1.0])

    @pytest.mark.parametrize("n_frames", [1, 2, 5, 40, 100])
    def test_matches_the_per_frame_definition(self, n_frames):
        """Unordered starts at any spacing, odd and even window lengths."""
        rng = np.random.default_rng(n_frames)
        for tau in (1, 4, 7, 16, 64):
            starts = rng.choice(60, size=7, replace=False)
            v = rng.normal(size=(7, 2))
            ref = _held_ref(v, starts, n_frames, tau)
            assert np.array_equal(sn.held_velocities(v, starts, n_frames, tau), ref)

    def test_shape_mismatch_and_empty_input_are_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 2\) velocities"):
            sn.held_velocities(np.ones((3, 2)), [0, 64], 10, 64)
        with pytest.raises(ValueError, match="no velocity estimates"):
            sn.held_velocities(np.empty((0, 2)), [], 10, 64)


class TestIntegrate:
    def test_constant_velocity_straight_line(self):
        """1 m/s east for 2 s lands at (2, 0)."""
        n = 101
        v = np.tile([1.0, 0.0], (n, 1))
        traj = sn.integrate(v, np.zeros(n), frame_rate=50.0)
        np.testing.assert_allclose(traj.xy[-1], [2.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(traj.xy[0], [0.0, 0.0])
        assert len(traj) == n

    def test_two_window_turn(self):
        """One window east then one window north ends at (1.28, 1.28)."""
        held = sn.held_velocities(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 64], 129, 64)
        traj = sn.integrate(held, np.zeros(129), frame_rate=50.0)
        np.testing.assert_allclose(traj.xy[-1], [1.28, 1.28], rtol=0, atol=1e-12)

    def test_held_array_must_cover_every_frame(self):
        with pytest.raises(ValueError, match=r"\(10, 2\) velocities"):
            sn.integrate(np.ones((9, 2)), np.zeros(10))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
           rate=st.sampled_from([50.0, 100.0, 30.0]))
    def test_matches_riemann_sum_when_observations_are_trusted(self, n, seed, rate):
        """Each step adds its held velocity over one frame period: the
        positions are the running sum, bit for bit, and ``held[0]`` is
        never read."""
        held = np.random.default_rng(seed).normal(size=(n, 2))
        ref = np.vstack([[0.0, 0.0], np.cumsum(held[1:] / rate, axis=0)])
        traj = sn.integrate(held, np.zeros(n), frame_rate=rate)
        assert traj.xy.tobytes() == ref.tobytes()
        held[0] = np.nan
        assert sn.integrate(held, np.zeros(n), frame_rate=rate).xy.tobytes() == ref.tobytes()

    def test_origin_and_clock_offsets(self):
        """Positions start at the origin; the clock starts at ``t0``."""
        v = np.zeros((10, 2))
        traj = sn.integrate(v, np.zeros(10), t0=2.5)
        assert not traj.xy.any()
        assert traj.t[0] == pytest.approx(2.5)

    def test_yaws_are_carried_through(self):
        yaws = np.linspace(0.0, 1.0, 10)
        traj = sn.integrate(np.zeros((10, 2)), yaws)
        np.testing.assert_allclose(traj.yaw, yaws, atol=1e-12)


class TestCaptureSchedule:
    def test_every_metre_on_a_five_metre_run(self):
        """5 m at 0.5 m/s with a 1 m gate: the start plus five more."""
        traj = line_trajectory(speed=0.5, n_frames=501)
        caps = sn.capture_schedule(traj, distance_m=1.0)
        assert [c.frame for c in caps] == [0, 100, 200, 300, 400, 500]
        assert caps[0].trigger == "first"
        assert all(c.trigger == "distance" for c in caps[1:])

    def test_turn_in_place_200_degrees(self):
        """A 200 degree spin with a 90 degree gate captures twice more."""
        traj = turn_in_place_trajectory(np.deg2rad(200.0), n_frames=201)
        caps = sn.capture_schedule(traj, distance_m=1.0, rotation_rad=np.pi / 2)
        assert [c.frame for c in caps] == [0, 90, 180]
        assert [c.trigger for c in caps] == ["first", "rotation", "rotation"]

    def test_stationary_run_captures_once(self):
        traj = sn.Trajectory(np.arange(100) / 50.0, np.zeros((100, 2)),
                             np.zeros(100), 50.0)
        caps = sn.capture_schedule(traj)
        assert len(caps) == 1 and caps[0].frame == 0

    def test_single_gate_modes(self):
        """An infinite threshold never fires, which leaves the other gate
        alone: eval's distance grid passes rotation_rad=inf."""
        traj = turn_in_place_trajectory(np.deg2rad(200.0), n_frames=201)
        assert len(sn.capture_schedule(traj, rotation_rad=np.inf)) == 1
        assert len(sn.capture_schedule(traj, distance_m=np.inf)) == 3

    def test_spacing_invariant_on_simulated_sweep(self, default_sim_traj):
        """Between consecutive captures neither accumulator reaches its
        gate early, and each capture's trigger names a gate that fired."""
        d, th = 1.0, np.pi / 2
        caps = sn.capture_schedule(default_sim_traj, distance_m=d, rotation_rad=th)
        assert caps[0].frame == 0
        xy, yaw = default_sim_traj.xy, default_sim_traj.yaw
        for a, b in zip(caps, caps[1:]):
            seg = np.linalg.norm(np.diff(xy[a.frame:b.frame + 1], axis=0), axis=1)
            rot = np.abs(wrap_angle(np.diff(yaw[a.frame:b.frame + 1])))
            dist_cum, rot_cum = seg.cumsum(), rot.cumsum()
            # strictly below both gates at every frame before the capture
            assert np.all(dist_cum[:-1] < d) and np.all(rot_cum[:-1] < th)
            fired_dist = dist_cum[-1] >= d * (1 - 1e-9)
            fired_rot = rot_cum[-1] >= th * (1 - 1e-9)
            assert fired_dist or fired_rot
            assert fired_dist if b.trigger == "distance" else fired_rot

    def test_rigid_motion_equivariance(self, default_sim_traj):
        """Translating or rotating the whole path never moves a capture."""
        base = [c.frame for c in sn.capture_schedule(default_sim_traj)]
        shifted = sn.Trajectory(
            default_sim_traj.t, default_sim_traj.xy + [10.0, -5.0],
            default_sim_traj.yaw, default_sim_traj.frame_rate,
        )
        assert [c.frame for c in sn.capture_schedule(shifted)] == base
        c, s = np.cos(0.7), np.sin(0.7)
        rot_xy = default_sim_traj.xy @ np.array([[c, s], [-s, c]])
        rotated = sn.Trajectory(
            default_sim_traj.t, rot_xy,
            wrap_angle(default_sim_traj.yaw + 0.7), default_sim_traj.frame_rate,
        )
        assert [c.frame for c in sn.capture_schedule(rotated)] == base

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
           step=st.sampled_from([0.0, 0.01, 0.3]), turn=st.sampled_from([0.0, 0.05, 2.0]),
           distance=st.sampled_from([0.05, 0.5, 1.0, np.inf]),
           rotation=st.sampled_from([0.1, np.pi / 2, 3.0, np.inf]))
    def test_matches_per_frame_reference(self, n, seed, step, turn, distance, rotation):
        """Random walks with stops, wrapping yaw, and single-gate schedules."""
        rng = np.random.default_rng(seed)
        steps = rng.normal(scale=step, size=(n, 2))
        steps[rng.random(n) < 0.3] = 0.0
        xy = np.cumsum(steps, axis=0)
        yaw = np.cumsum(rng.normal(scale=turn, size=n))
        traj = sn.Trajectory(np.arange(n) / 50.0, xy, yaw, 50.0)
        got = sn.capture_schedule(traj, distance, rotation)
        assert got == capture_schedule_ref(traj, distance, rotation)

    def test_image_ids_are_zero_padded(self):
        assert sn.image_id_for_frame(42) == "img_000042"

    def test_capture_log_round_trip(self, tmp_path, default_sim_traj):
        from sweepnav.trajectory import load_captures, save_captures

        caps = sn.capture_schedule(default_sim_traj)
        path = tmp_path / "captures.jsonl"
        save_captures(caps, path)
        back = load_captures(path)
        assert len(back) == len(caps)
        assert all(a.frame == b.frame and a.trigger == b.trigger
                   for a, b in zip(caps, back))
        np.testing.assert_allclose([c.pose.x for c in back], [c.pose.x for c in caps])
