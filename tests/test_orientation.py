"""Orientation from the fixed mount and the summed gyro."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepnav as sn
from sweepnav import geometry as geo

from .oracles import estimate_orientation_ref, quat_from_rotvec_ref, quat_multiply_ref


def _seq(acc, gyro, n, rate=100.0):
    t = np.arange(n) / rate
    return sn.ImuSequence(t, np.tile(acc, (n, 1)), np.tile(gyro, (n, 1)))


def _angle(u, v):
    """The angle between two 3-vectors, accurate near zero."""
    return float(np.arctan2(np.linalg.norm(np.cross(u, v)), np.dot(u, v)))


def _up(orients):
    """World +z in the device frame: the mount's, whatever the heading."""
    return geo.quats_to_matrices(orients.mount[None])[0, 2]


class TestGyroIntegration:
    def test_constant_yaw_rate_integrates_exactly(self):
        """2 s at 0.5 rad/s of pure z rotation ends at 1.0 rad of yaw."""
        seq = _seq([0.0, 0.0, 9.81], [0.0, 0.0, 0.5], n=201, rate=100.0)
        orients = sn.estimate_orientation(seq)
        assert orients.heading[-1] == pytest.approx(1.0, abs=1e-3)
        rel = sn.relative_yaw(orients)
        assert rel[0] == 0.0
        assert rel[-1] == pytest.approx(1.0, abs=1e-3)

    def test_quaternions_stay_unit_norm(self, tmp_path):
        """The quaternions ``save_orientations`` writes, heading times
        mount, are unit, at the recording's timestamps."""
        seq = _seq([0.0, 4.0, 9.0], [0.2, 0.1, 0.5], n=500, rate=100.0)
        orients = sn.estimate_orientation(seq)
        path = tmp_path / "orientations.csv"
        sn.save_orientations(orients, path)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(np.linalg.norm(table[:, 1:], axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.array_equal(table[:, 0], seq.t)
        assert not (tmp_path / "orientations.csv.f64").exists()


class TestTiltFromGravity:
    """The tilt comes from gravity alone, never from the gyro."""

    def test_rolled_device_reads_no_acceleration(self):
        """A rolled, motionless device reads zero in the levelled frame."""
        seq = _seq([0.0, 9.81, 0.0], [0.0, 0.0, 0.0], n=100)
        orients = sn.estimate_orientation(seq)
        hacf = sn.to_hacf(seq, orients)
        np.testing.assert_allclose(hacf[0], 0.0, atol=1e-9)

    def test_roll_rate_never_tilts_the_frame(self):
        """A small roll-rate gyro bias cannot tip the levelled frame: the
        gyro alone would tilt it by 0.06 rad in the 60 s."""
        seq = _seq([0.0, 0.0, 9.81], [0.001, 0.0, 0.0], n=6000, rate=100.0)
        hacf = sn.to_hacf(seq, sn.estimate_orientation(seq))
        assert np.abs(hacf[0, -1]).max() < 1e-12


class TestLandscapeMount:
    """A phone in landscape, device x up: the mount pitches it by 90
    degrees, where a ZYX yaw is undefined, and the heading is about x."""

    def test_relative_yaw_is_the_summed_rate(self):
        seq = _seq([9.81, 0.0, 0.0], [0.5, 0.0, 0.0], n=101, rate=100.0)
        yaw = sn.relative_yaw(sn.estimate_orientation(seq))
        np.testing.assert_allclose(yaw[[20, 50, 100]], [0.1, 0.25, 0.5], rtol=0, atol=1e-12)

    def test_frame_is_steady_under_a_nudge_of_gravity(self):
        """Shifting the noisy recording's specific force by 1e-9 m/s^2
        across gravity moves the levelled samples by no more."""
        rng = np.random.default_rng(5)
        n = 500
        noise = rng.normal(scale=0.05, size=(n, 3))
        acc = np.array([9.81, 0.0, 0.0]) + noise - noise.mean(axis=0)
        gyro = rng.normal(scale=[0.3, 0.01, 0.01], size=(n, 3))
        t = np.arange(n) / 50.0

        def hacf(shift):
            seq = sn.ImuSequence(t, acc + shift, gyro)
            return sn.to_hacf(seq, sn.estimate_orientation(seq))

        base = hacf(np.zeros(3))
        for shift in ([0.0, 1e-9, 0.0], [0.0, -1e-9, 0.0], [0.0, 0.0, 1e-9], [0.0, 0.0, -1e-9]):
            assert np.abs(hacf(np.array(shift)) - base).max() < 1e-9


def _sweep(turn_model, room_width=6.5, room_height=2.0):
    """The noise-free ground truth and IMU of a sweep."""
    cfg = sn.SimConfig(room_width=room_width, room_height=room_height, turn_model=turn_model)
    gt = sn.generate_trajectory(cfg)
    return gt, sn.synthesize_imu(gt, cfg)


@pytest.fixture(scope="module", params=["arc", "stop_and_turn"])
def sweep60(request):
    """The 60 s reference room, by turn model."""
    return request.param, *_sweep(request.param)


class TestFixedMount:
    """A device turned on its mount by a fixed roll of 0.2 rad and pitch
    of -0.1 rad records the level device's vectors in its own frame."""

    ROLL, PITCH = 0.2, -0.1

    def _tilt(self, imu):
        """The recording of the turned device, and its true up axis."""
        q = quat_multiply_ref(quat_from_rotvec_ref([0.0, self.PITCH, 0.0]),
                              quat_from_rotvec_ref([self.ROLL, 0.0, 0.0]))
        mount = geo.quats_to_matrices(q[None])[0]  # turned device -> level device
        return sn.ImuSequence(imu.t, imu.acc @ mount, imu.gyro @ mount), mount[2]

    def test_heading_does_not_see_the_tilt(self, sweep60):
        _, _, imu = sweep60
        tilted, _ = self._tilt(imu)
        level = sn.relative_yaw(sn.estimate_orientation(imu))
        turned = sn.relative_yaw(sn.estimate_orientation(tilted))
        np.testing.assert_allclose(geo.wrap_angle(turned - level), 0.0, rtol=0, atol=1e-12)

    def test_up_axis_is_off_by_the_mean_acceleration(self, sweep60):
        """Stop-and-turn starts and ends each leg at rest, so its mean
        acceleration is zero.  On arcs the mean lateral acceleration,
        speed times turned angle over the duration, leans the mean
        specific force by at most its ratio to g."""
        turn_model, gt, imu = sweep60
        tilted, up = self._tilt(imu)
        err = _angle(_up(sn.estimate_orientation(tilted)), up)
        if turn_model == "stop_and_turn":
            assert err < 1e-12
        else:
            duration = gt.t[-1] - gt.t[0]
            speed = np.linalg.norm(np.diff(gt.xy, axis=0), axis=1).sum() / duration
            turned = abs(np.unwrap(gt.yaw)[-1] - gt.yaw[0])
            assert err <= speed * turned / (geo.GRAVITY * duration) + 1e-9

    def test_long_arc_sweep_heading(self):
        """The 350 s sweep of a 20 m x 6 m room, noise-free."""
        gt, imu = _sweep("arc", room_width=20.0, room_height=6.0)
        yaw = sn.relative_yaw(sn.estimate_orientation(imu))
        err = geo.wrap_angle(yaw - (gt.yaw - gt.yaw[0]))
        assert np.abs(err).mean() <= 1e-5


@st.composite
def imu_streams(draw):
    """Short recordings, empty ones too, with non-uniform steps,
    stretches of zero or tiny gyro rate, specific forces tilted, off
    1 g and at zero along an axis with signed zeros off it, and some
    with a zero mean."""
    n = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.cumsum(rng.uniform(0.001, 0.05, n)) - 0.001
    gyro = rng.normal(scale=draw(st.sampled_from([0.01, 0.5, 4.0])), size=(n, 3))
    lo, hi = sorted(draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    gyro[lo:hi] = draw(st.sampled_from([0.0, -0.0, 1e-13, -2e-14]))
    up = rng.normal(size=(n, 3)) * draw(st.sampled_from([0.0, 0.1, 1.0])) + [0.0, 0.0, 1.0]
    acc = geo.GRAVITY * up / np.linalg.norm(up, axis=1, keepdims=True)
    acc *= rng.uniform(0.3, 1.7, (n, 1)) if draw(st.booleans()) else 1.0
    for i in draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []:
        acc[i] = rng.choice([0.0, -0.0], 3)
        acc[i, rng.integers(3)] = rng.choice([-1.0, 0.0, 0.5, 1.5]) * geo.GRAVITY
    if n and draw(st.booleans()):
        acc -= acc.mean(axis=0)
    return sn.ImuSequence(t, acc, gyro)


class TestMatchesPerSampleReference:
    """The array estimate and yaw equal the per-sample recipe: the mount
    from the mean specific force, then one trapezoid step at a time."""

    @settings(max_examples=150, deadline=None)
    @given(seq=imu_streams())
    def test_heading_mount_and_relative_yaw(self, seq):
        got = sn.estimate_orientation(seq)
        psi, mount = estimate_orientation_ref(seq)
        np.testing.assert_allclose(got.heading, psi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.mount, mount, rtol=0, atol=1e-12)
        assert np.array_equal(got.t, seq.t)
        np.testing.assert_allclose(geo.wrap_angle(sn.relative_yaw(got) - psi), 0.0,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("acc, q", [
        ([[9.81, 0.0, 0.0], [-9.81, 0.0, 0.0]], [1.0, 0.0, 0.0, 0.0]),
        ([[0.0, 0.0, -9.81]] * 2, [0.0, 1.0, 0.0, 0.0]),
    ])
    def test_degenerate_mounts(self, acc, q):
        """No mean specific force keeps the identity, and one straight
        down turns half a turn about x."""
        seq = sn.ImuSequence([0.0, 0.02], acc, np.zeros((2, 3)))
        np.testing.assert_array_equal(sn.estimate_orientation(seq).mount, q)
        np.testing.assert_array_equal(estimate_orientation_ref(seq)[1], q)

    @pytest.mark.parametrize("noise", [0.0, 0.02, 1.0])
    def test_simulated_sweep(self, clean_imu, noise):
        """The clean sweep, and the same with accelerometer noise of this
        standard deviation in m/s^2."""
        seq = sn.ImuSequence(clean_imu.t, clean_imu.acc + np.random.default_rng(1).normal(
            scale=noise, size=clean_imu.acc.shape), clean_imu.gyro)
        got = sn.estimate_orientation(seq)
        psi, mount = estimate_orientation_ref(seq)
        np.testing.assert_allclose(got.heading, psi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.mount, mount, rtol=0, atol=1e-12)
        assert np.array_equal(sn.relative_yaw(got), sn.wrap_angle(got.heading))


class TestOrientationSequence:
    def test_far_from_unit_norm_is_an_error(self):
        with pytest.raises(ValueError, match="far from unit norm"):
            sn.OrientationSequence(np.array([0.0, 0.01]), np.zeros(2), [2.0, 0.0, 0.0, 0.0])

    def test_non_finite_timestamp_is_named(self):
        with pytest.raises(ValueError, match="non-finite timestamp at index 0"):
            sn.OrientationSequence(np.array([np.nan, 0.02]), np.zeros(2))
