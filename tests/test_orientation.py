"""Complementary-filter orientation estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepnav as sn
from sweepnav import geometry as geo

from .oracles import (estimate_orientation_ref, quat_identity_ref, quat_normalize_ref,
                      quat_rotate_ref, relative_yaw_ref, same_bits)


def _seq(acc, gyro, n, rate=100.0):
    t = np.arange(n) / rate
    return sn.ImuSequence(t, np.tile(acc, (n, 1)), np.tile(gyro, (n, 1)))


class TestGyroIntegration:
    def test_constant_yaw_rate_integrates_exactly(self):
        """2 s at 0.5 rad/s of pure z rotation ends at 1.0 rad of yaw."""
        seq = _seq([0.0, 0.0, 9.81], [0.0, 0.0, 0.5], n=201, rate=100.0)
        orients = sn.estimate_orientation(seq)
        assert geo.quat_yaw(orients.q[-1]) == pytest.approx(1.0, abs=1e-3)
        rel = sn.relative_yaw(orients)
        assert rel[0] == 0.0
        assert rel[-1] == pytest.approx(1.0, abs=1e-3)

    def test_quaternions_stay_unit_norm(self):
        seq = _seq([0.0, 0.0, 9.81], [0.2, 0.1, 0.5], n=500, rate=100.0)
        orients = sn.estimate_orientation(seq)
        np.testing.assert_allclose(np.linalg.norm(orients.q, axis=1), 1.0, atol=1e-9)
        assert np.array_equal(orients.t, seq.t)


class TestGravityBlend:
    def test_initializes_from_first_accelerometer_sample(self):
        """A rolled device is recognized as rolled from sample one."""
        seq = _seq([0.0, 9.81, 0.0], [0.0, 0.0, 0.0], n=100)
        orients = sn.estimate_orientation(seq)
        hacf = sn.to_hacf(seq, orients)
        np.testing.assert_allclose(hacf[0], 0.0, atol=1e-9)

    def test_corrects_slow_tilt_drift(self):
        """A small roll-rate gyro bias cannot tip the estimate over."""
        seq = _seq([0.0, 0.0, 9.81], [0.001, 0.0, 0.0], n=6000, rate=100.0)
        orients = sn.estimate_orientation(seq)
        up = quat_rotate_ref(orients.q[-1], np.array([0.0, 0.0, 1.0]))
        tilt = np.arccos(np.clip(up[2], -1.0, 1.0))
        # gyro-only drift would be 0.06 rad; the blend holds it far lower
        assert tilt < 0.01

    def test_acceleration_gate_ignores_dynamic_samples(self):
        """Specific force far from 1 g never feeds the tilt correction."""
        n = 200
        t = np.arange(n) / 100.0
        acc = np.tile([20.0, 0.0, 9.81], (n, 1))  # norm well above the gate
        acc[0] = [0.0, 0.0, 9.81]
        seq = sn.ImuSequence(t, acc, np.zeros((n, 3)))
        orients = sn.estimate_orientation(seq)
        np.testing.assert_allclose(orients.q[-1], quat_identity_ref(), atol=1e-12)


@st.composite
def imu_streams(draw):
    """Short recordings with non-uniform steps, stretches of zero or
    tiny gyro rate (the small-angle branch), and specific forces on
    both edges of the gate, just outside them, and at zero, with signed
    zeros off the axis."""
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.cumsum(rng.uniform(0.001, 0.05, n)) - 0.001
    gyro = rng.normal(scale=draw(st.sampled_from([0.01, 0.5, 4.0])), size=(n, 3))
    lo, hi = sorted(draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    gyro[lo:hi] = draw(st.sampled_from([0.0, -0.0, 1e-13, -2e-14]))
    # tilted gravity plus linear acceleration, some samples far off 1 g
    up = rng.normal(size=(n, 3)) * draw(st.sampled_from([0.0, 0.1, 1.0])) + [0.0, 0.0, 1.0]
    acc = geo.GRAVITY * up / np.linalg.norm(up, axis=1, keepdims=True)
    acc *= rng.uniform(0.3, 1.7, (n, 1)) if draw(st.booleans()) else 1.0
    edges = [0.5, 1.5, 0.5 * (1 - 1e-16), 1.5 * (1 + 1e-15), 0.0]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=6)):
        # along an axis, where the norm is exactly the value set
        acc[i] = rng.choice([0.0, -0.0], 3)
        acc[i, rng.integers(3)] = rng.choice([-1.0, 1.0]) * rng.choice(edges) * geo.GRAVITY
    return sn.ImuSequence(t, acc, gyro)


class TestMatchesPerSampleReference:
    """The batched filter and yaw equal the per-sample, one-numpy-call-
    per-vector recipe bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seq=imu_streams(),
           alpha=st.one_of(st.sampled_from([0.0, 0.02, 1.0]), st.floats(0.0, 1.0)))
    def test_filter_and_relative_yaw(self, seq, alpha):
        got = sn.estimate_orientation(seq, alpha)
        ref = estimate_orientation_ref(seq, alpha)
        assert same_bits(got.q, ref.q)
        assert same_bits(got.t, ref.t)
        assert same_bits(sn.relative_yaw(got), relative_yaw_ref(ref))

    def test_signed_zero_of_a_roll_only_recording(self):
        """Rolled past 90 degrees about x alone, the tilt axis (up x z) has
        a signed-zero y component that reaches the output's qy."""
        seq = sn.ImuSequence([0.0, 0.02], [[0.0, -5.0, -8.0], [0.0, -9.8, 0.0]],
                             [[-0.02, -0.0, -0.0]] * 2)
        got = sn.estimate_orientation(seq, 1.0)
        assert same_bits(got.q, estimate_orientation_ref(seq, 1.0).q)
        assert np.signbit(got.q[:, 2]).tolist() == [True, False]

    @pytest.mark.parametrize("alpha", [0.0, 0.02, 1.0])
    def test_simulated_sweep(self, clean_imu, alpha):
        noisy = sn.ImuSequence(clean_imu.t, clean_imu.acc + np.random.default_rng(1).normal(
            scale=0.05, size=clean_imu.acc.shape), clean_imu.gyro)
        for seq in (clean_imu, noisy):
            got = sn.estimate_orientation(seq, alpha)
            assert same_bits(got.q, estimate_orientation_ref(seq, alpha).q)
            assert same_bits(sn.relative_yaw(got), relative_yaw_ref(got))


class TestOrientationSequence:
    def test_far_from_unit_norm_is_an_error(self):
        t = np.array([0.0, 0.01])
        q = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="far from unit norm"):
            sn.OrientationSequence(t, q)

    @pytest.mark.parametrize("row, what", [("nan,0,0,0", "quaternion"),
                                           ("1,0,inf,0", "quaternion")])
    def test_non_finite_row_in_a_file_is_named(self, tmp_path, row, what):
        """NaN fails the unit-norm test's comparison, so it is checked first."""
        path = tmp_path / "orients.csv"
        path.write_text(f"t,qw,qx,qy,qz\n0.0,1,0,0,0\n0.02,{row}\n")
        with pytest.raises(ValueError, match=rf"^{path}: non-finite {what} at index 1$"):
            sn.load_orientations(path)

    def test_non_finite_timestamp_is_named(self):
        with pytest.raises(ValueError, match="non-finite timestamp at index 0"):
            sn.OrientationSequence(np.array([np.nan, 0.02]), np.tile([1.0, 0, 0, 0], (2, 1)))

    def test_small_norm_error_is_repaired(self):
        t = np.array([0.0])
        q = np.array([[1.0 + 5e-4, 0.0, 0.0, 0.0]])
        orients = sn.OrientationSequence(t, q)
        assert np.linalg.norm(orients.q[0]) == pytest.approx(1.0, abs=1e-12)

    def test_file_round_trip(self, tmp_path):
        """Timestamps survive exactly; quaternions to re-normalization ulp."""
        rng = np.random.default_rng(4)
        q = np.array([quat_normalize_ref(rng.normal(size=4)) for _ in range(10)])
        orients = sn.OrientationSequence(np.arange(10) / 50.0, q)
        path = tmp_path / "orients.csv"
        sn.save_orientations(orients, path)
        back = sn.load_orientations(path)
        assert np.array_equal(back.t, orients.t)
        np.testing.assert_allclose(back.q, orients.q, rtol=0, atol=1e-15)
