"""IMU sequences, file round trips, the anchored frame, and windowing."""

import re

import numpy as np
import pytest

import sweepnav as sn

from .oracles import quat_from_rotvec_ref, quat_normalize_ref


def _static_seq(acc, n=50, rate=100.0):
    t = np.arange(n) / rate
    return sn.ImuSequence(t, np.tile(acc, (n, 1)), np.zeros((n, 3)))


def _identity_orients(t):
    return sn.OrientationSequence(t, np.zeros(len(t)))


class TestImuSequence:
    def test_non_monotonic_timestamp_is_named(self):
        """The error points at the first offending sample."""
        with pytest.raises(ValueError, match="non-monotonic timestamp at index 2"):
            sn.ImuSequence([0.0, 0.02, 0.01], np.zeros((3, 3)), np.zeros((3, 3)))

    def test_non_finite_rejected(self):
        acc = np.zeros((3, 3))
        acc[1, 0] = np.nan
        with pytest.raises(ValueError):
            sn.ImuSequence([0.0, 0.01, 0.02], acc, np.zeros((3, 3)))

    def test_sample_rate_from_median_spacing(self):
        seq = _static_seq(np.array([0.0, 0.0, 9.81]), n=100, rate=50.0)
        assert seq.sample_rate() == pytest.approx(50.0)

    def test_arrays_are_read_only(self):
        seq = _static_seq(np.array([0.0, 0.0, 9.81]))
        with pytest.raises(ValueError):
            seq.acc[0, 0] = 1.0


class TestFileRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        """Written floats parse back to the identical doubles."""
        rng = np.random.default_rng(0)
        seq = sn.ImuSequence(np.arange(20) / 50.0, rng.normal(size=(20, 3)),
                             rng.normal(size=(20, 3)))
        path = tmp_path / "imu.csv"
        sn.save_imu(seq, path)
        back = sn.load_imu(path)
        assert np.array_equal(back.t, seq.t)
        assert np.array_equal(back.acc, seq.acc)
        assert np.array_equal(back.gyro, seq.gyro)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,ax,ay,az,gx,gy,gz\n0.0,0,0,9.81,0,0,0\nnot-a-number\n")
        with pytest.raises(ValueError, match=":3:"):
            sn.load_imu(path)

    def test_jsonl_recording_refused_at_line_1(self, tmp_path):
        """CSV is the one IMU format: a JSONL file is read as CSV, whatever
        its suffix, and refused at its first line."""
        path = tmp_path / "imu.jsonl"
        path.write_text('{"ax": 0, "ay": 0, "az": 9.81, "gx": 0, "gy": 0, "gz": 0, "t": 0}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: expected header "):
            sn.load_imu(path)


class TestResample:
    def test_uniform_input_passes_through(self):
        seq = _static_seq(np.array([0.0, 0.0, 9.81]), n=100, rate=50.0)
        out = sn.resample(seq, rate_hz=50.0)
        assert np.array_equal(out.t, seq.t)
        assert np.array_equal(out.acc, seq.acc)

    def test_jittered_input_lands_on_grid(self):
        rng = np.random.default_rng(1)
        t = np.arange(100) / 50.0 + rng.uniform(-2e-3, 2e-3, 100)
        t = np.sort(t)
        seq = sn.ImuSequence(t, np.tile([0.0, 0.0, 9.81], (100, 1)), np.zeros((100, 3)))
        out = sn.resample(seq, rate_hz=50.0)
        np.testing.assert_allclose(np.diff(out.t), 0.02, atol=1e-12)
        np.testing.assert_allclose(out.acc[:, 2], 9.81, atol=1e-9)

    def test_gap_is_an_error(self):
        t = np.concatenate([np.arange(50) / 50.0, np.arange(50) / 50.0 + 2.0])
        seq = sn.ImuSequence(t, np.zeros((100, 3)), np.zeros((100, 3)))
        with pytest.raises(ValueError, match="gap"):
            sn.resample(seq, rate_hz=50.0)


class TestAnchoredFrame:
    def test_level_static_device_reads_zero(self):
        """Gravity is removed exactly for a level, motionless device."""
        seq = _static_seq(np.array([0.0, 0.0, 9.81]))
        hacf = sn.to_hacf(seq, _identity_orients(seq.t))
        assert hacf.shape == (2, len(seq), 3) and not hacf.flags.writeable
        np.testing.assert_allclose(hacf, 0.0, atol=1e-12)

    def test_tilted_static_device_reads_zero(self):
        """A device rolled 90 degrees senses gravity along its y axis."""
        q = quat_from_rotvec_ref([np.pi / 2, 0.0, 0.0])
        seq = _static_seq(np.array([0.0, 9.81, 0.0]))
        orients = sn.OrientationSequence(seq.t, np.zeros(len(seq.t)), q)
        hacf = sn.to_hacf(seq, orients)
        np.testing.assert_allclose(hacf[0], 0.0, atol=1e-9)

    def test_initial_heading_does_not_leak(self):
        """The same device-frame motion maps to the same anchored vector
        no matter which way the device initially faces."""
        acc = np.array([1.0, 0.0, 9.81])
        seq = _static_seq(acc)
        base = sn.to_hacf(seq, _identity_orients(seq.t))
        for yaw0 in (np.pi / 2, -2.0, 0.3):
            out = sn.to_hacf(seq, sn.OrientationSequence(seq.t, np.full(len(seq.t), yaw0)))
            np.testing.assert_allclose(out[0], base[0], atol=1e-12)
        np.testing.assert_allclose(base[0, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_anchoring_invariance_for_arbitrary_orientations(self):
        """Adding a constant to every heading leaves the output alone,
        whatever the mount and the headings."""
        rng = np.random.default_rng(2)
        n = 40
        t = np.arange(n) / 50.0
        seq = sn.ImuSequence(t, rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        for _ in range(5):
            mount = quat_normalize_ref(rng.normal(size=4))
            heading = rng.uniform(-np.pi, np.pi, n)
            base = sn.to_hacf(seq, sn.OrientationSequence(t, heading, mount))
            for delta in (1.234, -3.0, 40.0):
                out = sn.to_hacf(seq, sn.OrientationSequence(t, heading + delta, mount))
                np.testing.assert_allclose(out, base, rtol=0, atol=1e-12)

    def test_gyro_is_rotated_but_not_offset(self):
        gyro = np.tile([0.1, -0.2, 0.3], (30, 1))
        t = np.arange(30) / 50.0
        seq = sn.ImuSequence(t, np.tile([0.0, 0.0, 9.81], (30, 1)), gyro)
        hacf = sn.to_hacf(seq, _identity_orients(t))
        np.testing.assert_allclose(hacf[1], gyro, atol=1e-12)


class TestWindows:
    def _hacf(self, n):
        """Sample f carries its frame number in every acceleration axis
        and minus it in every angular-rate axis."""
        a = np.tile(np.arange(n, dtype=float)[:, None], (1, 3))
        return np.stack([a, -a])

    @staticmethod
    def _starts(windows):
        return windows[:, 0, 0, 0].astype(int).tolist()

    def test_counts_at_boundaries(self):
        """129 samples hold exactly two 65-sample windows; 64 hold none."""
        assert self._starts(sn.make_windows(self._hacf(129), tau=64)) == [0, 64]
        assert sn.make_windows(self._hacf(64), tau=64).shape == (0, 2, 65, 3)
        assert self._starts(sn.make_windows(self._hacf(65), tau=64)) == [0]

    def test_full_coverage_when_length_divides(self):
        """Back-to-back windows jointly cover every frame."""
        windows = sn.make_windows(self._hacf(129), tau=64)
        assert set(windows[:, 0, :, 0].ravel().astype(int)) == set(range(129))

    def test_custom_stride_overlaps(self):
        assert self._starts(sn.make_windows(self._hacf(129), tau=64, stride=32)) == [0, 32, 64]

    def test_layout_is_acc_then_gyro_row_major(self):
        """Window i is frames i*stride .. i*stride + tau; its flat form is
        the acceleration block, then the angular-rate block, row-major."""
        hacf = self._hacf(100)
        windows = sn.make_windows(hacf, tau=8, stride=3)
        assert windows.shape == (31, 2, 9, 3)
        for i, flat in enumerate(windows.reshape(len(windows), -1)):
            s = 3 * i
            ref = np.concatenate([hacf[0, s : s + 9].ravel(), hacf[1, s : s + 9].ravel()])
            assert np.array_equal(flat, ref)

    def test_windows_are_a_read_only_view(self):
        """Overlapping windows share memory: no window is copied."""
        windows = sn.make_windows(self._hacf(200), tau=64, stride=1)
        assert not windows.flags.writeable
        assert np.shares_memory(windows[0], windows[1])
        assert windows.base is not None

    def test_window_shape_contract(self):
        """(N, 2, tau + 1, 3) for any tau and stride; tau >= 1, stride >= 0,
        and stride 0 is tau, as the ``hacf.stride`` key reads it."""
        for tau, stride, n in ((1, 1, 99), (64, 64, 1), (8, 100, 1), (8, 0, 12)):
            assert sn.make_windows(self._hacf(100), tau, stride).shape == (n, 2, tau + 1, 3)
        assert np.array_equal(sn.make_windows(self._hacf(100), 8, 0),
                              sn.make_windows(self._hacf(100), 8, 8))
        with pytest.raises(ValueError, match="tau"):
            sn.make_windows(self._hacf(10), tau=0)
        with pytest.raises(ValueError, match="stride"):
            sn.make_windows(self._hacf(10), tau=4, stride=-1)
