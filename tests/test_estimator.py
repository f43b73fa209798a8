"""Velocity estimators: the dense network and the ground-truth oracle."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepnav as sn
from sweepnav.estimator import Layer, WeightsMeta, clamp_speed
from sweepnav.geometry import rot2, rotate_xyz_about_z

from .conftest import zero_windows
from .oracles import dense_forward_ref, line_trajectory


SPEED = 0.390625  # dyadic, so displacement/duration round-trips exactly


def _oracle(bias=(0.0, 0.0), noise=0.0, speed=SPEED, n=201, seed=0):
    traj = line_trajectory(speed=speed, n_frames=n)
    return sn.OracleVelocityEstimator(traj, sn.OracleConfig(bias, noise, seed))


def _read(model, starts=(0,), angles=(0.0,)):
    """Oracle output, (N, K, 2), for zero windows at ``starts`` turned by
    each of ``angles``."""
    return model.velocities(zero_windows(len(starts)), np.asarray(starts), np.asarray(angles))


class _Fixed:
    """Returns a fixed (N, K, 2) output whatever it is given."""

    def __init__(self, out):
        self.out = np.asarray(out, dtype=float)

    def velocities(self, windows, starts, angles):
        return self.out


class TestOracle:
    def test_mean_velocity_over_window(self):
        """Displacement over duration: 0.5 m in 1.28 s is 0.390625 m/s."""
        v = _read(_oracle())[0, 0]
        assert v[0] == SPEED and v[1] == 0.0

    def test_bias_is_added_in_the_input_frame(self):
        v = _read(_oracle(bias=(0.1, 0.1)))[0, 0]
        assert v[0] == SPEED + 0.1 and v[1] == 0.1
        np.testing.assert_allclose(v, [0.490625, 0.1], atol=1e-12)

    def test_rotation_equivariance_with_bias(self):
        """Rotating the window rotates the truth but never the bias."""
        bias = np.array([0.1, 0.0])
        base = _read(_oracle())[0, 0]
        thetas = np.array([0.3, -2.0, np.pi / 2, np.pi])
        v = _read(_oracle(bias=bias), angles=thetas)[0]
        for theta, row in zip(thetas, v):
            np.testing.assert_allclose(row, rot2(theta) @ base + bias, atol=1e-12)

    def test_out_of_span_window_is_named(self):
        with pytest.raises(ValueError, match=r"\[64, 128\].*66 frames"):
            _read(_oracle(n=66), starts=[0, 64])

    def test_noise_is_deterministic_per_window(self):
        """Same seed and window start give the same draw; order never matters."""
        a = _read(_oracle(noise=0.05, seed=7), [0, 64])
        b = _read(_oracle(noise=0.05, seed=7), [64, 0])
        assert np.array_equal(a, b[::-1])
        assert not np.array_equal(a[0], a[1])
        assert not np.array_equal(a[0], _read(_oracle(noise=0.05, seed=8), [0])[0])

    def test_members_of_one_window_share_the_noise_draw(self):
        """K members of a window differ only by the rotated truth."""
        thetas = np.array([-np.pi, -1.0, 0.0, 2.5])
        noisy = _read(_oracle(noise=0.05, seed=3), [64], thetas)[0]
        clean = _read(_oracle(), [64], thetas)[0]
        noise = noisy - clean
        np.testing.assert_allclose(noise, np.tile(noise[0], (4, 1)), rtol=0, atol=1e-15)
        assert np.linalg.norm(noise[0]) > 0

    def test_negative_seed_with_noise_is_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            sn.OracleConfig(noise_sigma=0.05, seed=-1)


class TestEstimateVelocity:
    def test_speed_clamp_preserves_direction(self):
        model = _oracle(speed=3.0)
        est = sn.estimate_velocity(zero_windows(), [0], [0.0], model, v_max=2.0)
        assert est.clamped == 1
        np.testing.assert_allclose(est.v, [[[2.0, 0.0]]], atol=1e-12)

    def test_within_limit_untouched(self):
        model = _oracle()
        est = sn.estimate_velocity(zero_windows(2), [0, 64], [0.0], model)
        assert est.clamped == 0 and not est.clamped
        assert est.kept.all()
        assert np.array_equal(est.v, [[[SPEED, 0.0]], [[SPEED, 0.0]]])

    def test_non_finite_members_are_masked(self):
        bad = _Fixed([[[np.nan, 0.0], [1.0, 0.0]], [[np.inf, 1.0], [3.0, 4.0]]])
        est = sn.estimate_velocity(zero_windows(2), [0, 64], np.zeros(2), bad)
        assert est.kept.tolist() == [[False, True], [False, True]]
        assert np.isnan(est.v[:, 0]).all()
        np.testing.assert_allclose(est.v[:, 1], [[1.0, 0.0], [1.2, 1.6]], atol=1e-15)
        assert est.over.tolist() == [[False, False], [False, True]]
        assert est.clamped == 1

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match=r"shape \(1, 1, 2\)"):
            sn.estimate_velocity(zero_windows(), [0], [0.0], _Fixed([[[1.0, 2.0, 3.0]]]))

    def test_tau_mismatch_raises(self):
        net = sn.DenseVelocityNetwork(sn.make_random_bundle(tau=32))
        with pytest.raises(ValueError, match=r"\(2, 65, 3\).*tau=32"):
            sn.estimate_velocity(zero_windows(tau=64), [0], [0.0], net)

    def test_clamp_speed_is_norm_based(self):
        v, over = clamp_speed(np.array([[1.5, 1.5], [0.3, 0.4], [np.nan, 0.0]]), 2.0)
        assert over.tolist() == [True, False, False]
        assert np.linalg.norm(v[0]) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(v[0, 0], v[0, 1])
        assert np.array_equal(v[1], [0.3, 0.4])


@st.composite
def _bundles_and_windows(draw):
    """A random bundle with non-zero biases (tau 8 or 64, one or two
    hidden layers), 1 to 4 random windows and K in {1, 2, 5, 8} angles,
    either the ensemble grid or arbitrary ones."""
    tau = draw(st.sampled_from([8, 64]))
    hidden = draw(st.lists(st.integers(1, 48), min_size=1, max_size=2))
    k = draw(st.sampled_from([1, 2, 5, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = [6 * (tau + 1), *hidden, 2]
    layers = []
    for rows, cols in zip(dims[:-1], dims[1:]):
        layers += [Layer("relu")] if layers else []
        layers.append(Layer("dense", rows, cols, rng.normal(0.0, rows ** -0.5, (rows, cols)),
                            rng.normal(0.0, 0.5, cols)))
    bundle = sn.WeightsBundle(WeightsMeta(tau, 50.0, gravity_subtracted=True), tuple(layers))
    windows = rng.normal(0.0, 2.0, (draw(st.integers(1, 4)), 2, tau + 1, 3))
    angles = draw(st.just(sn.ensemble_angles(sn.RaeConfig(k=k)))
                  | st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k).map(np.array))
    return bundle, windows, angles


class TestDenseNetwork:
    def test_hand_built_single_layer(self):
        """A 12-to-2 dense layer picks out known input entries."""
        w = np.zeros((12, 2))
        w[0, 0] = 1.0
        w[6, 1] = 1.0
        bundle = sn.WeightsBundle(
            WeightsMeta(tau=1, sample_rate_hz=50.0, gravity_subtracted=True),
            (Layer("dense", 12, 2, w, np.array([0.5, -0.5])),),
        )
        a = np.arange(1.0, 7.0).reshape(2, 3)
        g = np.arange(7.0, 13.0).reshape(2, 3)
        net = sn.DenseVelocityNetwork(bundle)
        np.testing.assert_allclose(
            net.velocities(np.stack([a, g])[None], [0], [0.0]), [[[1.5, 6.5]]], atol=1e-15
        )

    def test_random_bundle_is_seed_deterministic(self):
        w = np.random.default_rng(2).normal(size=(3, 2, 65, 3))
        a = sn.DenseVelocityNetwork(sn.make_random_bundle(seed=3)).velocities(w, [0] * 3, [0.0])
        b = sn.DenseVelocityNetwork(sn.make_random_bundle(seed=3)).velocities(w, [0] * 3, [0.0])
        assert np.array_equal(a, b)

    def test_batch_matches_one_window_at_a_time(self):
        """One matmul over the stack agrees with per-window passes to
        rounding (gemm and gemv may sum in different orders)."""
        net = sn.DenseVelocityNetwork(sn.make_random_bundle(seed=4))
        w = np.random.default_rng(5).normal(size=(40, 2, 65, 3))
        batch = net.velocities(w, np.zeros(40), np.zeros(1))
        single = np.vstack([net.velocities(w[i : i + 1], [0], [0.0]) for i in range(40)])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(case=_bundles_and_windows())
    def test_members_are_the_forward_pass_of_turned_windows(self, case):
        """cos(theta) A + sin(theta) B + C through the first layer is the
        plain forward pass of the window turned by theta about z."""
        bundle, windows, angles = case
        got = sn.DenseVelocityNetwork(bundle).velocities(windows, np.zeros(len(windows)), angles)
        assert got.shape == (len(windows), len(angles), 2)
        for i, window in enumerate(windows):
            for k, theta in enumerate(angles):
                ref = dense_forward_ref(bundle, rotate_xyz_about_z(window, theta))
                assert np.linalg.norm(got[i, k] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_shape_chain_is_validated(self):
        with pytest.raises(ValueError, match="layer 0"):
            sn.WeightsBundle(
                WeightsMeta(tau=64, sample_rate_hz=50.0, gravity_subtracted=True),
                (Layer("dense", 198, 2, np.zeros((198, 2)), np.zeros(2)),),
            )

    def test_final_width_is_validated(self):
        with pytest.raises(ValueError, match="final layer"):
            sn.WeightsBundle(
                WeightsMeta(tau=1, sample_rate_hz=50.0, gravity_subtracted=True),
                (Layer("dense", 12, 3, np.zeros((12, 3)), np.zeros(3)),),
            )


class TestWeightsFile:
    def test_round_trip_predictions_are_identical(self, tmp_path):
        bundle = sn.make_random_bundle(seed=5)
        path = tmp_path / "weights.json"
        sn.save_weights(bundle, path)
        back = sn.load_weights(path, expected_tau=64)
        w = np.random.default_rng(6).normal(size=(1, 2, 65, 3))
        a = sn.DenseVelocityNetwork(bundle).velocities(w, [0], [0.0])
        b = sn.DenseVelocityNetwork(back).velocities(w, [0], [0.0])
        # storage is float32, so reload twice and compare like with like
        sn.save_weights(back, path)
        c = sn.DenseVelocityNetwork(sn.load_weights(path)).velocities(w, [0], [0.0])
        assert np.array_equal(b, c)
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_tau_mismatch_is_actionable(self, tmp_path):
        path = tmp_path / "weights.json"
        sn.save_weights(sn.make_random_bundle(tau=32), path)
        with pytest.raises(ValueError, match="trained for tau=32, pipeline uses tau=64"):
            sn.load_weights(path, expected_tau=64)

    def test_rate_mismatch_is_actionable(self, tmp_path, capsys):
        """``eval`` pairs the estimate with the ground truth frame by frame,
        so ``infer`` refuses weights trained at another rate than the
        recording's, before it writes anything, and runs weights trained
        at the recording's rate on the ground truth's frames."""
        from sweepnav.cli import main

        ds = tmp_path / "ds"
        assert main(["simulate", "--out", str(ds), "--set", "sim.n_items=0"]) == 0
        before = sorted(p.name for p in ds.iterdir())
        path = tmp_path / "weights.json"
        sn.save_weights(sn.make_random_bundle(sample_rate_hz=200.0), path)
        assert main(["infer", "--dataset", str(ds), "--estimator", "network",
                     "--set", f"estimator.weights={path}"]) == 2
        assert re.search(r"200 Hz.*imu\.csv is recorded at 50 Hz", capsys.readouterr().err)
        assert sorted(p.name for p in ds.iterdir()) == before

        sn.save_weights(sn.make_random_bundle(sample_rate_hz=50.0), path)
        assert main(["infer", "--dataset", str(ds), "--estimator", "network",
                     "--set", f"estimator.weights={path}"]) == 0
        assert main(["eval", "--dataset", str(ds), "--set", "eval.trajectory=est"]) == 0
        gt = sn.load_trajectory(ds / "gt_trajectory.csv")
        est = sn.load_trajectory(ds / "est_trajectory.csv")
        assert len(est) == len(gt)
        np.testing.assert_allclose(est.t, gt.t, rtol=0, atol=1e-9)
        assert json.loads((ds / "eval_grid_1.0.json").read_text())["coverage"] == 1.0

    def test_truncated_parameters_are_counted(self, tmp_path):
        path = tmp_path / "weights.json"
        sn.save_weights(sn.make_random_bundle(tau=1, hidden=()), path)
        doc = json.loads(path.read_text())
        import base64

        doc["layers"][0]["data"] = base64.b64encode(
            np.zeros(10, dtype="<f4").tobytes()
        ).decode("ascii")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="expected 26 parameters, got 10"):
            sn.load_weights(path)

    def test_malformed_json_names_file(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="weights.json"):
            sn.load_weights(path)

    @pytest.mark.parametrize("layer, message", [
        ({"kind": "dense", "cols": 2, "data": ""}, "layer 0: missing key 'rows'"),
        ([1, 2], "layer 0: not a JSON object"),
        ("dense", "layer 0: not a JSON object"),
        ({"kind": "dense", "rows": 12, "cols": 2, "data": 7}, "layer 0: "),
        ({"kind": "conv"}, "layer 0: unknown kind 'conv'"),
    ])
    def test_malformed_layer_names_file_and_layer(self, tmp_path, layer, message):
        path = tmp_path / "weights.json"
        sn.save_weights(sn.make_random_bundle(tau=1, hidden=()), path)
        doc = json.loads(path.read_text())
        doc["layers"][0] = layer
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            sn.load_weights(path)

    def test_a_leading_relu_is_refused(self, tmp_path):
        """[relu, dense] chains its shapes, but the network turns windows
        through a dense first layer, and relu does not commute with that."""
        path = tmp_path / "weights.json"
        sn.save_weights(sn.make_random_bundle(tau=1, hidden=()), path)
        doc = json.loads(path.read_text())
        doc["layers"].insert(0, {"kind": "relu", "rows": 0, "cols": 0, "data": ""})
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: layer 0: the first "
                                             "layer must be dense"):
            sn.load_weights(path)

    @pytest.mark.parametrize("value", [False, None, "true", 1])
    def test_gravity_must_be_subtracted(self, tmp_path, value):
        """``infer`` feeds windows with gravity removed, so a network that
        expects gravity in its input is refused, not run."""
        path = tmp_path / "weights.json"
        sn.save_weights(sn.make_random_bundle(tau=1, hidden=()), path)
        doc = json.loads(path.read_text())
        doc["meta"]["gravity_subtracted"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: .*gravity_subtracted must be true"):
            sn.load_weights(path)

    @pytest.mark.parametrize("part, key, value, message", [
        ("meta", "tau", 1.9, "malformed weights bundle: tau must be a JSON integer, got 1.9"),
        ("meta", "tau", "1", 'malformed weights bundle: tau must be a JSON integer, got "1"'),
        ("layer", "rows", 12.5, "layer 0: rows must be a JSON integer, got 12.5"),
        ("layer", "cols", True, "layer 0: cols must be a JSON integer, got true"),
    ])
    def test_fractional_integers_are_refused(self, tmp_path, part, key, value, message):
        """``"tau": 1.9`` once loaded as tau 1 and passed a tau = 1 check."""
        path = tmp_path / "weights.json"
        sn.save_weights(sn.make_random_bundle(tau=1, hidden=()), path)
        doc = json.loads(path.read_text())
        (doc["meta"] if part == "meta" else doc["layers"][0])[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            sn.load_weights(path, expected_tau=1)

    def test_infer_exits_2_on_a_fractional_layer_size(self, tmp_path, capsys):
        from sweepnav.cli import main

        ds = tmp_path / "ds"
        assert main(["simulate", "--out", str(ds), "--set", "sim.n_items=0"]) == 0
        path = tmp_path / "weights.json"
        sn.save_weights(sn.make_random_bundle(), path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["rows"] += 0.5
        path.write_text(json.dumps(doc))
        assert main(["infer", "--dataset", str(ds), "--estimator", "network",
                     "--set", f"estimator.weights={path}"]) == 2
        assert f"{path}: layer 0: rows must be a JSON integer, got 390.5" in capsys.readouterr().err

    def test_infer_exits_2_on_a_malformed_layer(self, tmp_path, capsys):
        """The documented exit code of a validation failure, not a traceback."""
        from sweepnav.cli import main

        ds = tmp_path / "ds"
        assert main(["simulate", "--out", str(ds), "--set", "sim.n_items=0"]) == 0
        path = tmp_path / "weights.json"
        sn.save_weights(sn.make_random_bundle(), path)
        doc = json.loads(path.read_text())
        del doc["layers"][0]["rows"]
        path.write_text(json.dumps(doc))
        assert main(["infer", "--dataset", str(ds), "--estimator", "network",
                     "--set", f"estimator.weights={path}"]) == 2
        assert f"{path}: layer 0: missing key 'rows'" in capsys.readouterr().err
