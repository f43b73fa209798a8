"""Tests for trajectory refinement under the loop-closure constraint."""

import hashlib
import json

import numpy as np
import pytest

import sweepnav as sn
from sweepnav.loop_closure import (
    LOSS_CSV_HEADER,
    _index_column,
    CorrectionMlp,
    CorrectionParams,
    RefineConfig,
    apply_corrections,
    loss_and_gradients,
    refine,
    refinement_loss,
    save_corrections,
    save_loss_history,
)

from .oracles import corrected_positions_ref, loss_ref, numeric_gradients


def _traj(xy, rate=50.0, yaw=None):
    xy = np.asarray(xy, dtype=float)
    n = len(xy)
    if yaw is None:
        yaw = np.zeros(n)
    return sn.Trajectory(np.arange(n) / rate, xy, np.asarray(yaw, dtype=float), rate)


def _circle(n=400):
    """A loop that ends exactly where it starts."""
    th = 2.0 * np.pi * np.arange(n) / (n - 1)
    xy = np.column_stack([np.cos(th), np.sin(th)])
    return _traj(xy, yaw=sn.wrap_angle(th + np.pi / 2))


def _drifted(traj, rate_per_frame):
    """Rotate each increment by a linearly growing heading error."""
    d = np.diff(traj.xy, axis=0)
    n = len(traj)
    ang = rate_per_frame * np.arange(1, n)
    c, s = np.cos(ang), np.sin(ang)
    rot = np.column_stack([c * d[:, 0] - s * d[:, 1], s * d[:, 0] + c * d[:, 1]])
    xy = np.vstack([traj.xy[0], traj.xy[0] + np.cumsum(rot, axis=0)])
    yaw = sn.wrap_angle(traj.yaw + np.concatenate([[0.0], ang]))
    return sn.Trajectory(traj.t, xy, yaw, traj.frame_rate)


def _zero_params(n):
    return CorrectionParams(np.zeros(n), np.zeros((n, 2)))


def _random_case(seed, max_frames=200):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_frames + 1))
    xy = np.cumsum(rng.normal(0.0, 0.2, (n, 2)), axis=0)
    r = rng.uniform(-np.pi, np.pi, n)
    l = rng.normal(0.0, 0.5, (n, 2))
    return xy, r, l


class TestCorrectionParams:
    def test_rotation_bound_enforced(self):
        with pytest.raises(ValueError, match="must lie in"):
            CorrectionParams(np.array([0.0, 3.2]), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"expected r \(T,\)"):
            CorrectionParams(np.zeros(3), np.zeros((4, 2)))

    def test_arrays_are_read_only(self):
        params = _zero_params(4)
        with pytest.raises(ValueError, match="read-only"):
            params.r[0] = 1.0


class TestApplyCorrections:
    def test_identity_is_exact_no_op(self):
        traj = _circle(64)
        out = apply_corrections(traj, _zero_params(64))
        assert np.array_equal(out.xy, traj.xy)
        assert np.array_equal(out.yaw, traj.yaw)
        assert np.array_equal(out.t, traj.t)

    def test_quarter_turn_on_straight_line(self):
        """Each increment is rotated by its own frame's angle, so only the
        first step of (0,0)->(1,0)->(2,0) turns under r=(0, pi/2, 0)."""
        traj = _traj([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        params = CorrectionParams(np.array([0.0, np.pi / 2, 0.0]), np.zeros((3, 2)))
        out = apply_corrections(traj, params)
        np.testing.assert_allclose(
            out.xy, [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(out.yaw, [0.0, np.pi / 2, np.pi / 2], atol=1e-12)

    def test_uniform_offset_translates_every_pose(self):
        traj = _traj([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [3.0, 2.0]])
        params = CorrectionParams(np.zeros(4), np.tile([0.1, 0.0], (4, 1)))
        out = apply_corrections(traj, params)
        np.testing.assert_allclose(out.xy, traj.xy + [0.1, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.yaw, traj.yaw, atol=1e-12)

    def test_length_mismatch_rejected(self):
        traj = _traj([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="corrections cover 2 frames, trajectory has 3"):
            apply_corrections(traj, _zero_params(2))

    def test_matches_naive_reference(self):
        """Vectorized deformation agrees with a per-frame loop on random
        trajectories and corrections."""
        for seed in range(100):
            xy, r, l = _random_case(seed)
            traj = _traj(xy)
            out = apply_corrections(traj, CorrectionParams(r, l))
            expected = corrected_positions_ref(xy, r, l)
            np.testing.assert_allclose(out.xy, expected, atol=1e-9)
            np.testing.assert_allclose(
                out.yaw, sn.wrap_angle(traj.yaw + np.cumsum(r)), atol=1e-12)

    def test_corrected_yaw_stays_wrapped(self):
        traj = _traj([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], yaw=[3.0, 3.0, 3.0])
        params = CorrectionParams(np.array([0.5, 0.5, 0.5]), np.zeros((3, 2)))
        out = apply_corrections(traj, params)
        assert np.all(out.yaw > -np.pi)
        assert np.all(out.yaw <= np.pi)


class TestRefinementLoss:
    def test_closed_loop_zero_corrections_is_zero(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        traj = _traj(xy)
        bd = refinement_loss(traj, _zero_params(5), np.diff(xy, axis=0))
        assert bd.total == 0.0
        assert (bd.loop, bd.rot, bd.smooth) == (0.0, 0.0, 0.0)

    def test_open_trajectory_pays_squared_gap(self):
        xy = np.column_stack([np.linspace(0.0, 1.0, 5), np.zeros(5)])
        traj = _traj(xy)
        bd = refinement_loss(traj, _zero_params(5), np.diff(xy, axis=0))
        assert bd.loop == 1.0
        assert bd.total == 1.0

    def test_rotation_term_squares_the_sum(self):
        """Uniform 0.01 rad corrections over 100 frames sum to 0.99 (the
        first frame's entry never rotates an increment), giving 0.9801."""
        traj = _circle(100)
        params = CorrectionParams(np.full(100, 0.01), np.zeros((100, 2)))
        bd = refinement_loss(traj, params, np.diff(traj.xy, axis=0))
        np.testing.assert_allclose(bd.rot, 0.9801, rtol=0, atol=1e-12)

    def test_smooth_term_is_worst_frame_deviation(self):
        xy = np.column_stack([np.linspace(0.0, 0.4, 5), np.zeros(5)])
        traj = _traj(xy)
        v = np.diff(xy, axis=0)
        v[2] += [0.0, 0.25]
        bd = refinement_loss(traj, _zero_params(5), v)
        np.testing.assert_allclose(bd.smooth, 0.25, atol=1e-12)

    def test_matches_naive_reference(self):
        for seed in range(200, 240):
            xy, r, l = _random_case(seed, max_frames=80)
            n = len(xy)
            rng = np.random.default_rng(seed + 10_000)
            v = np.diff(xy, axis=0) + rng.normal(0.0, 0.05, (n - 1, 2))
            bd = refinement_loss(_traj(xy), CorrectionParams(r, l), v)
            total, loop, rot, smooth = loss_ref(xy, r, l, v)
            np.testing.assert_allclose(
                [bd.total, bd.loop, bd.rot, bd.smooth],
                [total, loop, rot, smooth], atol=1e-9)

    def test_loss_weights_scale_terms(self):
        xy = np.column_stack([np.linspace(0.0, 1.0, 5), np.zeros(5)])
        traj = _traj(xy)
        cfg = RefineConfig(lambda_loop=2.5)
        bd = refinement_loss(traj, _zero_params(5), np.diff(xy, axis=0), cfg)
        assert bd.total == 2.5

    def test_velocity_shape_checked(self):
        traj = _circle(10)
        with pytest.raises(ValueError, match="per_frame_v must have shape"):
            refinement_loss(traj, _zero_params(10), np.zeros((10, 2)))


def _mlp_reference(params, s, g_r, g_l):
    """Forward and backward written as fresh-array expressions, one
    temporary per step: the buffer-backed network must match it bit
    for bit, since it runs the same arithmetic in the same order."""
    W1, b1, W2, b2, W3, b3 = params
    z1 = s @ W1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ W2 + b2
    h2 = np.maximum(z2, 0.0)
    out = h2 @ W3 + b3
    r = np.pi * np.tanh(out[:, 0])
    tanh_out = r / np.pi
    g_out = np.column_stack([g_r * np.pi * (1.0 - tanh_out ** 2), g_l])
    g_z2 = (g_out @ W3.T) * (z2 > 0.0)
    g_z1 = (g_z2 @ W2.T) * (z1 > 0.0)
    grads = [s.T @ g_z1, g_z1.sum(axis=0), h1.T @ g_z2, g_z2.sum(axis=0),
             h2.T @ g_out, g_out.sum(axis=0)]
    return r, out[:, 1:], grads


def _mixed_mlp(seed):
    """A network whose ReLUs are neither all on nor all off."""
    rng = np.random.default_rng(seed)
    mlp = CorrectionMlp.initialize(seed=seed, hidden=16, init_scale=1.0)
    mlp.params[1][:] = rng.normal(0.0, 1.0, 16)
    mlp.params[3][:] = rng.normal(0.0, 1.0, 16)
    return mlp


class TestCorrectionMlp:
    @pytest.mark.parametrize("n", [1, 2, 50, 700])
    def test_matches_allocating_reference(self, n):
        mlp = _mixed_mlp(n)
        rng = np.random.default_rng(n + 1)
        g_r, g_l = rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, (n, 2))
        r_ref, l_ref, grads_ref = _mlp_reference(mlp.params, _index_column(n), g_r, g_l)
        r, l = mlp.forward(n)
        assert np.array_equal(r, r_ref)
        assert np.array_equal(l, l_ref)
        for g, g_ref in zip(mlp.backward(g_r, g_l), grads_ref):
            assert np.array_equal(g, g_ref)

    def test_frame_count_changes_match_a_fresh_network(self):
        """Buffers are reallocated when T changes: 50, 80, then 50 frames
        on one network give what a new network gives at each size."""
        mlp = _mixed_mlp(5)
        for n in (50, 80, 50):
            traj = _drifted(_circle(n), 0.01)
            v = np.diff(traj.xy, axis=0)
            fresh = CorrectionMlp([p.copy() for p in mlp.params])
            loss, grads = loss_and_gradients(traj.xy, mlp, v, RefineConfig())
            loss_ref, grads_ref = loss_and_gradients(traj.xy, fresh, v, RefineConfig())
            assert loss == loss_ref
            for g, g_ref in zip(grads, grads_ref):
                assert np.array_equal(g, g_ref)
            got, want = mlp.predict(n), fresh.predict(n)
            assert np.array_equal(got.r, want.r) and np.array_equal(got.l, want.l)

    def test_results_do_not_alias_the_buffers(self):
        """Gradients survive the next pass, and predictions own their
        memory, although every pass reuses the same buffers."""
        traj = _drifted(_circle(60), 0.01)
        v = np.diff(traj.xy, axis=0)
        mlp = _mixed_mlp(9)
        _, grads = loss_and_gradients(traj.xy, mlp, v, RefineConfig())
        kept = [g.copy() for g in grads]
        prediction = mlp.predict(60)
        kept_r, kept_l = prediction.r.copy(), prediction.l.copy()
        mlp.params = [p + 0.5 for p in mlp.params]
        loss_and_gradients(traj.xy, mlp, v, RefineConfig())
        mlp.forward(60)
        for g, k in zip(grads, kept):
            assert np.array_equal(g, k)
        assert np.array_equal(prediction.r, kept_r)
        assert np.array_equal(prediction.l, kept_l)
        buffers = [a for a in vars(mlp).values() if isinstance(a, np.ndarray)]
        assert len(buffers) == 8
        for buf in buffers:
            assert not np.shares_memory(prediction.l, buf)
            assert not np.shares_memory(prediction.r, buf)


class TestGradients:
    @pytest.mark.parametrize("seed,weights", [
        (1000, None), (1003, None), (1007, None), (1013, None), (1004, (2.5, 0.3, 4.0)),
    ])
    def test_analytic_matches_finite_differences(self, seed, weights):
        """Backpropagated gradients for every network parameter agree with
        central differences to well under 1e-4 relative error, at the
        default loss weights (None) and at unequal (loop, rot, smooth)
        weights."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        start = rng.normal(0.0, 1.0, 2)
        xy = np.vstack([start, start + np.cumsum(rng.normal(0.0, 0.03, (n - 1, 2)), axis=0)])
        v = np.diff(xy, axis=0) + rng.normal(0.0, 0.01, (n - 1, 2))
        cfg = RefineConfig() if weights is None else RefineConfig(
            lambda_loop=weights[0], lambda_rot=weights[1], lambda_smooth=weights[2])
        mlp = CorrectionMlp.initialize(seed=seed, hidden=64)
        # keep every ReLU input away from zero so the finite-difference
        # probes never cross an activation kink
        mlp.params[1][:] = rng.choice([-0.08, 0.08], size=mlp.params[1].shape)
        mlp.params[3][:] = rng.choice([-0.08, 0.08], size=mlp.params[3].shape)
        _, grads = loss_and_gradients(xy, mlp, v, cfg)

        def fn():
            return loss_and_gradients(xy, mlp, v, cfg)[0].total

        numeric = numeric_gradients(fn, mlp.params, h=1e-5)
        for analytic, approx in zip(grads, numeric):
            denom = max(np.linalg.norm(analytic), np.linalg.norm(approx), 1e-6)
            assert np.linalg.norm(analytic - approx) / denom < 1e-4


class TestRefine:
    def test_heading_drift_mostly_closed(self):
        """A closed loop opened by steady heading drift is pulled back to
        within 10% of its original gap."""
        gt = _circle(400)
        bad = _drifted(gt, 0.002)
        gap_before = np.linalg.norm(bad.xy[-1] - bad.xy[0])
        refined, _, _ = refine(bad, np.diff(bad.xy, axis=0), RefineConfig(epochs=120))
        gap_after = np.linalg.norm(refined.xy[-1] - bad.xy[0])
        assert gap_after < 0.1 * gap_before

    def test_loop_term_never_worse_than_input(self):
        gt = _circle(400)
        bad = _drifted(gt, 0.002)
        v = np.diff(bad.xy, axis=0)
        cfg = RefineConfig(epochs=40)
        _, corrections, _ = refine(bad, v, cfg)
        before = refinement_loss(bad, _zero_params(400), v, cfg)
        after = refinement_loss(bad, corrections, v, cfg)
        assert after.loop <= before.loop
        assert after.total <= before.total

    def test_already_closed_input_is_untouched(self):
        traj = _circle(300)
        refined, corrections, _ = refine(
            traj, np.diff(traj.xy, axis=0), RefineConfig(epochs=30))
        assert np.array_equal(refined.xy, traj.xy)
        assert not corrections.r.any()
        assert not corrections.l.any()

    def test_history_has_initial_plus_final_entry(self):
        """One entry per epoch, the first at the untrained network, plus
        the trained network's; the identity baseline is never an entry,
        and the returned corrections score the history's minimum."""
        traj = _drifted(_circle(50), 0.01)
        v = np.diff(traj.xy, axis=0)
        _, corrections, history = refine(traj, v, RefineConfig(epochs=12))
        assert len(history) == 13
        assert history[0].total != refinement_loss(traj, _zero_params(50), v).total
        totals = np.array([h.total for h in history])
        running_min = np.minimum.accumulate(totals)
        assert np.all(np.diff(running_min) <= 0)
        assert corrections.r.any()
        assert refinement_loss(traj, corrections, v) == history[int(np.argmin(totals))]

    def test_deterministic_for_fixed_seed(self):
        traj = _drifted(_circle(80), 0.005)
        v = np.diff(traj.xy, axis=0)
        first = refine(traj, v, RefineConfig(epochs=15))
        second = refine(traj, v, RefineConfig(epochs=15))
        assert np.array_equal(first[1].r, second[1].r)
        assert np.array_equal(first[1].l, second[1].l)
        assert [h.total for h in first[2]] == [h.total for h in second[2]]

    def test_seed_changes_the_fit(self):
        traj = _drifted(_circle(80), 0.005)
        v = np.diff(traj.xy, axis=0)
        a = refine(traj, v, RefineConfig(epochs=15, seed=0))
        b = refine(traj, v, RefineConfig(epochs=15, seed=1))
        assert not np.array_equal(a[1].l, b[1].l)

    def test_output_bits_pinned(self):
        """The refined positions, the corrections and every loss-history
        total, bit for bit (recorded with numpy 2.4.6 on OpenBLAS 0.3.31).
        Reusing buffers must not change the arithmetic; a change of
        arithmetic, or of numpy/BLAS build, moves these bits.  So does the
        BLAS thread count: on a 2-core host these bits hold with
        OpenBLAS's default threads and not under OPENBLAS_NUM_THREADS=1,
        the setting perfbench gives its commands (the CLI's
        ``PIPELINE_SHA256`` holds under both)."""
        traj = _drifted(_circle(400), 0.02)
        refined, corrections, history = refine(traj, np.diff(traj.xy, axis=0), RefineConfig())

        def digest(data):
            return hashlib.sha256(data).hexdigest()

        totals = [repr(h.total) for h in history]
        assert len(totals) == 101
        assert (totals[0], min(h.total for h in history)) == (
            "0.4369288358899473", 5.6126715140914685e-05)
        assert digest(",".join(totals).encode()) == (
            "02956f010c4bb58fb7cad3b6a298ea926fc6f0a675b246ebbaa3308cb4529982")
        assert digest(refined.xy.tobytes()) == (
            "5d0873c66afd24220f66521b8700ba4e13f2963385b5cca32955fdd2210d35cb")
        assert digest(corrections.r.tobytes()) == (
            "c549ff193f66820deabd24343901be144cffd003cb06fe066b333ff3baf6d9f1")
        assert digest(corrections.l.tobytes()) == (
            "2fc957de64050e0969834f91c63550358fd961e263f51e86634c9b5096e8fcb3")

    def test_non_identity_refine_bits_pinned(self):
        """A refine that beats its input, so ``apply_corrections`` runs on
        nonzero corrections: refined positions, corrections and history
        totals, bit for bit (recorded like the pin above, and like it
        moved by OPENBLAS_NUM_THREADS=1)."""
        traj = _drifted(_circle(400), 0.002)
        refined, corrections, history = refine(
            traj, np.diff(traj.xy, axis=0), RefineConfig(epochs=40))

        def digest(data):
            return hashlib.sha256(data).hexdigest()

        assert corrections.r.any() and corrections.l.any()
        totals = [repr(h.total) for h in history]
        assert len(totals) == 41
        assert digest(",".join(totals).encode()) == (
            "5b889e33dcfc7b1347e4761a653858e412437a903c77e6530b2dd9b4466efda1")
        assert digest(refined.xy.tobytes()) == (
            "e58e37373122800abdad6593fca67e3e4ed9c2bb64e9b503ea2b3214a8b1858d")
        assert digest(corrections.r.tobytes()) == (
            "aed2a752ea1faddff36b0ebc09367aed4292c4f8775903b060292533cdc0967d")
        assert digest(corrections.l.tobytes()) == (
            "3aeabf41ebe1790d19ef01fac87f414ade570f51b9e5ed458dec3329acfee04d")

    def test_two_frame_trajectory_supported(self):
        traj = _traj([[0.0, 0.0], [0.1, 0.0]])
        refined, corrections, history = refine(
            traj, np.array([[0.1, 0.0]]), RefineConfig(epochs=3))
        assert len(refined) == 2
        assert len(corrections) == 2
        assert np.all(np.abs(corrections.r) <= np.pi)

    def test_single_frame_rejected(self):
        traj = _traj([[0.0, 0.0]])
        with pytest.raises(ValueError, match="at least two frames"):
            refine(traj, np.zeros((0, 2)))

    def test_divergence_reports_epoch_and_rate(self):
        traj = _drifted(_circle(60), 0.01)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match=r"diverged at epoch \d+ \(learning_rate="):
                refine(traj, np.diff(traj.xy, axis=0),
                       RefineConfig(epochs=5, learning_rate=1e200))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            RefineConfig(epochs=0)
        with pytest.raises(ValueError, match="learning_rate"):
            RefineConfig(learning_rate=0.0)


class TestCorrectionFiles:
    def test_round_trip_is_exact(self, tmp_path):
        """One JSON object per frame, in frame order, whose floats read
        back to the same bits."""
        rng = np.random.default_rng(3)
        params = CorrectionParams(
            rng.uniform(-np.pi, np.pi, 17), rng.normal(0.0, 0.3, (17, 2)))
        path = tmp_path / "corrections.jsonl"
        save_corrections(params, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["frame"] for rec in records] == list(range(17))
        assert all(set(rec) == {"frame", "r", "lx", "ly"} for rec in records)
        assert np.array_equal([rec["r"] for rec in records], params.r)
        assert np.array_equal([[rec["lx"], rec["ly"]] for rec in records], params.l)

    def test_loss_history_csv_shape(self, tmp_path):
        traj = _drifted(_circle(50), 0.01)
        _, _, history = refine(traj, np.diff(traj.xy, axis=0), RefineConfig(epochs=4))
        path = tmp_path / "loss.csv"
        save_loss_history(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == LOSS_CSV_HEADER
        assert len(lines) == len(history) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == history[0].total
