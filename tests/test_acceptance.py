"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured values so a
verbose run doubles as the acceptance report.  Criterion bounds are
asserted exactly as stated; a failing criterion therefore means the
implementation genuinely does not reach the stated bound, not that a
tolerance was bumped.
"""

import json
import time

import numpy as np
import pytest

import sweepnav as sn
from sweepnav.cli import main as cli_main
from sweepnav.estimator import OracleConfig, OracleVelocityEstimator, estimate_velocity
from sweepnav.loop_closure import CorrectionMlp, CorrectionParams, RefineConfig, _loss, \
    apply_corrections, loss_and_gradients, refine
from sweepnav.metrics import AlignmentResult, align_similarity, apply_alignment
from sweepnav.object_map import observe_items
from sweepnav.rae import RaeConfig, rae_estimate

from .oracles import (
    apply_similarity_ref,
    corrected_positions_ref,
    correction_mlp_init_ref,
    line_trajectory,
    numeric_gradients,
    quantization_bound,
    random_similarity,
    turn_in_place_trajectory,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _sixty_second_config(**kw) -> sn.SimConfig:
    """A ~60 s closed sweep (6.5 m x 2 m room, T = 3072 frames)."""
    return sn.SimConfig(room_width=6.5, room_height=2.0, row_spacing=1.0, **kw)


@pytest.fixture(scope="module")
def sweep_60s() -> sn.Trajectory:
    return sn.generate_trajectory(_sixty_second_config())


def _drifted(traj, rate_per_frame):
    """Rotate each increment by a linearly growing heading error."""
    xy = traj.xy
    inc = np.diff(xy, axis=0)
    ang = rate_per_frame * np.arange(1, len(xy))
    c, s = np.cos(ang), np.sin(ang)
    rot = np.stack([c * inc[:, 0] - s * inc[:, 1],
                    s * inc[:, 0] + c * inc[:, 1]], axis=1)
    out = np.vstack([xy[0], xy[0] + np.cumsum(rot, axis=0)])
    yaw = sn.wrap_angle(traj.yaw + np.concatenate([[0.0], ang]))
    return sn.Trajectory(traj.t, out, yaw, traj.frame_rate)


def _estimate_trajectory(gt, imu, k, bias=(0.05, 0.02), tau=64, stride=None):
    """Noisy recording through orientation, RAE(K) and integration."""
    orients = sn.estimate_orientation(imu)
    hacf = sn.to_hacf(imu, orients)
    stride = stride or tau
    windows = sn.make_windows(hacf, tau=tau, stride=stride)
    starts = stride * np.arange(len(windows))
    model = OracleVelocityEstimator(gt, OracleConfig(bias=bias))
    ens = rae_estimate(windows, starts, model, RaeConfig(k=k))
    held = sn.held_velocities(ens.v, starts, len(imu), tau)
    est = sn.integrate(held, sn.relative_yaw(orients), frame_rate=gt.frame_rate)
    return est, held


class TestCriterion01RaeExactness:
    def test_ensemble_equals_single_estimate_on_equivariant_model(self, sweep_60s):
        t0 = time.perf_counter()
        model = OracleVelocityEstimator(sweep_60s)
        starts = np.arange(0, 2000, 100)
        windows = np.zeros((len(starts), 2, 65, 3))
        single = estimate_velocity(windows, starts, [0.0], model).v[:, 0]
        worst = 0.0
        for k in (1, 3, 5):
            for reducer in ("mean", "median"):
                ens = rae_estimate(windows, starts, model, RaeConfig(k=k, reducer=reducer)).v
                worst = max(worst, float(np.linalg.norm(ens - single, axis=1).max()))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-12 and elapsed < 1.0
        _report("1 (ensemble exactness)", ok,
                f"worst |ensemble - single| = {worst:.2e} over K in (1,3,5) x "
                f"(mean, median), {elapsed:.2f} s")
        assert worst < 1e-12
        assert elapsed < 1.0


class TestCriterion02BiasCancellation:
    BIAS = np.array([0.1, 0.0])

    def _window_error(self, k, reducer):
        line = line_trajectory(speed=0.5, n_frames=201)
        model = OracleVelocityEstimator(line, OracleConfig(bias=self.BIAS))
        starts = np.array([0, 40, 90, 130])
        ens = rae_estimate(np.zeros((len(starts), 2, 65, 3)), starts, model,
                           RaeConfig(k=k, reducer=reducer))
        return float(np.linalg.norm(ens.v - np.array([0.5, 0.0]), axis=1).max())

    def test_grid_k4_mean_cancels_exactly(self):
        t0 = time.perf_counter()
        err = self._window_error(4, "mean")
        elapsed = time.perf_counter() - t0
        _report("2a (K=4 mean bias)", err < 1e-12 and elapsed < 1.0,
                f"error = {err:.2e} (bound 1e-12), {elapsed:.2f} s")
        assert err < 1e-12
        assert elapsed < 1.0

    def test_grid_k5_median_reaches_one_tenth_of_bias(self):
        """The stated bound is error < 0.1 * |b| = 0.01 m/s.  A K=5 grid
        puts the back-rotated bias on a regular pentagon about the true
        velocity, and the geometric median of a regular pentagon is its
        centre, so the error is at rounding level in every phase."""
        t0 = time.perf_counter()
        err = self._window_error(5, "median")
        bound = 0.1 * float(np.linalg.norm(self.BIAS))
        elapsed = time.perf_counter() - t0
        _report("2b (K=5 median bias)", err < bound,
                f"error = {err:.2e} m/s vs stated bound {bound:.4f} m/s, "
                f"{elapsed:.2f} s")
        assert elapsed < 1.0
        assert err < bound, (
            f"K=5 grid median leaves {err:.4f} m/s of a 0.1 m/s input-frame "
            f"bias; the geometric median of five back-rotated bias vectors "
            f"is the centre of their pentagon, the true velocity."
        )


class TestCriterion03EndToEndOrdering:
    def test_k5_beats_k1_on_at_least_nine_of_ten_seeds(self, sweep_60s):
        t0 = time.perf_counter()
        wins = 0
        pairs = []
        for seed in range(10):
            cfg = _sixty_second_config(acc_noise=0.05, gyro_noise=0.002, seed=seed)
            imu = sn.synthesize_imu(sweep_60s, cfg)
            rtes = {}
            for k in (1, 5):
                est, _ = _estimate_trajectory(sweep_60s, imu, k)
                rtes[k] = sn.evaluate(sweep_60s, est)[0].rte_metric
            pairs.append((rtes[1], rtes[5]))
            wins += rtes[5] < rtes[1]
        elapsed = time.perf_counter() - t0
        ok = wins >= 9 and elapsed < 30.0
        _report("3 (RAE ordering)", ok,
                f"RTE-metric K=5 < K=1 on {wins}/10 seeds "
                f"(K=1 {pairs[0][0]:.3f} m vs K=5 {pairs[0][1]:.3f} m), "
                f"{elapsed:.1f} s")
        assert wins >= 9
        assert elapsed < 30.0


class TestExactVelocitiesGiveTheExactPath:
    """At K = 5 the ensemble cancels the oracle's input-frame bias, so the
    windows' velocities are exact.  Each applied at its centre and summed
    frame by frame, they must give back the closed true path at any
    stride: overlapping windows applied early, or a filter between the
    velocities and the positions, would show as a gap of centimetres."""

    @pytest.fixture(scope="class", params=[
        {"room_width": 6.5, "room_height": 2.0},  # perfbench sweep60
        {"room_width": 20.0, "room_height": 6.0},  # perfbench long_sweep
    ], ids=["sweep60", "long_sweep"])
    def recording(self, request):
        cfg = sn.SimConfig(acc_noise=0.05, gyro_noise=0.002, seed=1, **request.param)
        gt = sn.generate_trajectory(cfg)
        return gt, sn.synthesize_imu(gt, cfg)

    @pytest.mark.parametrize("stride", [1, 16, 64])
    def test_rte_metric_and_closure_gap_below_a_millimetre(self, recording, stride):
        gt, imu = recording
        est, _ = _estimate_trajectory(gt, imu, 5, stride=stride)
        rte = sn.evaluate(gt, est)[0].rte_metric
        gap = float(np.linalg.norm(est.xy[-1] - est.xy[0]))
        print(f"exact path, T={len(gt)}, stride {stride}: "
              f"RTE-metric {rte:.2e} m, closure gap {gap:.2e} m")
        assert rte <= 1e-3
        assert gap <= 1e-3


class TestCriterion04LoopClosureEfficacy:
    def test_drift_fixture_gap_cut_without_rte_regression(self, sweep_60s):
        t0 = time.perf_counter()
        bad = _drifted(sweep_60s, 0.001)
        gap0 = float(np.linalg.norm(bad.xy[-1] - bad.xy[0]))
        rte0 = sn.evaluate(sweep_60s, bad)[0].rte_metric
        v = np.diff(bad.xy, axis=0)
        # epochs pinned at 100; the step size is free configuration and
        # 0.08 lets the correction offset travel the ~7 m gap
        refined, _, _ = refine(bad, v, RefineConfig(epochs=100, learning_rate=0.08))
        gap1 = float(np.linalg.norm(refined.xy[-1] - bad.xy[0]))
        rte1 = sn.evaluate(sweep_60s, refined)[0].rte_metric
        elapsed = time.perf_counter() - t0
        cut = 1.0 - gap1 / gap0
        ok = cut >= 0.90 and rte1 <= 1.05 * rte0 and elapsed < 60.0
        _report("4 (loop closure)", ok,
                f"T={len(bad)}, endpoint gap {gap0:.3f} -> {gap1:.3f} m "
                f"({100 * cut:.1f}% cut), RTE-metric {rte0:.4f} -> {rte1:.4f} m "
                f"({100 * (rte1 / rte0 - 1):+.2f}%), {elapsed:.1f} s")
        assert cut >= 0.90
        assert rte1 <= 1.05 * rte0
        assert elapsed < 60.0


class TestCriterion05GradientCheck:
    def test_twenty_random_instances_within_1e4(self):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(2000, 2020):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 51))
            start = rng.normal(0.0, 1.0, 2)
            xy = np.vstack([start,
                            start + np.cumsum(rng.normal(0.0, 0.03, (n - 1, 2)), axis=0)])
            v = np.diff(xy, axis=0) + rng.normal(0.0, 0.01, (n - 1, 2))
            mlp = CorrectionMlp(correction_mlp_init_ref(seed, 64))
            # bias offsets keep ReLU inputs away from their kinks so the
            # finite-difference probes stay on one linear piece
            mlp.params[1][:] = rng.choice([-0.08, 0.08], size=mlp.params[1].shape)
            mlp.params[3][:] = rng.choice([-0.08, 0.08], size=mlp.params[3].shape)
            _, grads = loss_and_gradients(xy, mlp, v)

            def fn():  # the loss alone: the total loss_and_gradients returns
                return _loss(xy, *mlp.forward(n), v, grads=False)[0][0]

            numeric = numeric_gradients(fn, mlp.params, h=1e-5)
            for analytic, approx in zip(grads, numeric):
                denom = max(np.linalg.norm(analytic), np.linalg.norm(approx), 1e-6)
                worst = max(worst, float(np.linalg.norm(analytic - approx) / denom))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-4 and elapsed < 30.0
        _report("5 (gradient check)", ok,
                f"worst relative error {worst:.2e} over 20 instances (T <= 50), "
                f"{elapsed:.1f} s")
        assert worst < 1e-4
        assert elapsed < 30.0


class TestCriterion06CorrectionEquivalence:
    def test_hundred_random_instances_match_brute_force(self):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(3000, 3100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 201))
            xy = np.cumsum(rng.normal(0.0, 0.1, (n, 2)), axis=0)
            traj = sn.Trajectory(np.arange(n) / 50.0, xy, np.zeros(n), 50.0)
            params = CorrectionParams(rng.uniform(-np.pi, np.pi, n),
                                      rng.normal(0.0, 0.5, (n, 2)))
            got = apply_corrections(traj, params).xy
            want = corrected_positions_ref(xy, params.r, params.l)
            worst = max(worst, float(np.abs(got - want).max()))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-9 and elapsed < 5.0
        _report("6 (correction oracle)", ok,
                f"worst |fast - brute force| = {worst:.2e} over 100 instances "
                f"(T <= 200), {elapsed:.1f} s")
        assert worst < 1e-9
        assert elapsed < 5.0


class TestCriterion07AlignmentOracle:
    def test_fifty_random_transforms_recovered(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(4000)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 60))
            gt = rng.normal(0.0, 2.0, (n, 2))
            s, theta, t = random_similarity(rng)
            # forward model: gt = s * R(theta) @ est + t
            est = apply_similarity_ref(gt - t, 1.0 / s, -theta, np.zeros(2))
            free = align_similarity(gt, est, fix_scale=False, trim_outliers=False)
            worst = max(worst,
                        abs(free.scale - s),
                        abs(float(sn.wrap_angle(free.rotation - theta))),
                        float(np.abs(free.translation - t).max()),
                        float(np.abs(apply_alignment(est, free) - gt).max()))
            fixed = align_similarity(gt, est, fix_scale=True, trim_outliers=False)
            assert fixed.rmse >= free.rmse - 1e-12
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-9 and elapsed < 1.0
        _report("7 (alignment oracle)", ok,
                f"worst parameter/residual error {worst:.2e} over 50 transforms "
                f"(scale in [0.5, 2]), fixed >= free RMSE everywhere, {elapsed:.2f} s")
        assert worst < 1e-9
        assert elapsed < 1.0


class TestCriterion08MetricInvariances:
    def _make(self, seed=0):
        rng = np.random.default_rng(seed)
        n = 120
        xy = np.cumsum(rng.normal(0.0, 0.1, (n, 2)), axis=0)
        yaw = sn.wrap_angle(np.cumsum(rng.normal(0.0, 0.05, n)))
        gt = sn.Trajectory(np.arange(n) / 50.0, xy, yaw, 50.0)
        est_xy = xy + rng.normal(0.0, 0.02, (n, 2))
        est = sn.Trajectory(gt.t, est_xy, yaw, 50.0)
        return gt, est

    def test_invariances_and_wrap_case(self):
        gt, est = self._make()
        base = sn.evaluate(gt, est)[0]
        rng = np.random.default_rng(1)
        s, theta, t = random_similarity(rng)
        sim_est = sn.Trajectory(est.t, apply_similarity_ref(est.xy, s, theta, t),
                                sn.wrap_angle(est.yaw + theta), est.frame_rate)
        sim_rep = sn.evaluate(gt, sim_est)[0]
        rte_drift = abs(sim_rep.rte - base.rte)
        rre_drift = abs(sim_rep.rre - base.rre)

        rigid_est = sn.Trajectory(est.t, apply_similarity_ref(est.xy, 1.0, 0.7,
                                                              np.array([3.0, -1.0])),
                                  sn.wrap_angle(est.yaw + 0.7), est.frame_rate)
        rigid_rep = sn.evaluate(gt, rigid_est)[0]
        metric_rigid_drift = abs(rigid_rep.rte_metric - base.rte_metric)
        scaled_est = sn.Trajectory(est.t, est.xy * 1.5, est.yaw, est.frame_rate)
        scaled_rep = sn.evaluate(gt, scaled_est)[0]
        metric_scale_gap = abs(scaled_rep.rte_metric - base.rte_metric)

        n = 10
        wrap_gt = sn.Trajectory(np.arange(n) / 50.0,
                                np.column_stack([np.arange(n) * 0.1, np.zeros(n)]),
                                np.full(n, 3.1), 50.0)
        wrap_est = sn.Trajectory(wrap_gt.t, wrap_gt.xy, np.full(n, -3.1), 50.0)
        wrap_rre = sn.evaluate(wrap_gt, wrap_est)[0].rre
        expected = 2.0 * np.pi - 6.2

        ok = (rte_drift < 1e-9 and rre_drift < 1e-9
              and metric_rigid_drift < 1e-9 and metric_scale_gap > 1e-6
              and abs(wrap_rre - expected) < 1e-9)
        _report("8 (metric invariances)", ok,
                f"RTE drift under similarity {rte_drift:.2e}, RTE-metric drift "
                f"under rigid {metric_rigid_drift:.2e} (scale changes it by "
                f"{metric_scale_gap:.3f} m), RRE(3.1 vs -3.1) = {wrap_rre:.4f} rad "
                f"(expected {expected:.4f})")
        assert rte_drift < 1e-9
        assert rre_drift < 1e-9
        assert metric_rigid_drift < 1e-9
        assert metric_scale_gap > 1e-6
        assert abs(wrap_rre - expected) < 1e-9


class TestCriterion09CaptureSchedule:
    def test_counts_and_spacing_invariant(self, sweep_60s):
        line = line_trajectory(speed=0.5, n_frames=501)  # 5 m
        line_caps = sn.capture_schedule(line, distance_m=1.0)
        spin = turn_in_place_trajectory(np.deg2rad(200.0), n_frames=201)
        spin_caps = sn.capture_schedule(spin, distance_m=1.0, rotation_rad=np.pi / 2)

        violations = 0
        runs = [sweep_60s,
                sn.generate_trajectory(sn.SimConfig()),
                sn.generate_trajectory(sn.SimConfig(turn_model="stop_and_turn"))]
        d, th = 1.0, np.pi / 2
        for traj in runs:
            caps = sn.capture_schedule(traj, distance_m=d, rotation_rad=th)
            xy, yaw = traj.xy, traj.yaw
            for a, b in zip(caps, caps[1:]):
                seg = np.linalg.norm(np.diff(xy[a.frame:b.frame + 1], axis=0), axis=1)
                rot = np.abs(sn.wrap_angle(np.diff(yaw[a.frame:b.frame + 1])))
                dist_cum, rot_cum = seg.cumsum(), rot.cumsum()
                if not (np.all(dist_cum[:-1] < d) and np.all(rot_cum[:-1] < th)):
                    violations += 1
                if not (dist_cum[-1] >= d * (1 - 1e-9)
                        or rot_cum[-1] >= th * (1 - 1e-9)):
                    violations += 1

        ok = len(line_caps) == 6 and len(spin_caps) == 3 and violations == 0
        _report("9 (capture schedule)", ok,
                f"5 m line -> {len(line_caps)} captures (want 6), 200 deg spin -> "
                f"{len(spin_caps)} captures (want 3), spacing violations on "
                f"{len(runs)} simulated runs: {violations}")
        assert len(line_caps) == 6
        assert len(spin_caps) == 3
        assert violations == 0


class TestCriterion10ObjectMapping:
    ITEMS = {
        "milk": (1.0, 0.0), "cereal": (2.2, 0.0), "soap": (3.4, 0.0),
        "coffee": (4.6, 0.0), "pasta": (1.3, 1.0), "rice": (2.5, 1.0),
        "juice": (3.7, 1.0), "flour": (4.9, 1.0), "honey": (1.6, 2.0),
        "tea": (2.8, 2.0),
    }

    def test_round_trip_and_estimated_pose_degradation(self):
        t0 = time.perf_counter()
        cfg = sn.SimConfig(room_width=6.0, room_height=2.0, row_spacing=1.0,
                           acc_noise=0.05, gyro_noise=0.002, seed=0)
        gt_traj = sn.generate_trajectory(cfg)
        captures = sn.capture_schedule(gt_traj, distance_m=0.5)
        rasters, records, gt_items = sn.generate_scene(captures, self.ITEMS, cfg)

        def run_map(traj, alignment):
            obs = []
            for ev, raster, rec in zip(captures, rasters, records):
                if rec.items:
                    obs.extend(observe_items(rec, raster, traj.pose(rec.frame)))
            clusters = sn.cluster_items(obs)
            return sn.evaluate_map(clusters, gt_items, alignment)

        identity = AlignmentResult(1.0, 0.0, np.zeros(2), np.ones(1, dtype=bool), 0.0)
        rep_gt = run_map(gt_traj, identity)
        bound = 2.0 * quantization_bound()

        imu = sn.synthesize_imu(gt_traj, cfg)
        est, held = _estimate_trajectory(gt_traj, imu, k=5)
        refined, _, _ = refine(est, held[1:] / gt_traj.frame_rate, RefineConfig())
        frames = np.array(sorted({r.frame for r in records if r.items}))
        traj_rep, alignment = sn.evaluate(gt_traj, refined, frames=frames)
        rep_est = run_map(refined, alignment)
        degradation = rep_est.mean_error - rep_gt.mean_error
        degr_bound = traj_rep.rte_metric + 0.2
        elapsed = time.perf_counter() - t0

        ok = (rep_gt.n_matched >= 9 and rep_gt.mean_error < bound
              and degradation < degr_bound and elapsed < 60.0)
        _report("10 (object mapping)", ok,
                f"GT poses: {rep_gt.n_matched}/10 matched, mean error "
                f"{rep_gt.mean_error:.4f} m (bound {bound:.2f}); estimated poses: "
                f"{rep_est.n_matched}/10, mean {rep_est.mean_error:.4f} m, "
                f"degradation {degradation:.4f} < RTE-metric + 0.2 = "
                f"{degr_bound:.4f}, {elapsed:.1f} s")
        assert rep_gt.n_matched >= 9
        assert rep_gt.mean_error < bound
        assert degradation < degr_bound
        assert elapsed < 60.0


class TestCriterion11ComputationTime:
    def test_rae_inference_and_refinement_budgets(self, sweep_60s):
        cfg = _sixty_second_config(acc_noise=0.05, gyro_noise=0.002, seed=0)
        imu = sn.synthesize_imu(sweep_60s, cfg)
        t0 = time.perf_counter()
        est, held = _estimate_trajectory(sweep_60s, imu, k=5)
        t_infer = time.perf_counter() - t0
        t0 = time.perf_counter()
        refine(est, held[1:] / sweep_60s.frame_rate, RefineConfig())
        t_refine = time.perf_counter() - t0
        ok = t_infer < 10.0 and t_refine < 1.0
        _report("11 (computation time)", ok,
                f"60 s of 50 Hz IMU: RAE K=5 inference {t_infer:.2f} s "
                f"(budget 10 s), loop-closure refinement {t_refine:.2f} s "
                f"(budget 1 s)")
        assert t_infer < 10.0
        assert t_refine < 1.0


class TestCriterion12Determinism:
    COMMANDS = [
        ["simulate", "--out", "{ds}", "--seed", "7",
         "--set", "sim.n_items=4", "--set", "capture.distance_m=0.5",
         "--set", "sim.acc_noise=0.05", "--set", "sim.gyro_noise=0.002"],
        ["infer", "--dataset", "{ds}"],
        ["refine", "--dataset", "{ds}"],
        ["eval", "--dataset", "{ds}"],
        ["map", "--dataset", "{ds}", "--trajectory", "gt"],
        ["plot", "--dataset", "{ds}"],
    ]

    @staticmethod
    def _tree(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.startswith("run_meta")
        }

    def test_every_command_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        diffs = []
        for argv in self.COMMANDS:
            for ds in (a, b):
                concrete = [part.replace("{ds}", str(ds)) for part in argv]
                assert cli_main(concrete) == 0, f"{argv[0]} failed"
            ta, tb = self._tree(a), self._tree(b)
            if set(ta) != set(tb):
                diffs.append(f"{argv[0]}: file sets differ")
            else:
                changed = [name for name in ta if ta[name] != tb[name]]
                if changed:
                    diffs.append(f"{argv[0]}: {changed}")
        _report("12 (determinism)", not diffs,
                "all six commands byte-identical across reruns (run_meta_* "
                "timing files excluded)" if not diffs else "; ".join(diffs))
        assert not diffs
