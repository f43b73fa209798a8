#!/usr/bin/env python3
"""Full pipeline on a synthetic sweep: IMU -> orientation -> windows ->
rotation-averaged velocities -> each window's velocity at its centre,
summed frame by frame -> evaluation."""

import numpy as np

import sweepnav as sn
from sweepnav.estimator import OracleConfig, OracleVelocityEstimator
from sweepnav.rae import RaeConfig, rae_estimate

cfg = sn.SimConfig(room_width=4.0, room_height=2.0, row_spacing=1.0,
                   acc_noise=0.05, gyro_noise=0.002, seed=3)
gt = sn.generate_trajectory(cfg)
imu = sn.synthesize_imu(gt, cfg)
print(f"sweep: {len(gt)} frames, {gt.t[-1]:.1f} s, "
      f"{gt.path_length():.1f} m of travel")

orients = sn.estimate_orientation(imu)
hacf = sn.to_hacf(imu, orients)  # (2, n, 3): acceleration, angular rate
windows = sn.make_windows(hacf, tau=64)  # (N, 2, 65, 3): acc block, gyro block
starts = 64 * np.arange(len(windows))
print(f"windowing: {len(windows)} windows of tau+1 = 65 samples")

# the oracle estimator stands in for a trained network; it returns the
# true window velocity with a fixed input-frame bias, which is what the
# rotation ensemble is there to cancel
model = OracleVelocityEstimator(gt, OracleConfig(bias=(0.05, 0.02)))

for k in (1, 5):
    ens = rae_estimate(windows, starts, model, RaeConfig(k=k))
    held = sn.held_velocities(ens.v, starts, len(imu), 64)
    est = sn.integrate(held, sn.relative_yaw(orients), frame_rate=gt.frame_rate)
    report, _ = sn.evaluate(gt, est)
    print(f"K={k}: rte {report.rte:.3f} m, rte_metric {report.rte_metric:.3f} m, "
          f"rre {report.rre:.4f} rad")
