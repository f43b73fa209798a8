#!/usr/bin/env python3
"""How the rotation ensemble cancels an input-frame velocity bias.

Rotating the window by theta and back-rotating the estimate turns a
constant estimator bias b into R(-theta) b.  Over a uniform angle grid
those rotated copies form a regular polygon about the true velocity
(a centred segment for K = 2).  The mean and the geometric median both
commute with rotation and land on its centre, so either reducer removes
the bias exactly for any K >= 2."""

import numpy as np

import sweepnav as sn
from sweepnav.estimator import OracleConfig, OracleVelocityEstimator
from sweepnav.rae import RaeConfig, rae_estimate

n = 201
t = np.arange(n) / 50.0
line = sn.Trajectory(t, np.column_stack([0.5 * t, np.zeros(n)]), np.zeros(n), 50.0)

bias = np.array([0.1, 0.0])
model = OracleVelocityEstimator(line, OracleConfig(bias=bias))
# one window starting at frame 40; the oracle reads only where it starts
windows, starts = np.zeros((1, 2, 65, 3)), np.array([40])
truth = np.array([0.5, 0.0])

print(f"injected bias: {np.linalg.norm(bias):.2f} m/s along +x")
print(f"{'K':>3} {'mean err':>10} {'median err':>11}")
for k in (1, 2, 3, 4, 5, 9, 33):
    errs = []
    for reducer in ("mean", "median"):
        ens = rae_estimate(windows, starts, model, RaeConfig(k=k, reducer=reducer))
        errs.append(np.linalg.norm(ens.v[0] - truth))
    print(f"{k:>3} {errs[0]:>10.2e} {errs[1]:>11.2e}")

print("\nboth cancel exactly from K=2: the grid copies form a regular polygon")
print("about the truth, and its mean and geometric median are its centre")
