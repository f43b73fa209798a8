#!/usr/bin/env python3
"""Building an item map from captioned depth captures.

The simulator renders a depth raster at each capture pose and reports
which item sits dead ahead inside the caption cone.  Unprojecting the
image-center depth through the camera mount and the capture pose puts
each sighting into world coordinates; clustering by name collapses the
sightings into one entry per product."""

import numpy as np

import sweepnav as sn
from sweepnav.object_map import cluster_items, observe_items

cfg = sn.SimConfig(room_width=6.0, room_height=2.0, row_spacing=1.0)
items = {"milk": (1.0, 0.0), "cereal": (2.6, 0.0), "soap": (4.2, 0.0),
         "pasta": (1.8, 1.0), "rice": (3.4, 1.0), "tea": (2.2, 2.0)}

gt = sn.generate_trajectory(cfg)
captures = sn.capture_schedule(gt, distance_m=0.5)
rasters, records, gt_items = sn.generate_scene(captures, items, cfg)
captioned = [r for r in records if r.items]
print(f"{len(captures)} captures, {len(captioned)} with an item in the cone")

observations = []
for raster, rec in zip(rasters, records):
    if rec.items:
        observations.extend(observe_items(rec, raster, gt.pose(rec.frame)))

clusters = cluster_items(observations)
report = sn.evaluate_map(clusters, gt_items)
print(f"{len(clusters)} clusters from {len(observations)} sightings")
for c in sorted(clusters, key=lambda c: c.name):
    true_xy = np.asarray(gt_items[c.name][:2])
    err = np.linalg.norm(c.centroid[:2] - true_xy)
    print(f"  {c.name:<8} ({c.centroid[0]:.2f}, {c.centroid[1]:.2f}) "
          f"n_obs={c.n_observations:<3} err={err:.3f} m")
print(f"matched {report.n_matched}/{len(items)}, "
      f"mean planar error {report.mean_error:.3f} m")
