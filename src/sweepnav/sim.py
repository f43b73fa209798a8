"""Synthetic coverage runs: trajectories, IMU streams, and scenes.

The generator produces the fixtures the rest of the pipeline consumes:
a boustrophedon sweep of a rectangular room that starts and ends at the
charge-station corner (closed loop by construction), the device-frame
IMU stream a horizontally mounted phone would record along it, and a
visual scene (depth rasters plus captions) for the object-mapping
stage.  Everything is deterministic given config and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MapConfig, SceneConfig, SimConfig
from .geometry import median, quat_about_z
from .imu import ImuSequence
from .object_map import CaptionRecord, DepthRaster, center_region, normalize_name
from .orientation import OrientationSequence
from .trajectory import CaptureEvent, Trajectory, image_id_for_frame


# ---------------------------------------------------------------------------
# Trajectory generation
#
# The path is a list of segments (lines, constant-radius arcs, in-place
# spins), each parametrized by traversal time at the configured speed.
# Frames then sample the whole chain at the sample rate, stretched by
# at most half a frame period so the final frame lands exactly on the
# path end; this is what makes closure exact rather than approximate.


@dataclass(frozen=True)
class _Seg:
    kind: str  # "line" | "arc" | "spin"
    duration: float
    x0: float
    y0: float
    yaw0: float
    # line: (dx, dy); arc: (cx, cy, rho, dpsi); spin: unused
    dx: float = 0.0
    dy: float = 0.0
    cx: float = 0.0
    cy: float = 0.0
    rho: float = 0.0
    dyaw: float = 0.0


class _PathBuilder:
    def __init__(self, speed: float, turn_rate: float):
        self.speed = speed
        self.turn_rate = turn_rate
        self.x = 0.0
        self.y = 0.0
        self.yaw = 0.0  # unwrapped
        self.segs: list[_Seg] = []

    def line_to(self, x: float, y: float) -> None:
        dx, dy = x - self.x, y - self.y
        length = math.hypot(dx, dy)
        if length == 0.0:
            return
        self.segs.append(_Seg("line", length / self.speed, self.x, self.y,
                              self.yaw, dx=dx, dy=dy))
        self.x, self.y = x, y

    def arc(self, rho: float, dyaw: float) -> None:
        # Center sits perpendicular-left of the heading for CCW turns,
        # perpendicular-right for CW.
        side = math.copysign(1.0, dyaw)
        cx = self.x + rho * math.cos(self.yaw + side * math.pi / 2)
        cy = self.y + rho * math.sin(self.yaw + side * math.pi / 2)
        self.segs.append(_Seg("arc", rho * abs(dyaw) / self.speed, self.x, self.y,
                              self.yaw, cx=cx, cy=cy, rho=rho, dyaw=dyaw))
        psi1 = math.atan2(self.y - cy, self.x - cx) + dyaw
        self.x = cx + rho * math.cos(psi1)
        self.y = cy + rho * math.sin(psi1)
        self.yaw += dyaw

    def spin(self, dyaw: float) -> None:
        self.segs.append(_Seg("spin", abs(dyaw) / self.turn_rate, self.x, self.y,
                              self.yaw, dyaw=dyaw))
        self.yaw += dyaw


def _build_path(cfg: SimConfig) -> list[_Seg]:
    w, s = cfg.room_width, cfg.row_spacing
    m = int(math.floor(cfg.room_height / s + 1e-9))  # highest row index
    rho = s / 2.0
    b = _PathBuilder(cfg.speed, cfg.turn_rate)
    arc_turns = cfg.turn_model == "arc"
    for j in range(m + 1):
        rightward = j % 2 == 0
        far_x = w if rightward else 0.0
        if j == m and arc_turns:
            far_x = w - rho if rightward else rho  # corner cut of the return arc
        b.line_to(far_x, j * s)
        if j < m:
            dyaw = math.pi if rightward else -math.pi
            if arc_turns:
                b.arc(rho, dyaw)
            else:
                half = dyaw / 2.0
                b.spin(half)
                b.line_to(b.x, (j + 1) * s)
                b.spin(half)
    if m % 2 == 0:  # finished heading +x at the right side
        if arc_turns:
            b.arc(rho, -math.pi / 2)
            b.line_to(w, rho)
            b.arc(rho, -math.pi / 2)
        else:
            b.spin(-math.pi / 2)
            b.line_to(w, 0.0)
            b.spin(-math.pi / 2)
        b.line_to(0.0, 0.0)
    else:  # finished heading -x at the left side
        if arc_turns:
            b.arc(rho, math.pi / 2)
        else:
            b.spin(math.pi / 2)
        b.line_to(0.0, 0.0)
    return b.segs


def _sample_segment(seg: _Seg, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if seg.kind == "line":
        return seg.x0 + u * seg.dx, seg.y0 + u * seg.dy, np.full_like(u, seg.yaw0)
    if seg.kind == "arc":
        psi0 = math.atan2(seg.y0 - seg.cy, seg.x0 - seg.cx)
        psi = psi0 + u * seg.dyaw
        return (seg.cx + seg.rho * np.cos(psi), seg.cy + seg.rho * np.sin(psi),
                seg.yaw0 + u * seg.dyaw)
    return np.full_like(u, seg.x0), np.full_like(u, seg.y0), seg.yaw0 + u * seg.dyaw


def generate_trajectory(cfg: SimConfig) -> Trajectory:
    """Closed boustrophedon sweep of the room at the configured speed.

    Rows sit at y = j * spacing for j = 0..floor(height / spacing),
    joined by half-circle turns of radius spacing / 2 (or in-place
    spins), followed by a wall-following return leg to the start.  The
    first and last poses coincide to within floating-point roundoff.
    """
    segs = _build_path(cfg)
    durations = np.array([seg.duration for seg in segs])
    total = float(durations.sum())
    n = int(round(total * cfg.sample_rate_hz)) + 1
    if n < 2:
        n = 2
    tau = np.linspace(0.0, total, n)
    ends = np.cumsum(durations)
    starts = ends - durations
    idx = np.minimum(np.searchsorted(ends, tau, side="left"), len(segs) - 1)
    x = np.empty(n)
    y = np.empty(n)
    yaw = np.empty(n)
    for k, seg in enumerate(segs):
        mask = idx == k
        if not mask.any():
            continue
        u = np.clip((tau[mask] - starts[k]) / durations[k], 0.0, 1.0)
        x[mask], y[mask], yaw[mask] = _sample_segment(seg, u)
    t = np.arange(n) / cfg.sample_rate_hz
    return Trajectory(t, np.column_stack([x, y]), yaw, cfg.sample_rate_hz)


def true_orientations(traj: Trajectory) -> OrientationSequence:
    """Exact orientations of a planar trajectory (yaw about world z)."""
    q = np.array([quat_about_z(v) for v in traj.yaw])
    return OrientationSequence(traj.t, q)


def synthesize_imu(traj: Trajectory, cfg: SimConfig) -> ImuSequence:
    """Device-frame IMU stream a horizontally mounted phone would record.

    Specific force is the world planar acceleration rotated into the
    device frame plus gravity reaction (0, 0, 9.81); rates are
    (0, 0, yaw rate).  Accelerations come from a centered second
    difference (one-sided at the ends, which sets the noise-free
    round-trip floor); bias and Gaussian noise are added per config,
    with the accelerometer stream drawn before the gyroscope stream.
    """
    n = len(traj)
    if n < 3:
        raise ValueError("trajectory too short to synthesize IMU (need >= 3 frames)")
    if abs(traj.frame_rate - cfg.sample_rate_hz) > 1e-6:
        raise ValueError(
            f"trajectory rate {traj.frame_rate} Hz differs from config "
            f"{cfg.sample_rate_hz} Hz"
        )
    dt = 1.0 / traj.frame_rate
    a_world = np.zeros((n, 2))
    a_world[1:-1] = (traj.xy[2:] - 2.0 * traj.xy[1:-1] + traj.xy[:-2]) / dt ** 2
    a_world[0] = a_world[1]
    a_world[-1] = a_world[-2]
    yaw_u = np.unwrap(traj.yaw)
    rate = np.empty(n)
    rate[1:-1] = (yaw_u[2:] - yaw_u[:-2]) / (2.0 * dt)
    rate[0] = (yaw_u[1] - yaw_u[0]) / dt
    rate[-1] = (yaw_u[-1] - yaw_u[-2]) / dt
    c, s = np.cos(traj.yaw), np.sin(traj.yaw)
    acc = np.empty((n, 3))
    acc[:, 0] = c * a_world[:, 0] + s * a_world[:, 1]  # R(yaw)^T of planar accel
    acc[:, 1] = -s * a_world[:, 0] + c * a_world[:, 1]
    acc[:, 2] = 9.81
    gyro = np.zeros((n, 3))
    gyro[:, 2] = rate
    acc += np.asarray(cfg.acc_bias, dtype=float)
    gyro += np.asarray(cfg.gyro_bias, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    if cfg.acc_noise > 0:
        acc = acc + rng.normal(0.0, cfg.acc_noise, (n, 3))
    if cfg.gyro_noise > 0:
        gyro = gyro + rng.normal(0.0, cfg.gyro_noise, (n, 3))
    return ImuSequence(traj.t, acc, gyro)


# ---------------------------------------------------------------------------
# Scene generation


def _render_raster(pose, visible, room: tuple[float, float, float, float],
                   scene: SceneConfig, map_cfg: MapConfig) -> tuple[DepthRaster, np.ndarray]:
    """Depth image: nearest billboard per column, walls as background.

    Billboards are fronto-parallel strips (constant forward depth over
    their full pixel footprint), which makes the rendered depth exactly
    consistent with the pinhole unprojection the mapper applies.
    Returns the raster and its per-column depths (pre-quantization).
    """
    w, h, f = scene.width_px, scene.height_px, scene.focal_px
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ox, oy = pose.ahead(map_cfg.mount_forward)
    cyaw, syaw = math.cos(pose.yaw), math.sin(pose.yaw)
    u = np.arange(w, dtype=float)
    # Per-column ray in world coordinates, per unit forward depth.
    lat = -(u - cx) / f  # camera x right = robot -y
    dir_x = cyaw * 1.0 - syaw * lat
    dir_y = syaw * 1.0 + cyaw * lat
    xmin, xmax, ymin, ymax = room
    depth_cols = np.full(w, np.inf)
    for wall_val, axis in ((xmin, 0), (xmax, 0), (ymin, 1), (ymax, 1)):
        d = np.array([dir_x, dir_y][axis])
        o = (ox, oy)[axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (wall_val - o) / d
        hit_other = (oy, ox)[axis] + z * np.array([dir_y, dir_x][axis])
        lo, hi = ((ymin, ymax), (xmin, xmax))[axis]
        ok = (z > 0) & np.isfinite(z) & (hit_other >= lo - 1e-9) & (hit_other <= hi + 1e-9)
        depth_cols = np.where(ok & (z < depth_cols), z, depth_cols)
    for _, z_item, u_item, half_px in sorted(visible, key=lambda r: -r[1]):
        u_lo = int(math.ceil(u_item - half_px))
        u_hi = int(math.floor(u_item + half_px))
        if u_hi < 0 or u_lo > w - 1:
            continue
        depth_cols[max(u_lo, 0):min(u_hi, w - 1) + 1] = z_item
    depth_cols[~np.isfinite(depth_cols)] = 0.0
    depth = np.tile(depth_cols, (h, 1))
    return DepthRaster(w, h, np.ascontiguousarray(depth), f, cx, cy), depth_cols


def generate_scene(captures: list[CaptureEvent], items: dict[str, tuple[float, float]],
                   cfg: SimConfig, scene: SceneConfig | None = None,
                   map_cfg: MapConfig | None = None,
                   ) -> tuple[list[DepthRaster], list[CaptionRecord], dict[str, np.ndarray]]:
    """Render a depth raster and caption record per capture pose.

    Items are vertical billboards at known floor positions.  An item is
    captioned when its bearing from the camera axis is strictly inside
    ``caption_half_angle``, its forward depth lies in the caption band,
    and its billboard actually owns the image center (a nearer item may
    occlude it); the central-box median depth then equals the item
    depth exactly and the round-trip error is bounded by pixel
    quantization.
    """
    scene = scene or SceneConfig()
    map_cfg = map_cfg or MapConfig()
    for name, p in items.items():
        if not (0 <= p[0] <= cfg.room_width and 0 <= p[1] <= cfg.room_height):
            raise ValueError(f"item {name!r} at {tuple(p)} outside the room")
    room = (-scene.wall_margin, cfg.room_width + scene.wall_margin,
            -scene.wall_margin, cfg.room_height + scene.wall_margin)
    rasters: list[DepthRaster] = []
    records: list[CaptionRecord] = []
    for ev in captures:
        ox, oy = ev.pose.ahead(map_cfg.mount_forward)
        cyaw, syaw = math.cos(ev.pose.yaw), math.sin(ev.pose.yaw)
        visible = []
        candidates = []
        for name in sorted(items):
            ix, iy = items[name]
            dx, dy = ix - ox, iy - oy
            fwd = cyaw * dx + syaw * dy
            left = -syaw * dx + cyaw * dy
            if fwd <= 0:
                continue
            cam_x = -left  # camera x points right
            u_item = (scene.width_px - 1) / 2.0 + scene.focal_px * cam_x / fwd
            half_px = scene.focal_px * scene.item_radius / fwd
            visible.append((name, fwd, u_item, half_px))
            bearing = math.atan2(abs(cam_x), fwd)
            if (bearing < scene.caption_half_angle
                    and scene.caption_z_min <= fwd <= scene.caption_z_max):
                candidates.append((name, fwd))
        raster, depth_cols = _render_raster(ev.pose, visible, room, scene, map_cfg)
        # the columns of the box the mapper samples
        u0, _, u1, _ = center_region(raster, map_cfg.center_fraction)
        center_depth = float(median(depth_cols[u0:u1]))
        captioned = tuple(name for name, fwd in candidates
                          if abs(center_depth - fwd) <= 1e-6)
        rasters.append(raster)
        records.append(CaptionRecord(image_id_for_frame(ev.frame), ev.frame, captioned))
    ground_truth = {
        normalize_name(name): np.array([p[0], p[1], scene.item_z])
        for name, p in items.items()
    }
    return rasters, records, ground_truth


def default_items(cfg: SimConfig, n_items: int = 10, seed: int = 0) -> dict[str, tuple[float, float]]:
    """Uniquely named items spread along the sweep rows.

    Items sit on row lines so the robot drives straight at them during
    the sweep, giving every item at least one near-axis sighting.
    """
    names = ["milk", "cereal", "soap", "coffee", "pasta", "rice", "juice",
             "flour", "honey", "tea", "salt", "sugar", "beans", "oats", "jam"]
    rng = np.random.default_rng(seed)
    m = int(math.floor(cfg.room_height / cfg.row_spacing + 1e-9))
    items: dict[str, tuple[float, float]] = {}
    for i in range(n_items):
        name = names[i] if i < len(names) else f"item {i}"
        row = i % (m + 1)
        # Mid-row band keeps a >= 0.9 m approach window inside the
        # caption depth band in either sweep direction.
        frac = 0.35 + 0.3 * rng.random()
        items[name] = (float(frac * cfg.room_width), float(row * cfg.row_spacing))
    return items
