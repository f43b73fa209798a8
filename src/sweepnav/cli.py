"""Command-line pipeline: simulate | infer | refine | eval | map | plot.

Every command reads and extends a dataset manifest (manifest.json in
the dataset directory) so the stages compose without positional
plumbing.  Reruns with identical inputs and seeds produce byte-identical
primary outputs; wall-clock timings live only in run_meta_*.json files.

``main`` owns what every command shares: it resolves the configuration,
loads the manifest, times the command, then saves the manifest and
writes ``run_meta_<command>.json``.  A ``cmd_*`` function only does its
work and returns the fields of its run_meta.  It imports the pipeline
modules it runs itself, so that a command loads only those.

Exit codes: 0 success, 1 runtime failure, 2 configuration/validation
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import trajectory
from .config import DEFAULTS, SECTIONS, ConfigError, PipelineConfig, load_config, parse_value
from .fileio import read_csv, read_table, write_csv, write_json
from .geometry import median
from .imu import load_imu, resample, save_imu, to_hacf, make_windows
from .orientation import (estimate_orientation, load_orientations, relative_yaw,
                          save_orientations)

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
VELOCITY_CSV_HEADER = "frame,vx,vy"
# trajectory selector -> manifest key, in the order "auto" tries them
TRAJECTORIES = {"refined": "refined_trajectory", "est": "est_trajectory",
                "gt": "gt_trajectory"}


# ---------------------------------------------------------------------------
# Run frame: manifest and timing


def load_manifest(dataset: Path) -> dict:
    path = dataset / MANIFEST_NAME
    if not path.is_file():
        raise ConfigError(f"no {MANIFEST_NAME} in {dataset}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_manifest(dataset: Path, manifest: dict) -> None:
    write_json(dataset / MANIFEST_NAME, manifest)


def _manifest_file(dataset: Path, manifest: dict, key: str) -> Path:
    if key not in manifest:
        raise ConfigError(f"manifest has no {key!r} entry; run the producing stage first")
    path = dataset / manifest[key]
    if not path.exists():
        raise ConfigError(f"manifest entry {key!r} points to missing file {path}")
    return path


class Stopwatch:
    """Wall time of one command: its total and the named laps inside it."""

    def __init__(self):
        self.start = time.perf_counter()
        self.laps: dict[str, float] = {}

    @contextlib.contextmanager
    def lap(self, name: str):
        """Time the ``with`` block as the lap ``name``; a lap that repeats adds up."""
        start = time.perf_counter()
        yield
        self.laps[name] = self.laps.get(name, 0.0) + time.perf_counter() - start

    def elapsed(self) -> dict:
        return {"total": time.perf_counter() - self.start, **self.laps}


# ---------------------------------------------------------------------------
# Config -> module configs


def _from_config(cfg: PipelineConfig, prefix: str):
    """Build the dataclass of section ``prefix`` from its keys; lists become tuples."""
    cls = SECTIONS[prefix]
    values = {}
    for f in dataclasses.fields(cls):
        value = cfg[f"{prefix}.{f.name}"]
        values[f.name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{prefix}.*: {exc}") from None


def _pick_trajectory(dataset: Path, manifest: dict, which: str,
                     auto=tuple(TRAJECTORIES)) -> tuple[str, "trajectory.Trajectory"]:
    """Load the trajectory a selector of TRAJECTORIES names.

    "auto" takes the first selector of ``auto`` that the manifest holds,
    or else the last one, whose missing entry is then reported.
    """
    if which == "auto":
        which = next((w for w in auto if TRAJECTORIES[w] in manifest), auto[-1])
    if which not in TRAJECTORIES:
        raise ConfigError(f"unknown trajectory selector {which!r}")
    return which, trajectory.load_trajectory(
        _manifest_file(dataset, manifest, TRAJECTORIES[which]))


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(cfg: PipelineConfig, out_dir: Path, manifest: dict, clock: Stopwatch) -> dict:
    from . import object_map, sim

    sim_cfg = _from_config(cfg, "sim")
    scene_cfg = _from_config(cfg, "scene")
    map_cfg = _from_config(cfg, "map")
    out_dir.mkdir(parents=True, exist_ok=True)
    rasters_dir = out_dir / "rasters"
    rasters_dir.mkdir(exist_ok=True)
    traj = sim.generate_trajectory(sim_cfg)
    imu = sim.synthesize_imu(traj, sim_cfg)
    orientations = sim.true_orientations(traj)
    captures = trajectory.capture_schedule(
        traj, cfg["capture.distance_m"], cfg["capture.rotation_rad"], cfg["capture.mode"])
    items = sim.default_items(sim_cfg, cfg["sim.n_items"], seed=sim_cfg.seed)
    rasters, captions, gt_items = sim.generate_scene(captures, items, sim_cfg,
                                                     scene_cfg, map_cfg)
    save_imu(imu, out_dir / "imu.csv")
    trajectory.save_trajectory(traj, out_dir / "gt_trajectory.csv")
    save_orientations(orientations, out_dir / "orientations.csv")
    object_map.save_items_csv(gt_items, out_dir / "items.csv")
    object_map.save_captions(captions, out_dir / "captions.jsonl")
    trajectory.save_captures(captures, out_dir / "gt_captures.jsonl")
    for ev, raster in zip(captures, rasters):
        name = trajectory.image_id_for_frame(ev.frame)
        object_map.save_raster(raster, rasters_dir / f"{name}.dras")
    cfg.save(out_dir / "config.json")
    manifest.update({
        "imu": "imu.csv",
        "gt_trajectory": "gt_trajectory.csv",
        "orientations": "orientations.csv",
        "items": "items.csv",
        "captions": "captions.jsonl",
        "gt_captures": "gt_captures.jsonl",
        "rasters_dir": "rasters",
    })
    print(f"simulate: {len(traj)} frames, {len(captures)} captures -> {out_dir}")
    return {"n_frames": len(traj), "n_captures": len(captures)}


def cmd_infer(cfg: PipelineConfig, dataset: Path, manifest: dict, clock: Stopwatch) -> dict:
    from . import estimator, rae

    with clock.lap("load"):
        imu = load_imu(_manifest_file(dataset, manifest, "imu"))
        imu = resample(imu, rate_hz=cfg["sim.sample_rate_hz"])
    with clock.lap("orientation"):
        if cfg["orientation.source"] == "file":
            orientations = load_orientations(_manifest_file(dataset, manifest, "orientations"))
            if len(orientations) != len(imu):
                raise ValueError(
                    f"orientation file covers {len(orientations)} frames, IMU has {len(imu)}")
        elif cfg["orientation.source"] == "filter":
            orientations = estimate_orientation(imu, alpha=cfg["orientation.alpha"])
        else:
            raise ConfigError("orientation.source must be 'filter' or 'file'")
    with clock.lap("windows"):
        hacf = to_hacf(imu, orientations)
        tau = cfg["hacf.tau"]
        stride = cfg["hacf.stride"] or tau
        windows = make_windows(hacf, tau=tau, stride=stride)
        if not len(windows):
            raise ValueError(
                f"recording too short: {len(imu)} frames yield no windows of {tau + 1} samples")
        starts = stride * np.arange(len(windows))
    if cfg["estimator.kind"] == "network":
        weights_path = cfg["estimator.weights"]
        if not weights_path:
            raise ConfigError(
                "estimator.weights must point to a weights file when "
                "estimator.kind is 'network'")
        rate = float(imu.sample_rate())
        bundle = estimator.load_weights(Path(weights_path), expected_tau=tau,
                                        expected_rate=rate)
        model = estimator.DenseVelocityNetwork(bundle)
    elif cfg["estimator.kind"] == "oracle":
        gt = trajectory.load_trajectory(_manifest_file(dataset, manifest, "gt_trajectory"))
        oracle_cfg = estimator.OracleConfig(
            trajectory=gt,
            bias_hacf=np.asarray(cfg["oracle.bias"], dtype=float),
            noise_sigma=cfg["oracle.noise_sigma"],
        )
        model = estimator.OracleVelocityEstimator(oracle_cfg, rng_seed=cfg["oracle.seed"])
    else:
        raise ConfigError("estimator.kind must be 'oracle' or 'network'")
    rae_cfg = _from_config(cfg, "rae")
    with clock.lap("rae"):
        ens = rae.rae_estimate(windows, starts, model, rae_cfg, rng_seed=cfg["rae.seed"],
                               v_max=cfg["estimator.v_max"])
    with clock.lap("integrate"):
        held = trajectory.held_velocities(ens.v, starts, len(imu))
        yaws = relative_yaw(orientations)
        kalman_cfg = _from_config(cfg, "kalman")
        est_traj = trajectory.integrate(held, yaws, kalman_cfg,
                                        frame_rate=float(imu.sample_rate()),
                                        t0=float(imu.t[0]))
    with clock.lap("captures"):
        captures = trajectory.capture_schedule(
            est_traj, cfg["capture.distance_m"], cfg["capture.rotation_rad"],
            cfg["capture.mode"])
    with clock.lap("write"):
        trajectory.save_trajectory(est_traj, dataset / "est_trajectory.csv")
        write_csv(dataset / "velocities.csv", VELOCITY_CSV_HEADER,
                  ([f, vx, vy] for f, (vx, vy) in enumerate(held.tolist())))
        trajectory.save_captures(captures, dataset / "captures.jsonl")
    manifest.update({
        "est_trajectory": "est_trajectory.csv",
        "velocities": "velocities.csv",
        "captures": "captures.jsonl",
    })
    print(f"infer: {len(windows)} windows, K={cfg['rae.k']} "
          f"({cfg['rae.reducer']}), {len(captures)} captures")
    return {
        "estimator": cfg["estimator.kind"],
        "k": cfg["rae.k"],
        "reducer": cfg["rae.reducer"],
        "n_windows": len(windows),
        "n_members_nonfinite": ens.n_members_nonfinite,
        "n_windows_clamped": ens.n_windows_clamped,
        "rae_member_spread": float(median(ens.member_spread)),
    }


def cmd_refine(cfg: PipelineConfig, dataset: Path, manifest: dict, clock: Stopwatch) -> dict:
    from . import loop_closure

    with clock.lap("load"):
        est = trajectory.load_trajectory(_manifest_file(dataset, manifest, "est_trajectory"))
        vel_path = _manifest_file(dataset, manifest, "velocities")
        held = _load_velocities(vel_path, len(est))
    # held[f] is the velocity over the step into frame f, so the
    # displacement of step k -> k+1 is held[k+1] * dt
    per_frame_v = held[1:] / est.frame_rate
    refine_cfg = _from_config(cfg, "refine")
    with clock.lap("fit"):
        refined, corrections, history = loop_closure.refine(est, per_frame_v, refine_cfg)
    with clock.lap("write"):
        trajectory.save_trajectory(refined, dataset / "refined_trajectory.csv")
        loop_closure.save_corrections(corrections, dataset / "corrections.jsonl")
        loop_closure.save_loss_history(history, dataset / "loss_history.csv")
    manifest.update({
        "refined_trajectory": "refined_trajectory.csv",
        "corrections": "corrections.jsonl",
        "loss_history": "loss_history.csv",
    })
    # the gap is measured against the original start: that is the anchor
    # the loop term pulls the corrected endpoint toward
    gap_before = float(np.linalg.norm(est.xy[-1] - est.xy[0]))
    gap_after = float(np.linalg.norm(refined.xy[-1] - est.xy[0]))
    zero = loop_closure.CorrectionParams(np.zeros(len(est)), np.zeros((len(est), 2)))
    loss_initial = loop_closure.refinement_loss(est, zero, per_frame_v, refine_cfg).total
    # refine returns the first strictly best history entry (its
    # prediction replays that entry's forward pass), or the input
    identity_fallback = not corrections.r.any() and not corrections.l.any()
    best_epoch = int(np.argmin([h.total for h in history]))
    print(f"refine: endpoint gap {gap_before:.4f} m -> {gap_after:.4f} m "
          f"in {cfg['refine.epochs']} epochs")
    return {
        "epochs": cfg["refine.epochs"],
        "loss_initial": loss_initial,
        "loss_final": loss_initial if identity_fallback else history[best_epoch].total,
        "best_epoch": None if identity_fallback else best_epoch,
        "identity_fallback": identity_fallback,
        "endpoint_gap_before_m": gap_before,
        "endpoint_gap_after_m": gap_after,
        "closure_gap_after_m": float(np.linalg.norm(refined.xy[-1] - refined.xy[0])),
    }


def _load_velocities(path: Path, n_frames: int) -> np.ndarray:
    """Read ``velocities.csv`` as ``cmd_infer`` writes it: frames
    0..n_frames-1 in order, each once.  The first line that breaks the
    order is named, and a short file at the line past its last row.

    A table whose frame tokens are exactly ``0``, ``1``, ... is taken
    from ``read_table``; any other file is read line by line."""
    try:
        table = read_table(path, VELOCITY_CSV_HEADER)
    except ValueError:
        table = None  # the line reader below names the fault
    if table is not None and len(table) == n_frames:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = [line.partition(",")[0] for line in fh][1:]
        if tokens == list(map(str, range(n_frames))):
            return np.ascontiguousarray(table[:, 1:])
    rule = f"frames must run 0..{n_frames - 1} in order, each once"
    rows = read_csv(path, VELOCITY_CSV_HEADER,
                    lambda fields: (int(fields[0]), float(fields[1]), float(fields[2])))
    for expected, (lineno, (frame, _, _)) in enumerate(rows):
        if frame != expected or expected == n_frames:
            want = f"frame {expected}" if expected < n_frames else "end of file"
            raise ValueError(f"{path}:{lineno}: frame {frame} where {want} was expected; {rule}")
    if len(rows) < n_frames:
        end = rows[-1][0] + 1 if rows else 2
        raise ValueError(f"{path}:{end}: end of file where frame {len(rows)} was expected; {rule}")
    return np.array([row[1:] for _, row in rows]).reshape(n_frames, 2)


def cmd_eval(cfg: PipelineConfig, dataset: Path, manifest: dict, clock: Stopwatch) -> dict:
    from . import metrics

    with clock.lap("load"):
        gt = trajectory.load_trajectory(_manifest_file(dataset, manifest, "gt_trajectory"))
        which, est = _pick_trajectory(dataset, manifest, cfg["eval.trajectory"],
                                      auto=("refined", "est"))
    grids = cfg["eval.grids"]
    if not grids:
        raise ConfigError("eval.grids must name at least one grid spacing")
    grid_meta = {}
    for grid in grids:
        grid = float(grid)
        with clock.lap("score"):
            events = trajectory.capture_schedule(gt, distance_m=grid,
                                                 rotation_rad=np.pi / 2, mode="distance")
            frames = np.array([ev.frame for ev in events])
            report, alignment = metrics.evaluate(gt, est, frames=frames,
                                                 trim_outliers=cfg["eval.trim_outliers"])
            idx, gt_xy, est_xy, gt_yaw, est_yaw = metrics.match_by_frame(gt, est, frames)
        tag = repr(grid)
        with clock.lap("write"):
            metrics.save_report(report, dataset / f"eval_grid_{tag}.json", extra={
                "grid_m": grid,
                "trajectory": which,
                "alignment": {
                    "scale": alignment.scale,
                    "rotation": alignment.rotation,
                    "tx": float(alignment.translation[0]),
                    "ty": float(alignment.translation[1]),
                },
            })
            metrics.save_residuals(idx, gt_xy, est_xy, gt_yaw, est_yaw, alignment,
                                   dataset / f"residuals_grid_{tag}.csv")
        manifest[f"eval_grid_{tag}"] = f"eval_grid_{tag}.json"
        manifest[f"residuals_grid_{tag}"] = f"residuals_grid_{tag}.csv"
        grid_meta[tag] = {"n_pairs": report.n_pairs, "n_inliers": report.n_inliers,
                          "rte_metric": report.rte_metric}
        print(f"eval[{which}, grid {grid} m]: rte {report.rte:.4f} m, "
              f"rte_metric {report.rte_metric:.4f} m, rre {report.rre:.4f} rad, "
              f"coverage {report.coverage:.3f}")
    return {"trajectory": which, "grids": grid_meta}


def cmd_map(cfg: PipelineConfig, dataset: Path, manifest: dict, clock: Stopwatch) -> dict:
    from . import metrics, object_map

    map_cfg = _from_config(cfg, "map")
    with clock.lap("load"):
        which, traj = _pick_trajectory(dataset, manifest, cfg["map.trajectory"])
        if cfg["caption.mode"] == "mock":
            records = object_map.load_captions(_manifest_file(dataset, manifest, "captions"))
        elif cfg["caption.mode"] == "http":
            if not cfg["caption.endpoint"]:
                raise ConfigError("caption.endpoint is required when caption.mode is 'http'")
            service = _from_config(cfg, "caption")
            captures = trajectory.load_captures(_manifest_file(dataset, manifest,
                                                               "gt_captures"))
            records = object_map.fetch_captions(captures, object_map.HttpCaptioner(service),
                                                max_workers=service.max_workers)
        else:
            raise ConfigError("caption.mode must be 'mock' or 'http'")
    rasters_dir = dataset / manifest.get("rasters_dir", "rasters")
    observations = []
    caption_frames = []
    for rec in records:
        raster_path = rasters_dir / f"{rec.image_id}.dras"
        if not raster_path.is_file():
            logger.warning("%s: no raster at %s, skipped", rec.image_id, raster_path)
            continue
        if not 0 <= rec.frame < len(traj):
            logger.warning("%s: frame %d outside trajectory, skipped",
                           rec.image_id, rec.frame)
            continue
        with clock.lap("load"):
            raster = object_map.load_raster(raster_path)
        with clock.lap("observe"):
            pose = traj.pose(rec.frame)
            observations.extend(object_map.observe_items(rec, raster, pose, map_cfg))
        caption_frames.append(rec.frame)
    with clock.lap("observe"):
        clusters = object_map.cluster_items(observations, map_cfg)
    with clock.lap("write"):
        object_map.save_map(clusters, dataset / "item_map.jsonl")
    manifest["item_map"] = "item_map.jsonl"
    meta = {"trajectory": which, "n_captions": len(records),
            "n_observations": len(observations), "n_clusters": len(clusters)}
    if "items" in manifest and clusters:
        with clock.lap("load"):
            gt_items = object_map.load_items_csv(_manifest_file(dataset, manifest, "items"))
            gt_items = {object_map.normalize_name(k): v for k, v in gt_items.items()}
            if which != "gt":
                gt_traj = trajectory.load_trajectory(
                    _manifest_file(dataset, manifest, "gt_trajectory"))
        with clock.lap("score"):
            alignment = None  # the ground-truth trajectory needs none
            if which != "gt":
                frames = np.array(sorted(set(caption_frames)))
                _, alignment = metrics.evaluate(gt_traj, traj, frames=frames,
                                                trim_outliers=cfg["eval.trim_outliers"])
            try:
                map_report = object_map.evaluate_map(clusters, gt_items, alignment)
            except ValueError as exc:
                map_report = None
                logger.warning("map evaluation skipped: %s", exc)
        if map_report is not None:
            with clock.lap("write"):
                object_map.save_map_eval(map_report, dataset / "map_eval.json")
            manifest["map_eval"] = "map_eval.json"
            print(f"map[{which}]: {len(clusters)} clusters, "
                  f"{map_report.n_matched} matched, mean error "
                  f"{map_report.mean_error:.3f} m (+/- {map_report.std_error:.3f})")
            return meta
    print(f"map[{which}]: {len(clusters)} clusters from "
          f"{len(observations)} observations")
    return meta


def cmd_plot(cfg: PipelineConfig, dataset: Path, manifest: dict, clock: Stopwatch,
             out: Path | None = None) -> dict:
    from . import object_map

    series = []
    colors = {"gt": "#888888", "est": "#1f77b4", "refined": "#2ca02c"}
    items_xy = {}
    with clock.lap("load"):
        for name, color in colors.items():
            if TRAJECTORIES[name] in manifest:
                _, traj = _pick_trajectory(dataset, manifest, name)
                series.append((name, color, traj.xy))
        if not series:
            raise ConfigError("manifest holds no trajectory to plot")
        if "items" in manifest:
            items = object_map.load_items_csv(_manifest_file(dataset, manifest, "items"))
            items_xy = {name: p[:2] for name, p in items.items()}
    out = out or dataset / "plot.svg"
    with clock.lap("render"):
        svg = _render_svg(series, items_xy)
    with clock.lap("write"):
        out.write_text(svg, encoding="utf-8")
    manifest["plot"] = out.name if out.parent == dataset else str(out)
    print(f"plot: {', '.join(name for name, _, _ in series)} -> {out}")
    return {"series": [name for name, _, _ in series], "n_items": len(items_xy)}


def _render_svg(series, items_xy: dict) -> str:
    """The SVG text of the trajectory ``series`` and the item markers."""
    size, margin = 640.0, 40.0
    all_xy = np.vstack([xy for _, _, xy in series] +
                       ([np.array(list(items_xy.values()))] if items_xy else []))
    lo = all_xy.min(axis=0) - 0.2
    hi = all_xy.max(axis=0) + 0.2
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    scale = (size - 2 * margin) / span

    def to_px(xy):
        """The space-separated "x,y" pixel pairs of the (n, 2) points ``xy``."""
        x = margin + (xy[:, 0] - lo[0]) * scale
        y = size - margin - (xy[:, 1] - lo[1]) * scale  # svg y grows downward
        return ("%.2f,%.2f " * len(xy) % tuple(np.column_stack([x, y]).ravel().tolist()))[:-1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="#ffffff"/>',
    ]
    for i, (name, color, xy) in enumerate(series):
        parts.append(f'<polyline points="{to_px(xy)}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{margin:.0f}" y="{20 + 16 * i:.0f}" '
                     f'fill="{color}" font-family="monospace" font-size="13">'
                     f'{name}</text>')
    for name in sorted(items_xy):
        px = to_px(np.array([items_xy[name]])).split(",")
        parts.append(f'<circle cx="{px[0]}" cy="{px[1]}" r="4" fill="#d62728"/>')
        parts.append(f'<text x="{float(px[0]) + 6:.2f}" y="{float(px[1]) - 4:.2f}" '
                     f'fill="#d62728" font-family="monospace" font-size="11">'
                     f'{name}</text>')
    start = to_px(series[0][2][:1]).split(",")
    parts.append(f'<circle cx="{start[0]}" cy="{start[1]}" r="5" fill="none" '
                 f'stroke="#000000" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing


class _AppendToList(argparse.Action):
    """``append`` that starts a new list over a non-list, where it would crash."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, (items if isinstance(items, list) else []) + [values])


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON config file (flat dotted keys)")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    sub.add_argument("--log-level", choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                     default="WARNING", help="lowest level of log message shown")
    for key in DEFAULTS:
        sub.add_argument(f"--{key}", dest=key, type=functools.partial(parse_value, key),
                         default=None, metavar="VALUE", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command.  A shortcut flag stores into the
    destination of the key it stands for, so of all flags that name one
    key the last given wins (``--grid`` appends to it)."""
    parser = argparse.ArgumentParser(
        prog="sweepnav",
        description="IMU-only indoor navigation and object mapping pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--out", dest="dataset", metavar="OUT", type=Path, required=True,
                   help="dataset directory")
    p.add_argument("--seed", dest="sim.seed", metavar="SEED", type=int, default=None,
                   help="shortcut for --sim.seed")
    _add_common(p)

    p = sub.add_parser("infer", help="estimate a trajectory from IMU data")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--estimator", dest="estimator.kind", choices=["oracle", "network"],
                   default=None, help="shortcut for --estimator.kind")
    _add_common(p)

    p = sub.add_parser("refine", help="loop-closure refinement of the estimate")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--epochs", dest="refine.epochs", metavar="EPOCHS", type=int,
                   default=None, help="shortcut for --refine.epochs")
    _add_common(p)

    p = sub.add_parser("eval", help="error metrics against ground truth")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--grid", dest="eval.grids", metavar="GRID", action=_AppendToList,
                   type=float, default=None,
                   help="evaluation grid spacing in meters (repeatable)")
    p.add_argument("--trajectory", dest="eval.trajectory",
                   choices=["auto", "gt", "est", "refined"],
                   default=None, help="shortcut for --eval.trajectory")
    _add_common(p)

    p = sub.add_parser("map", help="geo-localize captioned items")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--captioner", dest="caption.mode", choices=["mock", "http"],
                   default=None, help="shortcut for --caption.mode")
    p.add_argument("--trajectory", dest="map.trajectory",
                   choices=["auto", "gt", "est", "refined"],
                   default=None, help="shortcut for --map.trajectory")
    _add_common(p)

    p = sub.add_parser("plot", help="render trajectories to SVG")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    _add_common(p)

    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults < ``--config`` file < ``--set`` < flags."""
    cfg = load_config(args.config, args.set)
    cfg.update({key: value for key, value in vars(args).items()
                if key in DEFAULTS and value is not None})
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(message)s")
    extra = [args.out] if args.command == "plot" else []
    try:
        cfg = _resolve_config(args)
        clock = Stopwatch()
        manifest = {} if args.command == "simulate" else load_manifest(args.dataset)
        # looked up when called, so that a wrapper set on this module runs
        meta = globals()[f"cmd_{args.command}"](cfg, args.dataset, manifest, clock, *extra)
        save_manifest(args.dataset, manifest)
        write_json(args.dataset / f"run_meta_{args.command}.json",
                   {"command": args.command, **meta, "elapsed_s": clock.elapsed()})
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
