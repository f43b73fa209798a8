"""Command-line pipeline: simulate | infer | refine | eval | map | plot.

Every command reads and extends a dataset manifest (manifest.json in
the dataset directory) so the stages compose without positional
plumbing.  Reruns with identical inputs and seeds produce byte-identical
primary outputs; wall-clock timings live only in run_meta_*.json files.

``main`` owns what every command shares: it resolves the configuration,
loads the manifest, times the command, then saves the manifest, writes
``run_meta_<command>.json`` and prints the command's summary.  A
``cmd_*`` function only does its work and returns the fields of its
run_meta and its summary text, so that every file it wrote is listed
before standard output can fail.  It imports the pipeline modules it
runs itself, so that a command loads only those.  ``imu`` and
``orientation`` are the exception: they are imported at the top, since
perfbench's tracer wraps their functions by their names as globals of
this module.

Exit codes: 0 success, 1 runtime failure, 2 configuration/validation
failure.  ``main`` returns the code; ``entrypoint``, the console
script, ends the process with it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import trajectory
from .config import CHOICES, DEFAULTS, SECTIONS, ConfigError, PipelineConfig, load_config
from .fileio import copy_table, read_csv, read_stamped, write_json, write_table
from .geometry import median
from .imu import load_imu, make_windows, resample, save_imu, to_hacf, window_stride
from .orientation import estimate_orientation, relative_yaw, save_orientations

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
VELOCITY_CSV_HEADER = "frame,vx,vy"


# ---------------------------------------------------------------------------
# Run frame: manifest and timing


def load_manifest(dataset: Path) -> dict:
    path = dataset / MANIFEST_NAME
    if not path.is_file():
        raise ConfigError(f"no {MANIFEST_NAME} in {dataset}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path}: expected a JSON object of paths")
    for key, value in manifest.items():
        if not isinstance(value, str):
            raise ConfigError(f"{path}: entry {key!r} must be a path, got {value!r}")
    return manifest


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
                     auto=("refined", "est", "gt")) -> tuple[str, "trajectory.Trajectory"]:
    """Load the trajectory that the selector ``which`` names, from the
    manifest entry ``<which>_trajectory``.

    "auto" takes the first selector of ``auto`` that the manifest holds,
    or else the last one, whose missing entry is then reported.
    """
    if which == "auto":
        which = next((w for w in auto if f"{w}_trajectory" in manifest), auto[-1])
    return which, trajectory.load_trajectory(
        _manifest_file(dataset, manifest, f"{which}_trajectory"))


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(cfg: PipelineConfig, out_dir: Path, manifest: dict,
                 clock: Stopwatch) -> tuple[dict, str]:
    from . import object_map, sim

    sim_cfg = _from_config(cfg, "sim")
    map_cfg = _from_config(cfg, "map")
    traj = sim.generate_trajectory(sim_cfg)
    imu = sim.synthesize_imu(traj, sim_cfg)
    orientations = sim.true_orientations(traj)
    captures = trajectory.capture_schedule(traj, cfg["capture.distance_m"])
    items = sim.default_items(sim_cfg)
    rasters, captions, gt_items = sim.generate_scene(captures, items, sim_cfg, map_cfg)
    rasters_dir = out_dir / "rasters"
    rasters_dir.mkdir(parents=True, exist_ok=True)
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
    return ({"n_frames": len(traj), "n_captures": len(captures)},
            f"simulate: {len(traj)} frames, {len(captures)} captures -> {out_dir}")


def cmd_infer(cfg: PipelineConfig, dataset: Path, manifest: dict,
              clock: Stopwatch) -> tuple[dict, str]:
    from . import estimator, rae

    with clock.lap("load"):
        # a network runs at the rate and on the window length it was trained
        # at, the oracle at the rate of the ground truth it reads
        if cfg["estimator.kind"] == "network":
            if not cfg["estimator.weights"]:
                raise ConfigError(
                    "estimator.weights must point to a weights file when "
                    "estimator.kind is 'network'")
            bundle = estimator.load_weights(Path(cfg["estimator.weights"]))
            model = estimator.DenseVelocityNetwork(bundle)
            rate, source = bundle.meta.sample_rate_hz, f"the weights in {cfg['estimator.weights']}"
        else:
            gt_path = _manifest_file(dataset, manifest, "gt_trajectory")
            gt = trajectory.load_trajectory(gt_path)
            model = estimator.OracleVelocityEstimator(gt, _from_config(cfg, "oracle"))
            rate, source = gt.frame_rate, f"the ground truth in {gt_path}"
        imu_path = _manifest_file(dataset, manifest, "imu")
        imu = load_imu(imu_path)
        # eval and map pair the estimate with the ground truth and the
        # captions frame by frame, so it must come out on the recording's
        # grid; resampling then only evens out the recording's time steps
        if not math.isclose(rate, imu.sample_rate(), rel_tol=1e-6):
            raise ValueError(
                f"{source} run at {rate:g} Hz but {imu_path} is recorded at "
                f"{imu.sample_rate():g} Hz; infer runs only at the recording's rate")
        imu = resample(imu, rate_hz=rate)
        tau = model.tau
    with clock.lap("orientation"):
        orientations = estimate_orientation(imu)
    with clock.lap("windows"):
        stride = window_stride(tau, cfg["hacf.stride"])
        windows = make_windows(to_hacf(imu, orientations), tau=tau, stride=stride)
        if not len(windows):
            raise ValueError(
                f"recording too short: {len(imu)} frames yield no windows of {tau + 1} samples")
        starts = stride * np.arange(len(windows))
    rae_cfg = _from_config(cfg, "rae")
    with clock.lap("rae"):
        ens = rae.rae_estimate(windows, starts, model, rae_cfg)
    with clock.lap("integrate"):
        held = trajectory.held_velocities(ens.v, starts, len(imu), tau)
        yaws = relative_yaw(orientations)
        est_traj = trajectory.integrate(held, yaws, frame_rate=float(imu.sample_rate()),
                                        t0=float(imu.t[0]))
    with clock.lap("captures"):
        captures = trajectory.capture_schedule(est_traj, cfg["capture.distance_m"])
    with clock.lap("write"):
        trajectory.save_trajectory(est_traj, dataset / "est_trajectory.csv")
        write_table(dataset / "velocities.csv", VELOCITY_CSV_HEADER,
                    [range(len(held)), *held.T])
        trajectory.save_captures(captures, dataset / "captures.jsonl")
    manifest.update({
        "est_trajectory": "est_trajectory.csv",
        "velocities": "velocities.csv",
        "captures": "captures.jsonl",
    })
    return {
        "estimator": cfg["estimator.kind"],
        "k": cfg["rae.k"],
        "reducer": cfg["rae.reducer"],
        "n_windows": len(windows),
        "n_members_nonfinite": ens.n_members_nonfinite,
        "n_windows_clamped": ens.n_windows_clamped,
        "n_windows_median_capped": ens.n_windows_median_capped,
        "rae_member_spread": float(median(ens.member_spread)),
    }, (f"infer: {len(windows)} windows, K={cfg['rae.k']} "
        f"({cfg['rae.reducer']}), {len(captures)} captures")


def cmd_refine(cfg: PipelineConfig, dataset: Path, manifest: dict,
               clock: Stopwatch) -> tuple[dict, str]:
    from . import loop_closure

    with clock.lap("load"):
        est_path = _manifest_file(dataset, manifest, "est_trajectory")
        est = trajectory.load_trajectory(est_path)
        vel_path = _manifest_file(dataset, manifest, "velocities")
        held = _load_velocities(vel_path, len(est))
    # held[f] is the velocity over the step into frame f, so the
    # displacement of step k -> k+1 is held[k+1] * dt
    per_frame_v = held[1:] / est.frame_rate
    refine_cfg = _from_config(cfg, "refine")
    with clock.lap("fit"):
        refined, corrections, history = loop_closure.refine(est, per_frame_v, refine_cfg)
    # refine returns the first strictly best history entry (its
    # prediction replays that entry's forward pass), or the input
    identity_fallback = not corrections.r.any() and not corrections.l.any()
    refined_path = dataset / "refined_trajectory.csv"
    with clock.lap("write"):
        if identity_fallback:
            copy_table(est_path, refined_path)  # the input passes through
        else:
            trajectory.save_trajectory(refined, refined_path)
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
    loss_initial = loop_closure.refinement_loss(est, zero, per_frame_v).total
    best_epoch = int(np.argmin([h.total for h in history]))
    return {
        "epochs": cfg["refine.epochs"],
        "loss_initial": loss_initial,
        "loss_final": loss_initial if identity_fallback else history[best_epoch].total,
        "best_epoch": None if identity_fallback else best_epoch,
        "identity_fallback": identity_fallback,
        "endpoint_gap_before_m": gap_before,
        "endpoint_gap_after_m": gap_after,
        "closure_gap_after_m": float(np.linalg.norm(refined.xy[-1] - refined.xy[0])),
    }, (f"refine: endpoint gap {gap_before:.4f} m -> {gap_after:.4f} m "
        f"in {cfg['refine.epochs']} epochs")


def _load_velocities(path: Path, n_frames: int) -> np.ndarray:
    """Read ``velocities.csv`` as ``cmd_infer`` writes it: frames
    0..n_frames-1 in order, each once.  The first line that breaks the
    order is named, and a short file at the line past its last row.

    A file whose sidecar stamp matches (``fileio``'s stamp rule) is
    ``cmd_infer``'s own ``write_table`` output, its frame column written
    from a ``range``, so its sidecar is taken once that column reads
    0..n_frames-1.  Any other file is read line by line, each frame token
    as an integer."""
    _, table = read_stamped(path, VELOCITY_CSV_HEADER)
    if (table is not None and len(table) == n_frames
            and np.array_equal(table[:, 0], np.arange(n_frames))):
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


def cmd_eval(cfg: PipelineConfig, dataset: Path, manifest: dict,
             clock: Stopwatch) -> tuple[dict, str]:
    from . import metrics

    with clock.lap("load"):
        gt = trajectory.load_trajectory(_manifest_file(dataset, manifest, "gt_trajectory"))
        which, est = _pick_trajectory(dataset, manifest, cfg["eval.trajectory"],
                                      auto=("refined", "est"))
    grid_meta, lines = {}, []
    for grid in cfg["eval.grids"]:
        grid = float(grid)
        with clock.lap("score"):
            events = trajectory.capture_schedule(gt, distance_m=grid, rotation_rad=np.inf)
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
        lines.append(f"eval[{which}, grid {grid} m]: rte {report.rte:.4f} m, "
                     f"rte_metric {report.rte_metric:.4f} m, rre {report.rre:.4f} rad, "
                     f"coverage {report.coverage:.3f}")
    return {"trajectory": which, "grids": grid_meta}, "\n".join(lines)


def cmd_map(cfg: PipelineConfig, dataset: Path, manifest: dict,
            clock: Stopwatch) -> tuple[dict, str]:
    from . import metrics, object_map

    map_cfg = _from_config(cfg, "map")
    with clock.lap("load"):
        which, traj = _pick_trajectory(dataset, manifest, cfg["map.trajectory"])
        service_meta = {}
        if not cfg["caption.endpoint"]:
            records = object_map.load_captions(_manifest_file(dataset, manifest, "captions"))
        else:
            service = _from_config(cfg, "caption")
            captures = trajectory.load_captures(_manifest_file(dataset, manifest,
                                                               "gt_captures"))
            captioner = object_map.HttpCaptioner(service)
            records = object_map.fetch_captions(captures, captioner,
                                                max_workers=service.max_workers)
            service_meta = {"n_caption_retries": captioner.n_retries,
                            "n_captions_failed": len(captures) - len(records)}
    rasters_dir = dataset / manifest.get("rasters_dir", "rasters")
    observations = []
    caption_frames = []
    # what the map leaves out: captions without a raster or outside the
    # trajectory, captions that name no item (their rasters are not
    # read), and named items that observe_items places nowhere
    skipped = dict.fromkeys(["n_captions_no_raster", "n_captions_outside_trajectory",
                             "n_captions_no_items", "n_items_unplaced"], 0)
    for rec in records:
        raster_path = rasters_dir / f"{rec.image_id}.dras"
        if not raster_path.is_file():
            logger.warning("%s: no raster at %s, skipped", rec.image_id, raster_path)
            skipped["n_captions_no_raster"] += 1
            continue
        if not 0 <= rec.frame < len(traj):
            logger.warning("%s: frame %d outside trajectory, skipped",
                           rec.image_id, rec.frame)
            skipped["n_captions_outside_trajectory"] += 1
            continue
        caption_frames.append(rec.frame)
        if not rec.items:
            skipped["n_captions_no_items"] += 1
            continue
        with clock.lap("load"):
            raster = object_map.load_raster(raster_path)
        with clock.lap("observe"):
            placed = object_map.observe_items(rec, raster, traj.pose(rec.frame), map_cfg)
        observations.extend(placed)
        skipped["n_items_unplaced"] += len(rec.items) - len(placed)
    with clock.lap("observe"):
        clusters = object_map.cluster_items(observations)
    with clock.lap("write"):
        object_map.save_map(clusters, dataset / "item_map.jsonl")
    manifest["item_map"] = "item_map.jsonl"
    meta = {"trajectory": which, "n_captions": len(records), **skipped, **service_meta,
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
            return meta, (f"map[{which}]: {len(clusters)} clusters, "
                          f"{map_report.n_matched} matched, mean error "
                          f"{map_report.mean_error:.3f} m (+/- {map_report.std_error:.3f})")
    manifest.pop("map_eval", None)  # no report scores this map: drop the last one
    (dataset / "map_eval.json").unlink(missing_ok=True)
    return meta, f"map[{which}]: {len(clusters)} clusters from {len(observations)} observations"


def cmd_plot(cfg: PipelineConfig, dataset: Path, manifest: dict, clock: Stopwatch,
             out: Path | None = None) -> tuple[dict, str]:
    from . import object_map

    series = []
    colors = {"gt": "#888888", "est": "#1f77b4", "refined": "#2ca02c"}
    items_xy = {}
    with clock.lap("load"):
        for name, color in colors.items():
            if f"{name}_trajectory" in manifest:
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
    # manifest entries resolve against the dataset: one inside it is
    # stored relative to it, any other as an absolute path
    out_abs, dataset_abs = out.resolve(), dataset.resolve()
    manifest["plot"] = str(out_abs.relative_to(dataset_abs)
                           if out_abs.is_relative_to(dataset_abs) else out_abs)
    names = [name for name, _, _ in series]
    return {"series": names, "n_items": len(items_xy)}, f"plot: {', '.join(names)} -> {out}"


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
    drawn = []  # (xy, color, polyline) of each series whose points were formatted
    for i, (name, color, xy) in enumerate(series):
        # a series bit-equal to a drawn one takes its line in this color:
        # the points' text holds no quote, so the stroke is matched once
        line = next((text.replace(f'stroke="{first}"', f'stroke="{color}"')
                     for seen, first, text in drawn
                     if np.array_equal(seen.view(np.int64), xy.view(np.int64))), None)
        if line is None:
            line = (f'<polyline points="{to_px(xy)}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>')
            drawn.append((xy, color, line))
        parts.append(line)
        parts.append(f'<text x="{margin:.0f}" y="{20 + 16 * i:.0f}" '
                     f'fill="{color}" font-family="monospace" font-size="13">'
                     f'{name}</text>')
    for name in sorted(items_xy):
        px = to_px(np.array([items_xy[name]])).split(",")
        text = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<circle cx="{px[0]}" cy="{px[1]}" r="4" fill="#d62728"/>')
        parts.append(f'<text x="{float(px[0]) + 6:.2f}" y="{float(px[1]) - 4:.2f}" '
                     f'fill="#d62728" font-family="monospace" font-size="11">'
                     f'{text}</text>')
    start = to_px(series[0][2][:1]).split(",")
    parts.append(f'<circle cx="{start[0]}" cy="{start[1]}" r="5" fill="none" '
                 f'stroke="#000000" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing


# command -> its help, the flag of its dataset directory, and its
# shortcuts, each a flag that sets one config key
COMMANDS = {
    "simulate": ("generate a synthetic dataset", "--out", {"--seed": "sim.seed"}),
    "infer": ("estimate a trajectory from IMU data", "--dataset",
              {"--estimator": "estimator.kind"}),
    "refine": ("loop-closure refinement of the estimate", "--dataset",
               {"--epochs": "refine.epochs"}),
    "eval": ("error metrics against ground truth", "--dataset",
             {"--grid": "eval.grids", "--trajectory": "eval.trajectory"}),
    "map": ("geo-localize captioned items", "--dataset",
            {"--trajectory": "map.trajectory"}),
    "plot": ("render trajectories to SVG", "--dataset", {}),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command of ``COMMANDS``.  A shortcut stores
    into the destination named after its key, typed as the key's
    default; a list key's shortcut appends one number per use."""
    parser = argparse.ArgumentParser(
        prog="sweepnav",
        description="IMU-only indoor navigation and object mapping pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, dataset_flag, shortcuts) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument(dataset_flag, dest="dataset", metavar="DIR", type=Path, required=True,
                       help="dataset directory")
        if command == "plot":
            p.add_argument("--out", type=Path, default=None,
                           help="SVG file (default: plot.svg in the dataset)")
        for flag, key in shortcuts.items():
            default = DEFAULTS[key]
            metavar = "{%s}" % ",".join(CHOICES[key]) if key in CHOICES else flag[2:].upper()
            if isinstance(default, list):
                p.add_argument(flag, dest=key, metavar=metavar, action="append", type=float,
                               help=f"one number of {key} (repeatable; they form the list)")
            else:
                p.add_argument(flag, dest=key, metavar=metavar, type=type(default),
                               help=f"sets {key}")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (flat dotted keys)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--log-level", choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                       default="WARNING", help="lowest level of log message shown")
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults < ``--config`` file < ``--set`` < shortcuts.  Every
    section is built once from the result, so that a value its section
    refuses exits before the command reads or writes a file."""
    cfg = load_config(args.config, args.set)
    cfg.update({key: value for key, value in vars(args).items()
                if key in DEFAULTS and value is not None})
    for prefix in SECTIONS:
        _from_config(cfg, prefix)
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
        meta, summary = globals()[f"cmd_{args.command}"](cfg, args.dataset, manifest, clock,
                                                         *extra)
        save_manifest(args.dataset, manifest)
        # the process's peak resident set so far; Linux counts ru_maxrss in KiB
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        write_json(args.dataset / f"run_meta_{args.command}.json",
                   {"command": args.command, **meta, "elapsed_s": clock.elapsed(),
                    "peak_rss_mb": peak_rss_mb})
        print(summary)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    """Run ``main`` on the command line and end the process with its code.

    Every file a command writes is closed, and every thread it starts
    joined, before ``main`` returns, so the process skips the
    interpreter's teardown of its modules: it flushes the log handlers
    and the standard streams and calls ``os._exit``.  A stream that
    fails to flush makes the code 120, as the interpreter's own exit
    does.  An exception that escapes ``main`` exits the normal way."""
    code = main()
    logging.shutdown()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
        except OSError:
            code = 120
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
