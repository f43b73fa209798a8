"""Flat key-value pipeline configuration.

Keys are dotted (``module.field``) and flat: no nesting in the JSON
file, no positional coupling between stages.  Precedence is defaults <
config file < explicit overrides.  Unknown keys are an error (typo
guard), as is a value whose type disagrees with the default.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .fileio import write_json
from .object_map import CAPTION_TOKEN_ENV, DEFAULT_PROMPT


class ConfigError(Exception):
    """Invalid configuration; the CLI maps this to exit code 2."""


DEFAULTS: dict = {
    "sim.room_width": 4.0,
    "sim.room_height": 2.0,
    "sim.row_spacing": 1.0,
    "sim.speed": 0.5,
    "sim.sample_rate_hz": 50.0,
    "sim.acc_noise": 0.0,
    "sim.gyro_noise": 0.0,
    "sim.acc_bias": [0.0, 0.0, 0.0],
    "sim.gyro_bias": [0.0, 0.0, 0.0],
    "sim.seed": 0,
    "sim.turn_model": "arc",
    "sim.turn_rate": math.pi / 2,
    "sim.n_items": 10,
    "scene.width_px": 64,
    "scene.height_px": 48,
    "scene.focal_px": 50.0,
    "scene.item_radius": 0.5,
    "scene.caption_half_angle": 0.02,
    "scene.caption_z_min": 0.5,
    "scene.caption_z_max": 3.0,
    "scene.item_z": 0.3,
    "scene.wall_margin": 1.0,
    "orientation.alpha": 0.02,
    "orientation.source": "filter",  # "filter" | "file"
    "hacf.tau": 64,
    "hacf.stride": 0,  # 0 = tau (non-overlapping windows)
    "estimator.kind": "oracle",  # "oracle" | "network"
    "estimator.weights": "",
    "estimator.v_max": 2.0,
    "oracle.bias": [0.0, 0.0],
    "oracle.noise_sigma": 0.0,
    "oracle.seed": 0,
    "rae.k": 5,
    "rae.angle_mode": "grid",
    "rae.reducer": "median",
    "rae.trim_fraction": 0.1,
    "rae.seed": 0,
    "kalman.sigma_process": 0.1,
    "kalman.sigma_obs": 0.1,
    "capture.distance_m": 1.0,
    "capture.rotation_rad": math.pi / 2,
    "capture.mode": "or",
    "refine.epochs": 100,
    "refine.learning_rate": 0.01,
    "refine.lambda_loop": 1.0,
    "refine.lambda_rot": 1.0,
    "refine.lambda_smooth": 1.0,
    "refine.seed": 0,
    "refine.hidden": 64,
    "eval.trim_outliers": True,
    "eval.grids": [1.0],
    "eval.trajectory": "auto",  # "auto" | "gt" | "est" | "refined"
    "map.mount_height": 0.3,
    "map.mount_forward": 0.0,
    "map.center_fraction": 0.2,
    "map.depth_min": 0.3,
    "map.depth_max": 5.0,
    "map.z_min": 0.0,
    "map.z_max": 3.0,
    "map.cluster_eps": 1.5,
    "map.min_observations": 1,
    "map.trajectory": "auto",  # "auto" | "gt" | "est" | "refined"
    "caption.mode": "mock",  # "mock" | "http"
    "caption.endpoint": "",
    "caption.prompt": DEFAULT_PROMPT,
    "caption.token_env": CAPTION_TOKEN_ENV,
    "caption.max_workers": 4,
    "caption.retries": 3,
    "caption.backoff_s": 0.5,
    "caption.timeout_s": 10.0,
}


def _check_type(key: str, value, default):
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: expected a boolean, got {value!r}")
        return value
    if isinstance(default, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        return type(default)(value) if isinstance(default, float) else value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        return value
    return value


class PipelineConfig:
    """Resolved configuration: defaults overlaid with file and overrides."""

    def __init__(self, values: dict | None = None):
        self._values = dict(DEFAULTS)
        if values:
            self.update(values)

    def update(self, values: dict) -> None:
        for key, value in values.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown configuration key {key!r}")
            self._values[key] = _check_type(key, value, DEFAULTS[key])

    def __getitem__(self, key: str):
        if key not in self._values:
            raise ConfigError(f"unknown configuration key {key!r}")
        return self._values[key]

    def as_dict(self) -> dict:
        return dict(self._values)

    def save(self, path) -> None:
        write_json(path, self._values)


def parse_override(text: str) -> tuple[str, object]:
    """Parse a ``key=value`` override; values read as JSON, else string."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def load_config(path=None, overrides: list[str] | None = None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is not None:
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
        cfg.update(data)
    if overrides:
        cfg.update(dict(parse_override(o) for o in overrides))
    return cfg
