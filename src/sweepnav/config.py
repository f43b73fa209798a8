"""Flat key-value pipeline configuration.

Keys are dotted (``module.field``) and flat: no nesting in the JSON
file, no positional coupling between stages.  Precedence is defaults <
config file < explicit overrides.  Unknown keys are an error (typo
guard), as is a value whose type disagrees with the default.  The keys
of a section in ``SECTIONS`` are its dataclass's fields, with their
defaults.

The section dataclasses live here, not in the modules that run them,
so that resolving a configuration imports no pipeline stage; each
stage's module imports its own back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .fileio import write_json


class ConfigError(Exception):
    """Invalid configuration; the CLI maps this to exit code 2."""


# ---------------------------------------------------------------------------
# Sections: the settings of each stage, one dataclass each


@dataclass(frozen=True)
class SimConfig:
    """Room, motion, and sensor-error parameters of a simulated run."""

    room_width: float = 4.0
    room_height: float = 2.0
    row_spacing: float = 1.0
    speed: float = 0.5  # m/s
    sample_rate_hz: float = 50.0
    acc_noise: float = 0.0  # per-axis sigma, m/s^2
    gyro_noise: float = 0.0  # per-axis sigma, rad/s
    acc_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    gyro_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    seed: int = 0
    turn_model: str = "arc"  # "arc" | "stop_and_turn"
    turn_rate: float = math.pi / 2  # rad/s, stop_and_turn only

    def __post_init__(self):
        if min(self.room_width, self.room_height, self.row_spacing) <= 0:
            raise ValueError("room dimensions and row_spacing must be positive")
        if self.row_spacing > self.room_height + 1e-12:
            raise ValueError("row_spacing must not exceed room_height")
        if self.row_spacing > 2 * self.room_width:
            raise ValueError("row_spacing must not exceed twice room_width (turn radius)")
        if self.speed <= 0 or self.sample_rate_hz <= 0 or self.turn_rate <= 0:
            raise ValueError("speed, sample_rate_hz and turn_rate must be positive")
        if self.turn_model not in ("arc", "stop_and_turn"):
            raise ValueError("turn_model must be 'arc' or 'stop_and_turn'")


@dataclass(frozen=True)
class SceneConfig:
    """Camera model and visibility rules of the synthetic scene."""

    width_px: int = 64
    height_px: int = 48
    focal_px: float = 50.0
    item_radius: float = 0.5  # billboard half-width, m
    caption_half_angle: float = 0.02  # rad; captioned iff |bearing| strictly below
    caption_z_min: float = 0.5  # captioned depth band, m
    caption_z_max: float = 3.0
    item_z: float = 0.3  # item height above floor, m
    wall_margin: float = 1.0  # background walls sit this far outside the room

    def __post_init__(self):
        if self.width_px < 8 or self.height_px < 8:
            raise ValueError("raster must be at least 8x8 pixels")
        if self.focal_px <= 0 or self.item_radius <= 0:
            raise ValueError("focal_px and item_radius must be positive")
        if not 0.0 < self.caption_z_min < self.caption_z_max:
            raise ValueError("require 0 < caption_z_min < caption_z_max")


@dataclass(frozen=True)
class MapConfig:
    """Mount calibration, depth gating, and clustering settings."""

    mount_height: float = 0.3  # camera height above floor, m
    mount_forward: float = 0.0  # camera offset ahead of robot origin, m
    center_fraction: float = 0.2  # side fraction of the central sampling box
    depth_min: float = 0.3  # valid-depth band, m
    depth_max: float = 5.0
    z_min: float = 0.0  # indoor sanity band on observation height, m
    z_max: float = 3.0
    cluster_eps: float = 1.5  # single-linkage merge distance, m
    min_observations: int = 1

    def __post_init__(self):
        if not 0.0 < self.center_fraction <= 1.0:
            raise ValueError("center_fraction must be in (0, 1]")
        if not 0.0 <= self.depth_min < self.depth_max:
            raise ValueError("require 0 <= depth_min < depth_max")
        if self.cluster_eps <= 0:
            raise ValueError("cluster_eps must be positive")
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")


DEFAULT_PROMPT = (
    "Describe the names of all the products in the image while "
    "emphasizing texts if they exist."
)
CAPTION_TOKEN_ENV = "SWEEPNAV_CAPTION_TOKEN"


@dataclass(frozen=True)
class CaptionServiceConfig:
    endpoint: str = ""
    prompt: str = DEFAULT_PROMPT
    token_env: str = CAPTION_TOKEN_ENV
    max_workers: int = 4
    retries: int = 3
    backoff_s: float = 0.5
    timeout_s: float = 10.0

    def __post_init__(self):
        if self.max_workers < 1 or self.retries < 1:
            raise ValueError("max_workers and retries must be >= 1")


_ANGLE_MODES = ("grid", "seeded_random")
_REDUCERS = ("median", "mean", "trimmed_mean")


@dataclass(frozen=True)
class RaeConfig:
    """Ensemble shape: member count, angle selection, reducer."""

    k: int = 5
    angle_mode: str = "grid"
    reducer: str = "median"
    trim_fraction: float = 0.1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.angle_mode not in _ANGLE_MODES:
            raise ValueError(f"angle_mode must be one of {_ANGLE_MODES}")
        if self.reducer not in _REDUCERS:
            raise ValueError(f"reducer must be one of {_REDUCERS}")
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ValueError("trim_fraction must lie in [0, 0.5)")


@dataclass(frozen=True)
class KalmanConfig:
    """Constant-velocity filter noise levels.

    ``sigma_process`` is the white-acceleration density driving the
    velocity state; ``sigma_obs`` is the per-axis standard deviation
    assigned to velocity observations.
    """

    sigma_process: float = 0.1
    sigma_obs: float = 0.1

    def __post_init__(self):
        if self.sigma_process < 0 or self.sigma_obs <= 0:
            raise ValueError("sigma_process must be >= 0 and sigma_obs > 0")


@dataclass(frozen=True)
class RefineConfig:
    epochs: int = 100
    learning_rate: float = 0.01
    lambda_loop: float = 1.0
    lambda_rot: float = 1.0
    lambda_smooth: float = 1.0
    seed: int = 0
    hidden: int = 64

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if min(self.lambda_loop, self.lambda_rot, self.lambda_smooth) < 0:
            raise ValueError("loss weights must be non-negative")


# ---------------------------------------------------------------------------
# Flat keys


# prefix -> the dataclass whose fields the ``prefix.<field>`` keys set
SECTIONS: dict = {
    "sim": SimConfig,
    "scene": SceneConfig,
    "map": MapConfig,
    "rae": RaeConfig,
    "kalman": KalmanConfig,
    "refine": RefineConfig,
    "caption": CaptionServiceConfig,
}


def _field_defaults(prefix: str) -> dict:
    """The ``prefix.<field>`` keys of a section at their dataclass defaults."""
    return {f"{prefix}.{f.name}": list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(SECTIONS[prefix])}


# Keys of a section field default to that field; the literal keys are
# the ones the commands read themselves.
DEFAULTS: dict = {
    **_field_defaults("sim"),
    "sim.n_items": 10,
    **_field_defaults("scene"),
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
    **_field_defaults("rae"),
    "rae.seed": 0,
    **_field_defaults("kalman"),
    "capture.distance_m": 1.0,
    "capture.rotation_rad": math.pi / 2,
    "capture.mode": "or",
    **_field_defaults("refine"),
    "eval.trim_outliers": True,
    "eval.grids": [1.0],
    "eval.trajectory": "auto",  # "auto" | "gt" | "est" | "refined"
    **_field_defaults("map"),
    "map.trajectory": "auto",  # "auto" | "gt" | "est" | "refined"
    "caption.mode": "mock",  # "mock" | "http"
    **_field_defaults("caption"),
}


def _check_type(key: str, value, default):
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: expected a boolean, got {value!r}")
        return value
    if isinstance(default, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        if isinstance(default, int) and not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return float(value) if isinstance(default, float) else value
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


def parse_value(key: str, raw: str):
    """The value of ``key`` given as text: the text itself where the
    key's default is a string (a weights file may be named ``2024``),
    else read as JSON, else the string itself."""
    if isinstance(DEFAULTS.get(key), str):
        return raw
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_override(text: str) -> tuple[str, object]:
    """Parse a ``key=value`` override."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    return key, parse_value(key, raw)


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
