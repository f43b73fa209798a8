"""Flat key-value pipeline configuration.

Keys are dotted (``module.field``) and flat: no nesting in the JSON
file, no positional coupling between stages.  Precedence is defaults <
config file < explicit overrides.  Unknown keys are an error (typo
guard), as are a value whose type disagrees with the default (a number
must be finite and within a float's range), a value of a ``CHOICES`` key
outside its choices, a value of a ``LIMITS`` key that breaks its rule,
and a list that holds anything but such numbers, or not as many as the
default (``eval.grids``: one or more).  All of it is checked as a value
is set.  The keys of a section in ``SECTIONS`` are its dataclass's
fields, with their defaults; a section's own rules (its dataclass's
``__post_init__``) are checked when the section is built, which the CLI
does for every section once the configuration is resolved, before a
command reads any file.

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
    n_items: int = 10  # items placed in the scene

    def __post_init__(self):
        if min(self.room_width, self.room_height, self.row_spacing) <= 0:
            raise ValueError("room dimensions and row_spacing must be positive")
        if self.row_spacing > self.room_height + 1e-12:
            raise ValueError("row_spacing must not exceed room_height")
        if self.row_spacing > 2 * self.room_width:
            raise ValueError("row_spacing must not exceed twice room_width (turn radius)")
        if self.speed <= 0 or self.sample_rate_hz <= 0:
            raise ValueError("speed and sample_rate_hz must be positive")
        if self.turn_model not in ("arc", "stop_and_turn"):
            raise ValueError("turn_model must be 'arc' or 'stop_and_turn'")
        if self.n_items < 0:
            raise ValueError("n_items must be >= 0")


@dataclass(frozen=True)
class MapConfig:
    """Mount calibration: the camera's height above the floor, which must
    lie in the indoor band [0, 3] m, and its offset ahead of the robot
    origin."""

    mount_height: float = 0.3  # m
    mount_forward: float = 0.0  # m

    def __post_init__(self):
        if not 0.0 <= self.mount_height <= 3.0:
            raise ValueError("mount_height must be within [0, 3] m")


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


@dataclass(frozen=True)
class OracleConfig:
    """Errors of the ground-truth estimator double: ``bias`` is added in
    the estimator's input frame, and noise of ``noise_sigma`` per axis is
    drawn per window from a generator seeded by ``(seed, window_start)``."""

    bias: tuple[float, float] = (0.0, 0.0)
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bias", tuple(map(float, self.bias)))
        if len(self.bias) != 2:
            raise ValueError("bias must hold 2 numbers")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


_REDUCERS = ("median", "mean")


@dataclass(frozen=True)
class RaeConfig:
    """Ensemble shape: member count and reducer."""

    k: int = 5
    reducer: str = "median"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.reducer not in _REDUCERS:
            raise ValueError(f"reducer must be one of {_REDUCERS}")


@dataclass(frozen=True)
class RefineConfig:
    epochs: int = 100
    learning_rate: float = 0.01
    hidden: int = 64

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")


# ---------------------------------------------------------------------------
# Flat keys


# prefix -> the dataclass whose fields the ``prefix.<field>`` keys set
SECTIONS: dict = {
    "sim": SimConfig,
    "oracle": OracleConfig,
    "map": MapConfig,
    "rae": RaeConfig,
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
    "hacf.tau": 64,
    "hacf.stride": 0,  # 0 = tau (non-overlapping windows)
    "estimator.kind": "oracle",
    "estimator.weights": "",
    "estimator.v_max": 2.0,
    **_field_defaults("oracle"),
    **_field_defaults("rae"),
    "capture.distance_m": 1.0,
    "capture.rotation_rad": math.pi / 2,
    **_field_defaults("refine"),
    "eval.trim_outliers": True,
    "eval.grids": [1.0],
    "eval.trajectory": "auto",
    **_field_defaults("map"),
    "map.trajectory": "auto",
    "caption.mode": "mock",
    **_field_defaults("caption"),
}

# enumerated string keys that no section dataclass checks -> allowed values
CHOICES: dict = {
    "estimator.kind": ("oracle", "network"),
    "eval.trajectory": ("auto", "gt", "est", "refined"),
    "map.trajectory": ("auto", "gt", "est", "refined"),
    "caption.mode": ("mock", "http"),
}

# number keys that no section dataclass checks -> the rule their values
# keep, and its text
LIMITS: dict = {
    "hacf.tau": (lambda x: x >= 1, "must be >= 1"),
    "hacf.stride": (lambda x: x >= 0, "must be >= 0 (0 = tau)"),
    "estimator.v_max": (lambda x: x > 0, "must be positive"),
    "capture.distance_m": (lambda x: x > 0, "must be positive"),
    "capture.rotation_rad": (lambda x: x > 0, "must be positive"),
}

# list keys of one or more numbers; any other holds as many as its default
_OPEN_LISTS = {"eval.grids"}


def _is_number(value) -> bool:
    """A JSON number that a float holds: ``true``, ``false``, ``NaN``,
    ``Infinity`` and integers past the float range are not numbers."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _check_type(key: str, value, default):
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: expected a boolean, got {value!r}")
        return value
    if isinstance(default, (int, float)):
        if not _is_number(value):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        if isinstance(default, int) and not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        value = float(value) if isinstance(default, float) else value
        holds, rule = LIMITS.get(key, (None, None))
        if holds and not holds(value):
            raise ConfigError(f"{key}: {rule}, got {value!r}")
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        if value not in CHOICES.get(key, (value,)):
            raise ConfigError(f"{key}: expected one of {', '.join(CHOICES[key])}, "
                              f"got {value!r}")
        return value
    if isinstance(default, list):
        # checked, not converted: config.json keeps the numbers as given
        want = "one or more" if key in _OPEN_LISTS else len(default)
        if not (isinstance(value, list) and all(map(_is_number, value))
                and (len(value) >= 1 if key in _OPEN_LISTS else len(value) == want)):
            raise ConfigError(f"{key}: expected a list of {want} numbers, got {value!r}")
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

    def save(self, path) -> None:
        write_json(path, self._values)


def parse_override(text: str) -> tuple[str, object]:
    """Parse a ``key=value`` override.  The value is the text itself
    where the key's default is a string (a weights file may be named
    ``2024``), else the text read as JSON, else the text itself."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if isinstance(DEFAULTS.get(key), str):
        return key, raw
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


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
