"""Flat key-value pipeline configuration.

Keys are dotted (``module.field``) and flat: no nesting in the JSON
file, no positional coupling between stages.  Precedence is defaults <
config file < explicit overrides.  Unknown keys are an error (typo
guard), as is a value whose type disagrees with the default.  The keys
of a section in ``SECTIONS`` are its dataclass's fields, with their
defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from .fileio import write_json
from .loop_closure import RefineConfig
from .object_map import CaptionServiceConfig, MapConfig
from .rae import RaeConfig
from .sim import SceneConfig, SimConfig
from .trajectory import KalmanConfig


class ConfigError(Exception):
    """Invalid configuration; the CLI maps this to exit code 2."""


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
            for f in dataclasses.fields(SECTIONS[prefix])}


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
