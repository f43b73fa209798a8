"""Windowed velocity estimation: dense network inference and an oracle double.

The network maps a flattened window of heading-anchored samples to a
planar velocity.  The oracle replaces the network in tests and
simulation studies: it reads the true mean velocity straight from a
ground-truth trajectory, re-expressed in the frame of the window's
inputs, then adds a configurable input-frame bias and seeded noise.
Because the oracle honors frame rotations exactly, ensemble properties
can be checked against closed-form expectations.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fileio import json_field
from .geometry import rotate_xy, row_norms

INPUT_LAYOUT = "acc_then_gyro_rowmajor"


class NonFiniteEstimateError(RuntimeError):
    """Every member of a window produced NaN or infinite output (corrupt
    weights, bad input)."""


@dataclass(frozen=True)
class WeightsMeta:
    tau: int
    sample_rate_hz: float
    gravity_subtracted: bool
    input_layout: str = INPUT_LAYOUT


@dataclass(frozen=True)
class Layer:
    kind: str  # "dense" | "relu"
    rows: int = 0
    cols: int = 0
    weights: np.ndarray | None = None  # (rows, cols)
    bias: np.ndarray | None = None  # (cols,)


@dataclass(frozen=True)
class WeightsBundle:
    meta: WeightsMeta
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        dim = 6 * (self.meta.tau + 1)
        for i, layer in enumerate(self.layers):
            if layer.kind == "relu":
                continue
            if layer.kind != "dense":
                raise ValueError(f"layer {i}: unknown kind '{layer.kind}'")
            if layer.rows != dim:
                raise ValueError(
                    f"layer {i}: expects {layer.rows} inputs but receives {dim}"
                )
            dim = layer.cols
        if dim != 2:
            raise ValueError(f"final layer must produce 2 outputs, got {dim}")
        if self.meta.input_layout != INPUT_LAYOUT:
            raise ValueError(f"unsupported input layout '{self.meta.input_layout}'")


def load_weights(path, expected_tau: int | None = None,
                 expected_rate: float | None = None) -> WeightsBundle:
    """Load a weights bundle from JSON.

    Dense layer data is base64 of little-endian float32, row-major
    weights followed by the bias vector (``rows*cols + cols`` values).
    When ``expected_tau`` or ``expected_rate`` are given, a metadata
    mismatch with the calling pipeline is an error rather than a silent
    reinterpretation of the input.  ``gravity_subtracted`` must be true:
    the pipeline only feeds windows with gravity removed.  Any malformed
    part raises ``ValueError("path: ...")``, naming the layer at fault.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    try:
        meta_doc = doc["meta"]
        if meta_doc["gravity_subtracted"] is not True:
            raise ValueError("gravity_subtracted must be true: the pipeline feeds "
                             "windows with gravity removed")
        meta = WeightsMeta(
            tau=json_field(meta_doc, "tau", int),
            sample_rate_hz=float(meta_doc["sample_rate_hz"]),
            gravity_subtracted=True,
            input_layout=str(meta_doc.get("input_layout", INPUT_LAYOUT)),
        )
        layer_docs = doc["layers"]
        if not isinstance(layer_docs, list):
            raise TypeError("layers is not a list")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed weights bundle: {_reason(exc)}") from None
    if expected_tau is not None and meta.tau != expected_tau:
        raise ValueError(
            f"{path}: weights were trained for tau={meta.tau}, pipeline uses tau={expected_tau}"
        )
    if expected_rate is not None and abs(meta.sample_rate_hz - expected_rate) > 1e-9:
        raise ValueError(
            f"{path}: weights expect {meta.sample_rate_hz} Hz input, pipeline runs at {expected_rate} Hz"
        )
    layers = []
    for i, ld in enumerate(layer_docs):
        try:
            layers.append(_layer(ld))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: layer {i}: {_reason(exc)}") from None
    try:
        return WeightsBundle(meta, tuple(layers))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _reason(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _layer(ld) -> Layer:
    """One layer of a weights document."""
    if not isinstance(ld, dict):
        raise TypeError("not a JSON object")
    kind = ld.get("kind")
    if kind == "relu":
        return Layer("relu")
    if kind != "dense":
        raise ValueError(f"unknown kind '{kind}'")
    rows, cols = json_field(ld, "rows", int), json_field(ld, "cols", int)
    flat = np.frombuffer(base64.b64decode(ld.get("data", "")), dtype="<f4").astype(float)
    expected = rows * cols + cols
    if flat.size != expected:
        raise ValueError(f"expected {expected} parameters, got {flat.size}")
    return Layer("dense", rows, cols, flat[: rows * cols].reshape(rows, cols),
                 flat[rows * cols :])


def save_weights(bundle: WeightsBundle, path) -> None:
    doc = {
        "meta": {
            "tau": bundle.meta.tau,
            "sample_rate_hz": bundle.meta.sample_rate_hz,
            "gravity_subtracted": bundle.meta.gravity_subtracted,
            "input_layout": bundle.meta.input_layout,
        },
        "layers": [],
    }
    for layer in bundle.layers:
        if layer.kind == "relu":
            doc["layers"].append({"kind": "relu", "rows": 0, "cols": 0, "data": ""})
            continue
        flat = np.concatenate([layer.weights.ravel(), layer.bias]).astype("<f4")
        doc["layers"].append(
            {
                "kind": "dense",
                "rows": layer.rows,
                "cols": layer.cols,
                "data": base64.b64encode(flat.tobytes()).decode("ascii"),
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def make_random_bundle(tau: int = 64, sample_rate_hz: float = 50.0,
                       hidden: tuple[int, ...] = (64, 64), seed: int = 0,
                       scale: float = 0.05) -> WeightsBundle:
    """A seeded random bundle for exercising the network code path."""
    rng = np.random.default_rng(seed)
    dims = [6 * (tau + 1), *hidden, 2]
    layers = []
    for i in range(len(dims) - 1):
        rows, cols = dims[i], dims[i + 1]
        w = rng.normal(0.0, scale / np.sqrt(rows), (rows, cols))
        b = np.zeros(cols)
        layers.append(Layer("dense", rows, cols, w, b))
        if i < len(dims) - 2:
            layers.append(Layer("relu"))
    meta = WeightsMeta(tau, sample_rate_hz, gravity_subtracted=True)
    return WeightsBundle(meta, tuple(layers))


class DenseVelocityNetwork:
    """Forward pass of a dense network over flattened windows.

    Parameters are stored as float32 in the bundle but promoted to
    float64 for the forward pass, which keeps repeated runs bit-stable.
    """

    def __init__(self, bundle: WeightsBundle):
        self.bundle = bundle
        self.tau = bundle.meta.tau

    def velocities(self, windows: np.ndarray, starts, angles) -> np.ndarray:
        """(M, 2) outputs for an (M, 2, tau + 1, 3) stack; one matmul chain."""
        if windows.shape[1:] != (2, self.tau + 1, 3):
            raise ValueError(
                f"windows have shape {windows.shape[1:]}, network expects "
                f"(2, {self.tau + 1}, 3) (tau={self.tau})"
            )
        x = windows.reshape(len(windows), -1)
        for layer in self.bundle.layers:
            if layer.kind == "dense":
                x = x @ layer.weights + layer.bias
            else:
                x = np.maximum(x, 0.0)
        return x


@dataclass(frozen=True)
class OracleConfig:
    """Configuration of the ground-truth-backed estimator double.

    ``bias_hacf`` is added in the estimator's input frame, after any
    rotation of the window contents; that is exactly the error mode a
    rotation ensemble averages out.  Noise is drawn once per window
    from a generator seeded by ``(rng_seed, window_start)``, so
    evaluation order (or parallelism) cannot change results.
    """

    trajectory: "Trajectory"
    bias_hacf: np.ndarray = field(default_factory=lambda: np.zeros(2))
    noise_sigma: float = 0.0

    def __post_init__(self):
        b = np.array(self.bias_hacf, dtype=float, copy=True)
        if b.shape != (2,):
            raise ValueError("bias_hacf must be a 2-vector")
        b.flags.writeable = False
        object.__setattr__(self, "bias_hacf", b)
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


class OracleVelocityEstimator:
    """True mean velocity over each window, in the window's input frame.

    The window starting at ``starts[m]`` with contents rotated by
    ``angles[m]`` reads ``Rz(angles[m]) @ v_true + bias + noise``, where
    ``v_true`` is the ground-truth displacement across the window over
    its duration.  The contents themselves are never read.
    """

    def __init__(self, cfg: OracleConfig, rng_seed: int = 0):
        if cfg.noise_sigma > 0.0 and rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        self.cfg = cfg
        self.rng_seed = rng_seed

    def velocities(self, windows: np.ndarray, starts, angles) -> np.ndarray:
        traj = self.cfg.trajectory
        tau = windows.shape[2] - 1
        starts = np.asarray(starts, dtype=int)
        ends = starts + tau
        bad = (starts < 0) | (ends >= len(traj))
        if bad.any():
            raise ValueError(f"window frames [{starts[bad][0]}, {ends[bad][0]}] fall outside "
                             f"the ground-truth span of {len(traj)} frames")
        v_true = (traj.xy[ends] - traj.xy[starts]) / (tau / traj.frame_rate)
        v = rotate_xy(v_true, angles) + self.cfg.bias_hacf
        if self.cfg.noise_sigma > 0.0:
            uniq, inverse = np.unique(starts, return_inverse=True)
            noise = np.array([np.random.default_rng((self.rng_seed, int(s)))
                              .normal(0.0, self.cfg.noise_sigma, 2) for s in uniq])
            v = v + noise[inverse]
        return v


class MemberEstimates(NamedTuple):
    v: np.ndarray  # (M, 2) m/s, clamped; NaN where dropped
    kept: np.ndarray  # (M,) bool, False for non-finite output
    over: np.ndarray  # (M,) bool, scaled back to v_max
    clamped: int  # over.sum()


def estimate_velocity(windows: np.ndarray, starts, angles, model,
                      v_max: float = 2.0) -> MemberEstimates:
    """Run ``model`` on a stack of M windows, then validate and clamp.

    ``starts`` and ``angles`` give each window's start frame and the
    rotation applied to its contents.  Non-finite outputs are masked
    out (NaN, ``kept`` False); speeds above ``v_max`` are scaled back
    to ``v_max``.
    """
    v = np.asarray(model.velocities(windows, starts, angles), dtype=float)
    if v.shape != (len(windows), 2):
        raise ValueError(f"model output must have shape ({len(windows)}, 2), got {v.shape}")
    kept = np.isfinite(v).all(axis=1)
    v, over = clamp_speed(np.where(kept[:, None], v, np.nan), v_max)
    return MemberEstimates(v, kept, over, int(over.sum()))


def clamp_speed(v: np.ndarray, v_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of an (M, 2) array whose norm exceeds ``v_max`` back
    to ``v_max``; also return the mask of scaled rows.  NaN rows pass."""
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    speed = row_norms(v)
    over = speed > v_max
    scale = np.divide(v_max, speed, out=np.ones_like(speed), where=over)
    return v * scale[:, None], over
