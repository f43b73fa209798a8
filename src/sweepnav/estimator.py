"""Windowed velocity estimation: dense network inference and an oracle double.

A model's ``velocities(windows, starts, angles)`` takes an
(N, 2, tau + 1, 3) stack of heading-anchored windows, their N start
frames and K angles, and returns (N, K, 2): member (i, k) is the planar
velocity of window i turned by ``angles[k]`` about gravity, so each
window enters the model once.  The oracle replaces the network in tests
and simulation studies: it reads the true mean velocity from a
ground-truth trajectory, turned into each member's frame, then adds a
configurable input-frame bias and seeded noise, so ensemble properties
can be checked against closed-form expectations.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import OracleConfig
from .fileio import json_field
from .geometry import _record, rotate_xy, row_norms, unique

INPUT_LAYOUT = "acc_then_gyro_rowmajor"


class NonFiniteEstimateError(RuntimeError):
    """Every member of a window produced NaN or infinite output (corrupt
    weights, bad input)."""


@_record
class WeightsMeta:
    tau: int
    sample_rate_hz: float
    gravity_subtracted: bool
    input_layout: str = INPUT_LAYOUT


@_record
class Layer:
    kind: str  # "dense" | "relu"
    rows: int = 0
    cols: int = 0
    weights: np.ndarray | None = None  # (rows, cols)
    bias: np.ndarray | None = None  # (cols,)


@_record
class WeightsBundle:
    meta: WeightsMeta
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        # the network turns windows through layer 0; relu does not commute with that
        if not self.layers or self.layers[0].kind != "dense":
            raise ValueError("layer 0: the first layer must be dense")
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


def load_weights(path) -> WeightsBundle:
    """Load a weights bundle from JSON.

    Dense layer data is base64 of little-endian float32, row-major
    weights followed by the bias vector (``rows*cols + cols`` values).
    The caller cuts windows of ``meta.tau`` and resamples its input to
    ``meta.sample_rate_hz``, which must be a finite, positive JSON
    number.  ``gravity_subtracted`` must be true: the
    pipeline only feeds windows with gravity removed.  Any malformed
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
        rate = json_field(meta_doc, "sample_rate_hz", float)
        if not rate > 0.0:
            raise ValueError(f"sample_rate_hz must be positive, got {rate:g}")
        meta = WeightsMeta(
            tau=json_field(meta_doc, "tau", int),
            sample_rate_hz=rate,
            gravity_subtracted=True,
            input_layout=str(meta_doc.get("input_layout", INPUT_LAYOUT)),
        )
        layer_docs = doc["layers"]
        if not isinstance(layer_docs, list):
            raise TypeError("layers is not a list")
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed weights bundle: {_reason(exc)}") from None
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
    meta, layers = bundle.meta, []
    for layer in bundle.layers:
        flat = (np.concatenate([layer.weights.ravel(), layer.bias]).astype("<f4").tobytes()
                if layer.kind == "dense" else b"")
        layers.append({"kind": layer.kind, "rows": layer.rows, "cols": layer.cols,
                       "data": base64.b64encode(flat).decode("ascii")})
    doc = {"meta": {"tau": meta.tau, "sample_rate_hz": meta.sample_rate_hz,
                    "gravity_subtracted": meta.gravity_subtracted,
                    "input_layout": meta.input_layout}, "layers": layers}
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
    """Forward pass of a dense network over windows turned about gravity.

    The turn is linear and the first layer dense, so member k's
    first-layer pre-activation is exactly cos(theta_k) A + sin(theta_k) B
    + C, with A|B = [X|Y] @ [[Wx, Wy], [Wy, -Wx]] and C = Z @ Wz + b
    shared by the K members of a window (X, Y, Z its x, y and z samples;
    Wx, Wy, Wz the rows of the first layer that read them).  Only the
    later layers run per member.  The bundle's float32 parameters are
    used as float64, which keeps repeated runs bit-stable.
    """

    def __init__(self, bundle: WeightsBundle):
        self.tau = bundle.meta.tau
        first, self._rest = bundle.layers[0], bundle.layers[1:]
        w = first.weights.reshape(2 * (self.tau + 1), 3, first.cols)  # (sample, xyz, out)
        wx, wy = w[:, 0], w[:, 1]
        self._w_ab = np.stack([np.vstack([wx, wy]), np.vstack([wy, -wx])])  # A's, B's columns
        self._w_z, self._b = np.ascontiguousarray(w[:, 2]), first.bias

    def velocities(self, windows: np.ndarray, starts, angles) -> np.ndarray:
        """(N, K, 2) outputs for an (N, 2, tau + 1, 3) stack and K angles."""
        if windows.shape[1:] != (2, self.tau + 1, 3):
            raise ValueError(
                f"windows have shape {windows.shape[1:]}, network expects "
                f"(2, {self.tau + 1}, 3) (tau={self.tau})"
            )
        n, k, (m, hidden) = len(windows), len(angles), self._w_z.shape
        xyz = np.moveaxis(windows, 3, 1).reshape(n, 3, m)  # X, Y, Z
        ab = np.matmul(xyz[:, :2].reshape(n, 2 * m), self._w_ab)  # (2, N, hidden)
        turn = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # (K, 2)
        x = (turn @ ab.reshape(2, -1)).reshape(k, n, hidden)  # cos A + sin B
        x += xyz[:, 2] @ self._w_z + self._b
        x = x.reshape(-1, hidden)
        for layer in self._rest:
            if layer.kind == "dense":
                x = x @ layer.weights
                x += layer.bias
            else:
                np.maximum(x, 0.0, out=x)
        return x.reshape(k, n, 2).transpose(1, 0, 2)


class OracleVelocityEstimator:
    """True mean velocity over each window, in the frame of each member.

    Member (i, k) reads ``Rz(angles[k] - yaw_0) @ v_true + bias + noise``,
    where ``v_true`` is the ground-truth world displacement across window
    i over its duration and ``yaw_0`` the true yaw at frame 0.  So the
    estimate is in the heading-anchored frame the windows are in (x along
    the heading at frame 0, see ``imu.to_hacf``), as a network's is, and
    turning the world turns no estimate.  The bias is added after the
    rotation: that is exactly the error mode a rotation ensemble averages
    out.  The noise is drawn once per window start, so evaluation order
    (or parallelism) cannot change results.  The contents themselves are
    never read, so the window length ``tau`` that ``infer`` cuts for it
    is a constant.
    """

    tau = 64

    def __init__(self, trajectory: "Trajectory", cfg: OracleConfig = OracleConfig()):
        self.trajectory = trajectory
        self.cfg = cfg

    def velocities(self, windows: np.ndarray, starts, angles) -> np.ndarray:
        traj = self.trajectory
        tau = windows.shape[2] - 1
        starts = np.asarray(starts, dtype=int)
        ends = starts + tau
        bad = (starts < 0) | (ends >= len(traj))
        if bad.any():
            raise ValueError(f"window frames [{starts[bad][0]}, {ends[bad][0]}] fall outside "
                             f"the ground-truth span of {len(traj)} frames")
        v_true = (traj.xy[ends] - traj.xy[starts]) / (tau / traj.frame_rate)
        v = rotate_xy(v_true[:, None], angles - traj.yaw[0]) + np.array(self.cfg.bias)
        if self.cfg.noise_sigma > 0.0:
            uniq = unique(starts)
            noise = np.array([np.random.default_rng((self.cfg.seed, int(s)))
                              .normal(0.0, self.cfg.noise_sigma, 2) for s in uniq])
            v = v + noise[np.searchsorted(uniq, starts), None]
        return v


class MemberEstimates(NamedTuple):
    v: np.ndarray  # (N, K, 2) m/s, clamped; NaN where dropped
    kept: np.ndarray  # (N, K) bool, False for non-finite output
    over: np.ndarray  # (N, K) bool, scaled back to v_max
    clamped: int  # over.sum()


def estimate_velocity(windows: np.ndarray, starts, angles, model,
                      v_max: float = 2.0) -> MemberEstimates:
    """Run ``model`` on N windows, each turned by K angles, then validate
    and clamp its (N, K, 2) members.

    ``starts`` gives each window's start frame.  Non-finite outputs are
    masked out (NaN, ``kept`` False); speeds above ``v_max`` are scaled
    back to ``v_max``.
    """
    starts, angles = np.asarray(starts, dtype=int), np.asarray(angles, dtype=float)
    shape = (len(windows), len(angles), 2)
    v = np.asarray(model.velocities(windows, starts, angles), dtype=float)
    if v.shape != shape:
        raise ValueError(f"model output must have shape {shape}, got {v.shape}")
    kept = np.isfinite(v).all(axis=2)
    v, over = clamp_speed(np.where(kept[..., None], v, np.nan).reshape(-1, 2), v_max)
    return MemberEstimates(v.reshape(shape), kept, over.reshape(shape[:2]), int(over.sum()))


def clamp_speed(v: np.ndarray, v_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of an (M, 2) array whose norm exceeds ``v_max`` back
    to ``v_max``; also return the mask of scaled rows.  NaN rows pass."""
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    speed = row_norms(v)
    over = speed > v_max
    scale = np.divide(v_max, speed, out=np.ones_like(speed), where=over)
    return v * scale[:, None], over
