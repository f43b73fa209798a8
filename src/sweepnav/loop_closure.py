"""Trajectory refinement by learned per-frame corrections.

A coverage run starts and ends at the charging dock, so the estimated
trajectory should close; drift opens it.  Refinement deforms the
trajectory with per-frame corrections

    p'_t = p_1 + sum_{t'=2..t} Rz(r_{t'}) (p_{t'} - p_{t'-1}) + l_t

(each increment rotated by its own correction angle r, plus a
translation l), and fits the corrections by gradient descent on

    L = lam_loop ||p'_T - p_1||^2
      + lam_rot  (sum_{t=2..T} r_t)^2
      + lam_smooth max_t ||p'_t - p'_{t-1} - v_t||

where v_t is the per-frame displacement implied by the velocity
estimates.  The corrections are produced by a small dense network over
the normalized frame index, which regularizes them to vary smoothly
along the trajectory.  Gradients are analytic (the max term follows
its argmax frame, ties to the lowest index); optimization is Adam.

Memory: an epoch's cost is dominated by passes over (T, hidden)
activations, which for long recordings exceed the CPU's L2 cache.  So
the network reuses its (T, hidden) buffers across epochs -- two float
arrays, which hold the activations and then their gradients, and two
bool ReLU masks -- and ``refine`` runs training, the final check and
the best-epoch prediction through one network, so one set is alive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import check_frames, read_jsonl, write_csv, write_jsonl
from .geometry import wrap_angle
from .imu import _frozen
from .trajectory import Trajectory

LOSS_CSV_HEADER = "epoch,total,loop,rot,smooth"
_R_MAX = np.pi + 1e-12  # largest rotation correction accepted, with rounding slack


@dataclass(frozen=True)
class CorrectionParams:
    """Per-frame corrections: rotations r (T,) in [-pi, pi], offsets l (T, 2).

    ``r[0]`` never rotates an increment (increments start at frame 2)
    but does enter the corrected yaw stream.
    """

    r: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        r = _frozen(self.r)
        l = _frozen(self.l)
        if r.ndim != 1 or l.shape != (len(r), 2):
            raise ValueError(f"expected r (T,) and l (T, 2), got {r.shape}, {l.shape}")
        if len(r) and (np.abs(r) > _R_MAX).any():
            raise ValueError("rotation corrections must lie in [-pi, pi]")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "l", l)

    def __len__(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    loop: float
    rot: float
    smooth: float


@dataclass(frozen=True)
class RefineConfig:
    epochs: int = 100
    learning_rate: float = 0.01
    lambda_loop: float = 1.0
    lambda_rot: float = 1.0
    lambda_smooth: float = 1.0
    seed: int = 0
    hidden: int = 64
    smooth_temperature: float | None = None  # None = hard max

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if min(self.lambda_loop, self.lambda_rot, self.lambda_smooth) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.smooth_temperature is not None and self.smooth_temperature <= 0:
            raise ValueError("smooth_temperature must be positive")


def apply_corrections(traj: Trajectory, params: CorrectionParams) -> Trajectory:
    """Deform a trajectory by per-frame corrections.

    Positions follow the increment-rotation model above; yaw becomes
    ``yaw_t + sum_{t'<=t} r_{t'}``, wrapped.  Timestamps and frame rate
    are preserved.
    """
    n = len(traj)
    if len(params) != n:
        raise ValueError(f"corrections cover {len(params)} frames, trajectory has {n}")
    if n == 0:
        return traj
    if not params.r.any() and not params.l.any():
        # identity corrections reproduce the input bit for bit rather than
        # through a cumulative-sum round trip
        return Trajectory(traj.t, traj.xy, traj.yaw, traj.frame_rate)
    d = np.diff(traj.xy, axis=0)  # (n-1, 2)
    ang = params.r[1:]
    c, s = np.cos(ang), np.sin(ang)
    rotated = np.column_stack([c * d[:, 0] - s * d[:, 1], s * d[:, 0] + c * d[:, 1]])
    xy = np.empty_like(traj.xy)
    xy[0] = traj.xy[0]
    xy[1:] = traj.xy[0] + np.cumsum(rotated, axis=0)
    xy = xy + params.l
    yaw = wrap_angle(traj.yaw + np.cumsum(params.r))
    return Trajectory(traj.t, xy, yaw, traj.frame_rate)


def refinement_loss(traj: Trajectory, params: CorrectionParams, per_frame_v: np.ndarray,
                    cfg: RefineConfig | None = None) -> LossBreakdown:
    """Evaluate the refinement loss at given corrections."""
    cfg = cfg or RefineConfig()
    per_frame_v = np.asarray(per_frame_v, dtype=float)
    state = _forward_positions(traj.xy, params.r, params.l, per_frame_v, cfg)
    return state["breakdown"]


def _forward_positions(P: np.ndarray, r: np.ndarray, l: np.ndarray,
                       v: np.ndarray, cfg: RefineConfig) -> dict:
    """Shared forward pass: corrected positions and loss terms."""
    n = len(P)
    if v.shape != (n - 1, 2):
        raise ValueError(f"per_frame_v must have shape ({n - 1}, 2), got {v.shape}")
    D = np.diff(P, axis=0)
    ang = r[1:]
    c, s = np.cos(ang), np.sin(ang)
    E = np.column_stack([c * D[:, 0] - s * D[:, 1], s * D[:, 0] + c * D[:, 1]])
    C = np.cumsum(E, axis=0)
    Pp = np.empty_like(P)
    Pp[0] = P[0]
    Pp[1:] = P[0] + C
    Pp = Pp + l
    loop_vec = Pp[-1] - P[0]
    loop = float(loop_vec @ loop_vec)
    rsum = float(ang.sum())
    rot = rsum * rsum
    S = np.diff(Pp, axis=0) - v
    norms = np.linalg.norm(S, axis=1)
    if cfg.smooth_temperature is None:
        j_star = int(np.argmax(norms))  # first occurrence = lowest index on ties
        smooth = float(norms[j_star])
        smooth_weights = None
    else:
        temp = cfg.smooth_temperature
        m = norms.max()
        expo = np.exp((norms - m) / temp)
        smooth = float(m + temp * np.log(expo.sum()))
        smooth_weights = expo / expo.sum()
        j_star = None
    total = cfg.lambda_loop * loop + cfg.lambda_rot * rot + cfg.lambda_smooth * smooth
    return {
        "D": D, "c": c, "s": s, "E": E, "Pp": Pp, "loop_vec": loop_vec,
        "rsum": rsum, "S": S, "norms": norms, "j_star": j_star,
        "smooth_weights": smooth_weights,
        "breakdown": LossBreakdown(total, loop, rot, smooth),
    }


def _backward_positions(state: dict, cfg: RefineConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the total loss w.r.t. r (T,) and l (T, 2)."""
    Pp = state["Pp"]
    g_Pp = np.zeros_like(Pp)
    g_Pp[-1] += 2.0 * cfg.lambda_loop * state["loop_vec"]
    if cfg.smooth_temperature is None:
        j = state["j_star"]
        nj = state["norms"][j]
        if nj > 0.0:
            w = cfg.lambda_smooth * state["S"][j] / nj
            g_Pp[j + 1] += w
            g_Pp[j] -= w
    else:
        norms = state["norms"]
        S = state["S"]
        weights = state["smooth_weights"]
        safe = np.where(norms > 0.0, norms, 1.0)
        W = cfg.lambda_smooth * (weights / safe)[:, None] * S
        W[norms == 0.0] = 0.0
        g_Pp[1:] += W
        g_Pp[:-1] -= W
    g_l = g_Pp.copy()
    g_C = g_Pp[1:]
    g_E = np.cumsum(g_C[::-1], axis=0)[::-1]
    D, c, s = state["D"], state["c"], state["s"]
    dEx_dang = -s * D[:, 0] - c * D[:, 1]
    dEy_dang = c * D[:, 0] - s * D[:, 1]
    g_ang = g_E[:, 0] * dEx_dang + g_E[:, 1] * dEy_dang
    g_r = np.zeros(n)
    g_r[1:] = g_ang + 2.0 * cfg.lambda_rot * state["rsum"]
    return g_r, g_l


# ---------------------------------------------------------------------------
# Correction network


class CorrectionMlp:
    """Dense network mapping normalized frame index to (r_raw, lx, ly).

    Three dense layers (1 -> hidden -> hidden -> 3) with ReLU between;
    the rotation channel passes through pi * tanh so corrections stay in
    [-pi, pi].  Weights start He-uniform scaled by 0.01, so the initial
    corrections are near zero and refinement starts from the unrefined
    trajectory.

    Memory model: the network owns its per-frame buffers -- two float
    (T, hidden) activations, their two bool ReLU masks, and the (T, 3)
    output and its gradient -- allocated on first use and again only
    when T changes, so refinement epochs allocate no (T, hidden) array.
    ``forward`` returns views of these buffers, valid until the next
    ``forward``; ``backward`` overwrites the activations with their
    gradients, so each forward pass is back-propagated at most once.
    """

    def __init__(self, params: list[np.ndarray]):
        self.params = params  # [W1, b1, W2, b2, W3, b3]
        self._buffers: dict[str, np.ndarray] = {}

    @classmethod
    def initialize(cls, seed: int = 0, hidden: int = 64, init_scale: float = 0.01) -> "CorrectionMlp":
        rng = np.random.default_rng(seed)
        dims = [1, hidden, hidden, 3]
        params = []
        for i in range(3):
            lim = np.sqrt(6.0 / dims[i])
            params.append(rng.uniform(-lim, lim, (dims[i], dims[i + 1])) * init_scale)
            params.append(np.zeros(dims[i + 1]))
        return cls(params)

    def _buffers_for(self, n: int) -> dict[str, np.ndarray]:
        hidden = self.params[0].shape[1]
        buf = self._buffers
        if "h1" not in buf or buf["h1"].shape != (n, hidden):
            buf = self._buffers = {
                "h1": np.empty((n, hidden)), "h2": np.empty((n, hidden)),
                "mask1": np.empty((n, hidden), dtype=bool),
                "mask2": np.empty((n, hidden), dtype=bool),
                "out": np.empty((n, 3)), "g_out": np.empty((n, 3)),
            }
        return buf

    def forward(self, s: np.ndarray) -> dict:
        """``s`` is the (T, 1) column of normalized frame indices."""
        W1, b1, W2, b2, W3, b3 = self.params
        buf = self._buffers_for(len(s))
        h1, h2, mask1, mask2, out = buf["h1"], buf["h2"], buf["mask1"], buf["mask2"], buf["out"]
        # one input feature: layer 1 is an outer product, which forms the
        # same rounded products as a K=1 matmul at half its cost
        np.multiply(s, W1, out=h1)
        h1 += b1
        np.greater(h1, 0.0, out=mask1)
        np.maximum(h1, 0.0, out=h1)
        np.matmul(h1, W2, out=h2)
        h2 += b2
        np.greater(h2, 0.0, out=mask2)
        np.maximum(h2, 0.0, out=h2)
        np.matmul(h2, W3, out=out)
        out += b3
        r = np.pi * np.tanh(out[:, 0])
        l = out[:, 1:]
        return {"s": s, "h1": h1, "mask1": mask1, "h2": h2, "mask2": mask2, "r": r, "l": l}

    def backward(self, cache: dict, g_r: np.ndarray, g_l: np.ndarray) -> list[np.ndarray]:
        """Gradients w.r.t. parameters given gradients on (r, l).

        Consumes ``cache``: the activation buffers end up holding the
        gradients of the pre-activations.
        """
        W1, b1, W2, b2, W3, b3 = self.params
        h1, h2 = cache["h1"], cache["h2"]
        tanh_out = cache["r"] / np.pi
        g_out = self._buffers["g_out"]
        g_out[:, 0] = g_r * np.pi * (1.0 - tanh_out ** 2)
        g_out[:, 1:] = g_l
        g_W3 = h2.T @ g_out
        g_b3 = g_out.sum(axis=0)
        g_z2 = np.matmul(g_out, W3.T, out=h2)
        g_z2 *= cache["mask2"]
        g_W2 = h1.T @ g_z2
        g_b2 = g_z2.sum(axis=0)
        g_z1 = np.matmul(g_z2, W2.T, out=h1)
        g_z1 *= cache["mask1"]
        g_W1 = cache["s"].T @ g_z1
        g_b1 = g_z1.sum(axis=0)
        return [g_W1, g_b1, g_W2, g_b2, g_W3, g_b3]

    def predict(self, n_frames: int) -> CorrectionParams:
        s = _index_column(n_frames)
        cache = self.forward(s)
        return CorrectionParams(cache["r"], cache["l"])


def _index_column(n_frames: int) -> np.ndarray:
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if n_frames == 1:
        return np.zeros((1, 1))
    return (np.arange(n_frames) / (n_frames - 1)).reshape(-1, 1)


def loss_and_gradients(traj_xy: np.ndarray, mlp: CorrectionMlp, per_frame_v: np.ndarray,
                       cfg: RefineConfig) -> tuple[LossBreakdown, list[np.ndarray]]:
    """One full forward/backward pass through network and loss."""
    n = len(traj_xy)
    s = _index_column(n)
    cache = mlp.forward(s)
    state = _forward_positions(traj_xy, cache["r"], cache["l"], per_frame_v, cfg)
    g_r, g_l = _backward_positions(state, cfg, n)
    grads = mlp.backward(cache, g_r, g_l)
    return state["breakdown"], grads


def refine(traj: Trajectory, per_frame_v: np.ndarray,
           cfg: RefineConfig | None = None) -> tuple[Trajectory, CorrectionParams, list[LossBreakdown]]:
    """Fit corrections by Adam and return the best-loss refinement.

    The zero-correction input is kept as a candidate alongside every
    epoch, so refinement never returns anything worse than the
    unrefined trajectory; on an already-closed input it is a no-op.
    Returns the refined trajectory, the corrections that produced it,
    and the loss history (initial loss plus one entry per epoch; the
    running minimum of the history is non-increasing by construction).
    A non-finite loss aborts with the epoch and learning rate in the
    message.
    """
    cfg = cfg or RefineConfig()
    n = len(traj)
    if n < 2:
        raise ValueError("refinement needs at least two frames")
    per_frame_v = np.asarray(per_frame_v, dtype=float)
    identity = CorrectionParams(np.zeros(n), np.zeros((n, 2)))
    baseline = refinement_loss(traj, identity, per_frame_v, cfg)
    mlp = CorrectionMlp.initialize(cfg.seed, cfg.hidden)
    m_state = [np.zeros_like(p) for p in mlp.params]
    v_state = [np.zeros_like(p) for p in mlp.params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    history: list[LossBreakdown] = []
    best_loss = baseline.total
    best_params: list[np.ndarray] | None = None  # None = keep the input
    for epoch in range(cfg.epochs):
        breakdown, grads = loss_and_gradients(traj.xy, mlp, per_frame_v, cfg)
        if not np.isfinite(breakdown.total):
            raise RuntimeError(
                f"refinement diverged at epoch {epoch} (learning_rate={cfg.learning_rate})"
            )
        history.append(breakdown)
        if breakdown.total < best_loss:
            best_loss = breakdown.total
            best_params = [p.copy() for p in mlp.params]
        step = epoch + 1
        for i, g in enumerate(grads):
            m_state[i] = beta1 * m_state[i] + (1 - beta1) * g
            v_state[i] = beta2 * v_state[i] + (1 - beta2) * g * g
            m_hat = m_state[i] / (1 - beta1 ** step)
            v_hat = v_state[i] / (1 - beta2 ** step)
            mlp.params[i] = mlp.params[i] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    final = refinement_loss(traj, mlp.predict(n), per_frame_v, cfg)
    if np.isfinite(final.total):
        history.append(final)
        if final.total < best_loss:
            best_loss = final.total
            best_params = [p.copy() for p in mlp.params]
    if best_params is None:
        corrections = identity
    else:
        mlp.params = best_params
        corrections = mlp.predict(n)
    refined = apply_corrections(traj, corrections)
    return refined, corrections, history


# ---------------------------------------------------------------------------
# File formats


def save_corrections(params: CorrectionParams, path) -> None:
    rows = np.column_stack([params.r, params.l]).tolist()
    write_jsonl(path, ({"frame": i, "r": r, "lx": lx, "ly": ly}
                       for i, (r, lx, ly) in enumerate(rows)))


def _correction(rec) -> tuple[int, float, float, float]:
    frame = rec["frame"]
    if type(frame) is not int:
        raise ValueError(f"frame must be an integer, got {frame!r}")
    r = float(rec["r"])
    if abs(r) > _R_MAX:
        raise ValueError(f"rotation correction {r!r} outside [-pi, pi]")
    return frame, r, float(rec["lx"]), float(rec["ly"])


def load_corrections(path) -> CorrectionParams:
    """Read corrections written by ``save_corrections``, in any line order.

    The frames must be exactly 0..n-1, each once; a malformed line, a
    rotation outside [-pi, pi], a repeated frame or a missing frame
    raises ValueError naming the offending line.
    """
    rows = read_jsonl(path, _correction)
    check_frames(path, [(row[0], lineno) for lineno, row in rows], len(rows))
    rows.sort(key=lambda item: item[1][0])
    values = np.array([row[1:] for _, row in rows], dtype=float).reshape(-1, 3)
    return CorrectionParams(values[:, 0], values[:, 1:])


def save_loss_history(history, path) -> None:
    write_csv(path, LOSS_CSV_HEADER,
              ([epoch, float(h.total), float(h.loop), float(h.rot), float(h.smooth)]
               for epoch, h in enumerate(history)))
