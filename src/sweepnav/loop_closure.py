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

from .fileio import write_csv, write_jsonl
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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if min(self.lambda_loop, self.lambda_rot, self.lambda_smooth) < 0:
            raise ValueError("loss weights must be non-negative")


def _corrected_positions(P: np.ndarray, r: np.ndarray, l: np.ndarray):
    """The position model above on 0-based arrays: frame 0 starts at
    P[0], frame t adds the increment P[t] - P[t-1] rotated by r[t], and
    then every frame is shifted by its l.

    Returns the (T, 2) positions and the (T-1, 2) rotated increments E.
    """
    D = P[1:] - P[:-1]
    c, s = np.cos(r[1:]), np.sin(r[1:])
    E = np.empty_like(D)
    E[:, 0] = c * D[:, 0] - s * D[:, 1]
    E[:, 1] = s * D[:, 0] + c * D[:, 1]
    Pp = np.empty_like(P)
    Pp[0] = P[0]
    Pp[1:] = P[0] + np.cumsum(E, axis=0)
    Pp += l
    return Pp, E


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
    xy = _corrected_positions(traj.xy, params.r, params.l)[0]
    yaw = wrap_angle(traj.yaw + np.cumsum(params.r))
    return Trajectory(traj.t, xy, yaw, traj.frame_rate)


def _loss(P: np.ndarray, r: np.ndarray, l: np.ndarray, v: np.ndarray,
          cfg: RefineConfig, grads: bool):
    """Loss terms ``(total, loop, rot, smooth)`` at corrections (r, l),
    and with ``grads`` the gradients ``(g_r (T,), g_l (T, 2))`` of the
    total (else None)."""
    n = len(P)
    if v.shape != (n - 1, 2):
        raise ValueError(f"per_frame_v must have shape ({n - 1}, 2), got {v.shape}")
    Pp, E = _corrected_positions(P, r, l)
    loop_vec = Pp[-1] - P[0]
    loop = float(loop_vec @ loop_vec)
    rsum = float(r[1:].sum())
    rot = rsum * rsum
    S = Pp[1:] - Pp[:-1] - v
    norms = np.linalg.norm(S, axis=1)
    j = int(norms.argmax())  # first occurrence = lowest index on ties
    smooth = float(norms[j])
    total = cfg.lambda_loop * loop + cfg.lambda_rot * rot + cfg.lambda_smooth * smooth
    if not grads:
        return (total, loop, rot, smooth), None
    # g_l is the gradient w.r.t. the corrected positions, which l shifts 1:1
    g_l = np.zeros(Pp.shape)
    g_l[-1] += 2.0 * cfg.lambda_loop * loop_vec
    if smooth > 0.0:
        w = cfg.lambda_smooth * S[j] / smooth
        g_l[j + 1] += w
        g_l[j] -= w
    # rotated increment k enters every position after it, and turning
    # it by dr moves it by dr times its perpendicular (-E_y, E_x)
    g_E = np.cumsum(g_l[1:][::-1], axis=0)[::-1]
    g_ang = g_E[:, 1] * E[:, 0] - g_E[:, 0] * E[:, 1]
    g_r = np.zeros(n)
    g_r[1:] = g_ang + 2.0 * cfg.lambda_rot * rsum
    return (total, loop, rot, smooth), (g_r, g_l)


def refinement_loss(traj: Trajectory, params: CorrectionParams, per_frame_v: np.ndarray,
                    cfg: RefineConfig | None = None) -> LossBreakdown:
    """Evaluate the refinement loss at given corrections."""
    terms, _ = _loss(traj.xy, params.r, params.l, np.asarray(per_frame_v, dtype=float),
                     cfg or RefineConfig(), grads=False)
    return LossBreakdown(*terms)


# ---------------------------------------------------------------------------
# Correction network


class CorrectionMlp:
    """Dense network mapping normalized frame index to (r_raw, lx, ly).

    Three dense layers (1 -> hidden -> hidden -> 3) with ReLU between;
    the rotation channel passes through pi * tanh so corrections stay in
    [-pi, pi].  Weights start He-uniform scaled by 0.01, so the initial
    corrections are near zero and refinement starts from the unrefined
    trajectory.

    Memory model: the network owns its per-frame buffers -- the (T, 1)
    column of normalized frame indices, two float (T, hidden)
    activations, their two bool ReLU masks, and the (T, 3) output and
    its gradient -- allocated on first use and again only when T
    changes, so refinement epochs allocate no (T, hidden) array.
    ``forward`` returns views of these buffers, valid until the next
    ``forward``; ``backward`` overwrites the activations with their
    gradients, so each forward pass is back-propagated at most once.
    """

    def __init__(self, params: list[np.ndarray]):
        self.params = params  # [W1, b1, W2, b2, W3, b3]
        self._h1: np.ndarray | None = None

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

    def _buffers_for(self, n: int) -> None:
        hidden = self.params[0].shape[1]
        if self._h1 is not None and self._h1.shape == (n, hidden):
            return
        self._s = _index_column(n)
        self._h1, self._h2 = np.empty((n, hidden)), np.empty((n, hidden))
        self._mask1 = np.empty((n, hidden), dtype=bool)
        self._mask2 = np.empty((n, hidden), dtype=bool)
        self._out, self._g_out = np.empty((n, 3)), np.empty((n, 3))

    def forward(self, n_frames: int) -> tuple[np.ndarray, np.ndarray]:
        """Corrections ``(r (T,), l (T, 2))`` for ``n_frames`` frames."""
        W1, b1, W2, b2, W3, b3 = self.params
        self._buffers_for(n_frames)
        h1, h2, mask1, mask2, out = self._h1, self._h2, self._mask1, self._mask2, self._out
        # one input feature: layer 1 is an outer product, which forms the
        # same rounded products as a K=1 matmul at half its cost
        np.multiply(self._s, W1, out=h1)
        h1 += b1
        np.greater(h1, 0.0, out=mask1)
        np.maximum(h1, 0.0, out=h1)
        np.matmul(h1, W2, out=h2)
        h2 += b2
        np.greater(h2, 0.0, out=mask2)
        np.maximum(h2, 0.0, out=h2)
        np.matmul(h2, W3, out=out)
        out += b3
        self._r = np.pi * np.tanh(out[:, 0])
        return self._r, out[:, 1:]

    def backward(self, g_r: np.ndarray, g_l: np.ndarray) -> list[np.ndarray]:
        """Gradients w.r.t. parameters given gradients on the last
        ``forward``'s (r, l).

        The activation buffers end up holding the gradients of the
        pre-activations.
        """
        W1, b1, W2, b2, W3, b3 = self.params
        h1, h2, g_out = self._h1, self._h2, self._g_out
        tanh_out = self._r / np.pi
        g_out[:, 0] = g_r * np.pi * (1.0 - tanh_out ** 2)
        g_out[:, 1:] = g_l
        g_W3 = h2.T @ g_out
        g_b3 = g_out.sum(axis=0)
        g_z2 = np.matmul(g_out, W3.T, out=h2)
        g_z2 *= self._mask2
        g_W2 = h1.T @ g_z2
        g_b2 = g_z2.sum(axis=0)
        g_z1 = np.matmul(g_z2, W2.T, out=h1)
        g_z1 *= self._mask1
        g_W1 = self._s.T @ g_z1
        g_b1 = g_z1.sum(axis=0)
        return [g_W1, g_b1, g_W2, g_b2, g_W3, g_b3]

    def predict(self, n_frames: int) -> CorrectionParams:
        return CorrectionParams(*self.forward(n_frames))


def _index_column(n_frames: int) -> np.ndarray:
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if n_frames == 1:
        return np.zeros((1, 1))
    return (np.arange(n_frames) / (n_frames - 1)).reshape(-1, 1)


def loss_and_gradients(traj_xy: np.ndarray, mlp: CorrectionMlp, per_frame_v: np.ndarray,
                       cfg: RefineConfig) -> tuple[LossBreakdown, list[np.ndarray]]:
    """One full forward/backward pass through network and loss."""
    r, l = mlp.forward(len(traj_xy))
    terms, (g_r, g_l) = _loss(traj_xy, r, l, per_frame_v, cfg, grads=True)
    return LossBreakdown(*terms), mlp.backward(g_r, g_l)


def refine(traj: Trajectory, per_frame_v: np.ndarray,
           cfg: RefineConfig | None = None) -> tuple[Trajectory, CorrectionParams, list[LossBreakdown]]:
    """Fit corrections by Adam and return the best-loss refinement.

    The zero-correction input is kept as a candidate alongside every
    epoch, so refinement never returns anything worse than the
    unrefined trajectory; on an already-closed input it is a no-op.
    Returns the refined trajectory, the corrections that produced it,
    and the loss history: one entry per epoch, taken before that
    epoch's step, then the trained network's loss when it is finite.
    The identity baseline is not in the history.  The returned
    corrections come from the first entry strictly below the baseline
    and every earlier entry, or are the identity when none is.  A
    non-finite epoch loss aborts with the epoch and learning rate in
    the message.
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


def save_loss_history(history, path) -> None:
    write_csv(path, LOSS_CSV_HEADER,
              ([epoch, float(h.total), float(h.loop), float(h.rot), float(h.smooth)]
               for epoch, h in enumerate(history)))
