"""Trajectory refinement by learned per-frame corrections.

A coverage run starts and ends at the charging dock, so the estimated
trajectory should close; drift opens it.  Refinement deforms the
trajectory with per-frame corrections

    p'_t = p_1 + sum_{t'=2..t} Rz(r_{t'}) (p_{t'} - p_{t'-1}) + l_t

(each increment rotated by its own correction angle r, plus a
translation l), and fits the corrections by gradient descent on

    L = ||p'_T - p_1||^2
      + (sum_{t=2..T} r_t)^2
      + max_t ||p'_t - p'_{t-1} - v_t||

where v_t is the per-frame displacement implied by the velocity
estimates.  The corrections are produced by a small dense network over
the normalized frame index, which regularizes them to vary smoothly
along the trajectory.  It starts from seed 0 at scale 0.01: the draws
of ``np.random.default_rng(0)``, made by a copy of that stream
(``_uniforms``) so that refining imports no ``numpy.random``, which
would take about 6 MiB for a start that is the same on every run.
Gradients are analytic (the max term follows its argmax frame, ties to
the lowest index); optimization is Adam.
Adam's update is elementwise, so it steps one flat vector of all the
network's parameters, whose arrays are views of it; that gives the bits
of an update array by array.

Cost: the network has one scalar input, so it is exactly affine in s
between the frames where one of its ReLUs switches, and a trained
network has a few dozen such pieces.  On long recordings it runs per
piece, so an epoch builds no (T, hidden) array and its per-frame work
is on (T, 3) arrays; below ``_PIECES_FROM`` frames it runs frame by
frame, which is faster there (see ``CorrectionMlp``).  The loss works
on the x and y coordinates as contiguous rows of (2, T) arrays, as
numpy is slow on the two-wide rows of (T, 2) arrays, and its rotation
gradient takes the sparse loop and smoothness terms as three constant
runs, with no running sum.  At T = 17 501 most of its time goes on the
cos and sin of the corrections and on the running sum of the
increments.  It computes every value as the row layout did:
elementwise work and running sums give the same bits in any layout,
and each reduction is taken as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RefineConfig
from .fileio import write_csv, write_jsonl
from .geometry import _frozen, unique, wrap_angle
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


def _corrected_positions(P: np.ndarray, r: np.ndarray, l: np.ndarray):
    """The position model above on 0-based arrays: frame 0 starts at
    P[0], frame t adds the increment P[t] - P[t-1] rotated by r[t], and
    then every frame is shifted by its l.

    Returns the positions (2, T) and the rotated increments E (2, T-1),
    x in row 0 and y in row 1, so that each coordinate is contiguous.
    """
    Q = P.T.copy()
    D = Q[:, 1:] - Q[:, :-1]
    c, s = np.cos(r[1:]), np.sin(r[1:])
    E, sD = c * D, s * D
    E[0] -= sD[1]
    E[1] += sD[0]
    X = np.empty_like(Q)
    X[:, 0] = -0.0  # -0.0 + x is x for every x, so frame 0 gets P[0]
    np.add.accumulate(E, axis=1, out=X[:, 1:])
    X += Q[:, :1]
    X += l.T
    return X, E


def apply_corrections(traj: Trajectory, params: CorrectionParams) -> Trajectory:
    """Deform a trajectory by per-frame corrections.

    Positions follow the increment-rotation model above; yaw becomes
    ``yaw_t + sum_{t'<=t} r_{t'}``, wrapped.  Timestamps and frame rate
    are preserved.  Identity corrections (all zero) return ``traj``
    itself, which is frozen, in place of a cumulative-sum round trip.
    """
    n = len(traj)
    if len(params) != n:
        raise ValueError(f"corrections cover {len(params)} frames, trajectory has {n}")
    if not params.r.any() and not params.l.any():
        return traj
    xy = np.ascontiguousarray(_corrected_positions(traj.xy, params.r, params.l)[0].T)
    yaw = wrap_angle(traj.yaw + np.cumsum(params.r))
    return Trajectory(traj.t, xy, yaw, traj.frame_rate)


def _loss(P: np.ndarray, r: np.ndarray, l: np.ndarray, v: np.ndarray, grads: bool):
    """Loss terms ``(total, loop, rot, smooth)`` at corrections (r, l),
    and with ``grads`` the gradients ``(g_r (T,), g_l (T, 2))`` of the
    total (else None)."""
    n = len(P)
    if v.shape != (n - 1, 2):
        raise ValueError(f"per_frame_v must have shape ({n - 1}, 2), got {v.shape}")
    X, E = _corrected_positions(P, r, l)
    loop_vec = X[:, -1] - P[0]
    loop = float(loop_vec @ loop_vec)
    rsum = float(np.add.reduce(r[1:]))
    rot = rsum * rsum
    S = X[:, 1:] - X[:, :-1]
    S -= v.T
    norms, sq1 = S * S
    norms += sq1
    np.sqrt(norms, out=norms)
    j = int(norms.argmax())  # first occurrence = lowest index on ties
    smooth = float(norms[j])
    total = loop + rot + smooth
    if not grads:
        return (total, loop, rot, smooth), None
    # g_l, the gradient w.r.t. the corrected positions (which l shifts
    # 1:1), is zero but for the loop term at frame T-1 and the smoothness
    # term's w at j+1 and -w at j (w = 0 where that term has no gradient,
    # which adds only zeros).  Each of these is added to a 0.0, as to the
    # zeros of a dense g_l, which turns -0.0 into +0.0.  The rotated
    # increment k enters every position after it, so its gradient g_E[k]
    # sums g_l over frames k+1..T-1: tail on frames j+1.., at_j on j and
    # head on ..j-1, each summed from the end in the order of a reverse
    # cumsum.  The +0.0 that such a cumsum adds elsewhere changes none of
    # them, as none is -0.0.
    tail = [0.0 + 2.0 * g for g in loop_vec.tolist()]
    w = [g / smooth for g in S[:, j].tolist()] if smooth > 0.0 else [0.0, 0.0]
    before = [0.0 - g for g in w]
    if j + 1 < n - 1:
        after = [0.0 + g for g in w]
        at_j = [a + b for a, b in zip(tail, after)]
    else:
        after = tail = at_j = [a + b for a, b in zip(tail, w)]
    head = [a + b for a, b in zip(at_j, before)]
    g_l = np.zeros((n, 2))
    g_l[-1] = tail
    g_l[j + 1] = after
    g_l[j] = before
    # turning increment k by dr moves it by dr times its perpendicular
    # (-E_y, E_x): rows y, x of g_E meet rows x, y of E
    g_ang = np.array((head, at_j, tail)).T[::-1].repeat((j, 1, n - 2 - j), axis=1)
    g_ang *= E
    g_r = np.empty(n)
    g_r[0] = 0.0
    np.subtract(g_ang[0], g_ang[1], out=g_r[1:])
    g_r[1:] += 2.0 * rsum
    return (total, loop, rot, smooth), (g_r, g_l)


def refinement_loss(traj: Trajectory, params: CorrectionParams,
                    per_frame_v: np.ndarray) -> LossBreakdown:
    """Evaluate the refinement loss at given corrections."""
    terms, _ = _loss(traj.xy, params.r, params.l, np.asarray(per_frame_v, dtype=float),
                     grads=False)
    return LossBreakdown(*terms)


# ---------------------------------------------------------------------------
# Correction network


class CorrectionMlp:
    """Dense network mapping normalized frame index s to (r_raw, lx, ly).

    Three dense layers (1 -> hidden -> hidden -> 3) with ReLU between;
    the rotation channel passes through pi * tanh so corrections stay in
    [-pi, pi].  Weights start He-uniform scaled by 0.01, so the initial
    corrections are near zero and refinement starts from the unrefined
    trajectory.  The start is always seed 0 at scale 0.01: the bits that
    ``np.random.default_rng(0).uniform`` draws, from ``_uniforms``' copy
    of numpy's stream; a start that is the same on every run is not
    worth the 6 MiB that ``numpy.random`` and the OpenSSL it loads add
    to refine's memory peak.

    Piece model: the network has one scalar input, so it is affine in s
    wherever no ReLU switches.  From ``_PIECES_FROM`` frames on, a pass
    finds these linear pieces (``_piece_pass``) and works per piece;
    per frame it touches only (T, 3) arrays.  Below that, the dense
    pass (``_dense_pass``) runs every frame through (T, hidden)
    activations, which are small there.  The two agree to rounding.
    ``backward`` differentiates the last ``forward`` and may be called
    any number of times.
    """

    def __init__(self, params: list[np.ndarray]):
        self.params = params  # [W1, b1, W2, b2, W3, b3]
        self._s: np.ndarray | None = None  # the last pass's input column

    @classmethod
    def initialize(cls, hidden: int = 64) -> "CorrectionMlp":
        """The start: the network whose weights
        ``np.random.default_rng(0).uniform`` would draw, layer by layer,
        scaled by 0.01, bit for bit (see ``_uniforms``)."""
        dims = [1, hidden, hidden, 3]
        u = np.array(_uniforms(sum(a * b for a, b in zip(dims, dims[1:]))))
        params = []
        for a, b in zip(dims, dims[1:]):
            lim = np.sqrt(6.0 / a)
            draws, u = u[:a * b].reshape(a, b), u[a * b:]
            # numpy's uniform(low, high) is low + (high - low) * u, rounded per step
            params.append((-lim + (lim + lim) * draws) * 0.01)
            params.append(np.zeros(b))
        return cls(params)

    def forward(self, n_frames: int) -> tuple[np.ndarray, np.ndarray]:
        """Corrections ``(r (T,), l (T, 2))`` for ``n_frames`` frames."""
        if self._s is None or len(self._s) != n_frames:
            self._s = _index_column(n_frames)
        run = _dense_pass if n_frames < _PIECES_FROM else _piece_pass
        out, self._vjp = run(self.params, self._s)
        self._r = np.pi * np.tanh(out[:, 0])
        return self._r, out[:, 1:]

    def backward(self, g_r: np.ndarray, g_l: np.ndarray) -> list[np.ndarray]:
        """Gradients w.r.t. parameters given gradients on the last
        ``forward``'s (r, l)."""
        tanh_out = self._r / np.pi
        g_out = np.empty((len(g_r), 3))
        g_out[:, 0] = g_r * np.pi * (1.0 - tanh_out ** 2)
        # column by column: numpy copies a (T, 2) block into strided
        # columns two values at a time
        g_out[:, 1] = g_l[:, 0]
        g_out[:, 2] = g_l[:, 1]
        return self._vjp(g_out)

    def predict(self, n_frames: int) -> CorrectionParams:
        return CorrectionParams(*self.forward(n_frames))


# Frame count from which the network runs on its linear pieces.  Timed
# over 100 Adam epochs at hidden=64 only (one BLAS thread, 2-core Xeon,
# range over five refines), one loss_and_gradients call took 0.17-0.21
# ms dense against 0.49-0.58 ms on pieces at T=50, 0.42-0.52 against
# 0.42-0.57 ms at T=240, 0.51-0.58 against 0.50-0.61 ms at T=280 and 51
# against 1.9-2.4 ms at T=17501: the piece search costs a fixed few
# dozen numpy calls.  The loss is the same on both sides, so only the
# network's two passes decide the crossover.  The dense pass's cost per
# frame grows with hidden^2, so at other widths the crossover moves.
# The only measured user of the dense side is gradient checking on
# short recordings (acceptance criterion 5, T <= 50); every benchmark
# workload runs on pieces.
_PIECES_FROM = 256


def _dense_pass(params, s):
    """Network output (T, 3) for the (T, 1) inputs s, evaluated frame by
    frame, and the function mapping the output's gradient to the
    parameters' gradients."""
    W1, b1, W2, b2, W3, b3 = params
    # one input feature: layer 1 is an outer product, which forms the
    # same rounded products as a K=1 matmul at half its cost
    h1 = s * W1
    h1 += b1
    on1 = h1 > 0.0
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ W2
    h2 += b2
    on2 = h2 > 0.0
    np.maximum(h2, 0.0, out=h2)
    out = h2 @ W3
    out += b3

    def vjp(g_out):
        g_z2 = g_out @ W3.T
        g_z2 *= on2
        g_z1 = g_z2 @ W2.T
        g_z1 *= on1
        return [s.T @ g_z1, g_z1.sum(axis=0), h1.T @ g_z2, g_z2.sum(axis=0),
                h2.T @ g_out, g_out.sum(axis=0)]

    return out, vjp


def _piece_pass(params, s):
    """``_dense_pass`` evaluated per linear piece of the network in s.

    Layer-1 unit j switches once, where ``s W1_j + b1_j`` crosses zero,
    so between consecutive switches its activity M1 is constant and
    ``z2 = z2(s_a) + (s - s_a) A`` with ``A = (M1 W1) @ W2``, about a
    frame a inside the piece.  There each layer-2 unit switches at most
    once more, and on the resulting sub-pieces the output is ``out(s_a)
    + (s - s_a) alpha``.  Each piece is taken about its middle frame,
    where the activations are the dense pass's, computed at that one
    frame.  Taken about s = 0 instead, a unit near its kink would be an
    intercept and a slope term that cancel, and lose many more ulps
    than the dense pass does.  The output is linear in the per-piece values
    and slopes, so the backward pass needs only the per-piece sums of
    the output gradient and of ``s - s_a`` times it.  A unit is active
    where its pre-activation, rounded as it is written here, is > 0, as
    in the dense pass: layer-1 units therefore switch at exactly the
    dense pass's frames, ties at zero included.  Per-frame arrays are
    handled a column at a time, as numpy is slow on (T, 3) rows.
    """
    W1, b1, W2, b2, W3, b3 = params
    s = s[:, 0]
    n = len(s)
    ends = np.array([0, n])
    # layer-1 pieces: frames e1[k] .. e1[k+1] - 1, activity M1[k]
    e1 = unique(np.concatenate(
        (ends, _switch_frames(s, W1, b1[None], np.zeros(1), ends[:1], ends[1:]))))
    mid1 = (e1[:-1] + e1[1:] - 1) // 2
    h1 = s[mid1, None] * W1 + b1
    M1 = h1 > 0.0
    w_on = M1 * W1
    A = w_on @ W2
    z2 = np.maximum(h1, 0.0) @ W2 + b2
    # sub-pieces: frames e[m] .. e[m+1] - 1, inside layer-1 piece k[m]
    e = unique(np.concatenate((e1, _switch_frames(s, A, z2, s[mid1], e1[:-1], e1[1:]))))
    lo, counts = e[:-1], np.diff(e)
    k = np.searchsorted(e1, lo, side="right") - 1
    mid = lo + (counts - 1) // 2
    h1 = np.maximum(s[mid, None] * W1 + b1, 0.0)
    z2 = h1 @ W2 + b2
    M2 = z2 > 0.0
    h2 = M2 * z2
    P = M2 * A[k]  # h2 = h2(s_mid) + (s - s_mid) P on each sub-piece
    ds = s - np.repeat(s[mid], counts)
    level, slope = h2 @ W3 + b3, P @ W3
    out = np.empty((n, 3))
    for j in range(3):
        col = np.repeat(slope[:, j], counts)
        col *= ds
        col += np.repeat(level[:, j], counts)
        out[:, j] = col

    def vjp(g_out):
        G0 = np.add.reduceat(g_out, lo, axis=0)
        G1 = np.column_stack([np.add.reduceat(ds * g, lo) for g in g_out.T])
        Z0 = (G0 @ W3.T) * M2
        Z1 = (G1 @ W3.T) * M2
        Y0 = (Z0 @ W2.T) * M1[k]
        Y1 = (Z1 @ W2.T) * M1[k]
        return [(s[mid] @ Y0 + Y1.sum(axis=0))[None], Y0.sum(axis=0),
                h1.T @ Z0 + w_on[k].T @ Z1, Z0.sum(axis=0),
                h2.T @ G0 + P.T @ G1, G0.sum(axis=0)]

    return out, vjp


def _switch_frames(s, a, c, s0, lo, hi):
    """Frames at which ``(s - s0[i]) a + c > 0`` changes along frames
    lo[i] .. hi[i] - 1, for every entry of row i of a and c that
    changes there: a 1-D array, which may also hold lo or hi values.

    The rounded ``(s - s0) a + c`` is monotone in s, so it changes at
    most once.  The crossing ``s0 - c / a``, in frames, is off by far
    less than a frame, so the change is at its floor or one of the two
    frames after; the two frames from the floor are decided exactly.
    """
    with np.errstate(all="ignore"):
        guess = np.floor((s0[:, None] - c / a) * (len(s) - 1))
    # a zero or non-finite slope gives an infinite or NaN guess
    row, col = np.nonzero((guess > lo[:, None] - 2) & (guess < hi[:, None]))
    a, c, s0, lo, hi = a[row, col], c[row, col], s0[row], lo[row], hi[row]
    start = np.maximum(guess[row, col], lo).astype(np.intp)
    frames = start[:, None] + np.arange(2)
    z = (s[np.minimum(frames, len(s) - 1)] - s0[:, None]) * a[:, None] + c[:, None]
    # before the change a rising z is off and a falling one on
    before = ((z > 0.0) == (a < 0.0)[:, None]) & (frames < hi[:, None])
    return start + before.sum(axis=1)


_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
# PCG64's state and increment as seed 0 sets them: np.random.PCG64(0).state["state"]
_PCG_STATE = 0x1AA1B5345996452D09585EB7A69561E3
_PCG_INC = 0x418DDADB3AF71A82588133BC447873A9


def _uniforms(n: int) -> list[float]:
    """The first n doubles of ``np.random.default_rng(0).random()``, bit
    for bit, without importing ``numpy.random`` (about 6 MiB of resident
    memory: ``secrets`` loads OpenSSL).  The stream is numpy's PCG64
    (O'Neill 2014) from seed 0's state (``_PCG_STATE``, ``_PCG_INC``):
    each step advances the 128-bit LCG, XSL-RR makes the output, and a
    double is its top 53 bits times 2**-53."""
    state, out = _PCG_STATE, []
    for _ in range(n):
        state = (state * _PCG_MULT + _PCG_INC) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append((x >> 11) * 2.0 ** -53)
    return out


def _index_column(n_frames: int) -> np.ndarray:
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if n_frames == 1:
        return np.zeros((1, 1))
    return (np.arange(n_frames) / (n_frames - 1)).reshape(-1, 1)


def loss_and_gradients(traj_xy: np.ndarray, mlp: CorrectionMlp,
                       per_frame_v: np.ndarray) -> tuple[LossBreakdown, list[np.ndarray]]:
    """One full forward/backward pass through network and loss."""
    r, l = mlp.forward(len(traj_xy))
    terms, (g_r, g_l) = _loss(traj_xy, r, l, per_frame_v, grads=True)
    return LossBreakdown(*terms), mlp.backward(g_r, g_l)


def refine(traj: Trajectory, per_frame_v: np.ndarray,
           cfg: RefineConfig | None = None) -> tuple[Trajectory, CorrectionParams, list[LossBreakdown]]:
    """Fit corrections by Adam, from the network that seed 0
    initialises, and return the best-loss refinement.

    The zero-correction input is kept as a candidate alongside every
    epoch, so refinement never returns anything worse than the
    unrefined trajectory; when it wins, as on an already-closed input,
    the trajectory returned is ``traj`` itself.  Returns the refined
    trajectory, the corrections that produced it, and the loss history:
    one entry per epoch, taken before that epoch's step, then the
    trained network's loss when it is finite.
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
    baseline = refinement_loss(traj, identity, per_frame_v)
    mlp = CorrectionMlp.initialize(hidden=cfg.hidden)
    shapes = [p.shape for p in mlp.params]
    flat = np.concatenate([p.ravel() for p in mlp.params])
    mlp.params = _views(flat, shapes)  # Adam steps flat in place
    m_state = np.zeros_like(flat)
    v_state = np.zeros_like(flat)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    history: list[LossBreakdown] = []
    best_loss = baseline.total
    best_flat: np.ndarray | None = None  # None = keep the input
    for epoch in range(cfg.epochs):
        breakdown, grads = loss_and_gradients(traj.xy, mlp, per_frame_v)
        if not np.isfinite(breakdown.total):
            raise RuntimeError(
                f"refinement diverged at epoch {epoch} (learning_rate={cfg.learning_rate})"
            )
        history.append(breakdown)
        if breakdown.total < best_loss:
            best_loss = breakdown.total
            best_flat = flat.copy()
        step = epoch + 1
        g = np.concatenate([part.ravel() for part in grads])
        m_state = beta1 * m_state + (1 - beta1) * g
        v_state = beta2 * v_state + (1 - beta2) * g * g
        m_hat = m_state / (1 - beta1 ** step)
        v_hat = v_state / (1 - beta2 ** step)
        flat -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    final = refinement_loss(traj, mlp.predict(n), per_frame_v)
    if np.isfinite(final.total):
        history.append(final)
        if final.total < best_loss:
            best_loss = final.total
            best_flat = flat.copy()
    if best_flat is None:
        corrections = identity
    else:
        mlp.params = _views(best_flat, shapes)
        corrections = mlp.predict(n)
    refined = apply_corrections(traj, corrections)
    return refined, corrections, history


def _views(flat: np.ndarray, shapes: list) -> list[np.ndarray]:
    """Consecutive pieces of ``flat`` as arrays of ``shapes``, as views."""
    ends = np.cumsum([np.prod(shape, dtype=int) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


# ---------------------------------------------------------------------------
# File formats


def save_corrections(params: CorrectionParams, path) -> None:
    lx, ly = params.l.T
    write_jsonl(path, {"frame": range(len(params.r)), "r": params.r, "lx": lx, "ly": ly})


def save_loss_history(history, path) -> None:
    write_csv(path, LOSS_CSV_HEADER,
              [range(len(history)), *([float(getattr(h, name)) for h in history]
                                      for name in ("total", "loop", "rot", "smooth"))])
