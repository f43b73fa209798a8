"""Independent reference implementations backing the test suite.

Everything here is deliberately naive -- per-frame Python loops sharing
no code with the library -- so the vectorized implementations can be
checked against a second opinion that is auditable by eye.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math

import numpy as np

from sweepnav import CaptureEvent, Trajectory
from sweepnav.geometry import wrap_angle


def rot2_ref(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def corrected_positions_ref(xy, r, l) -> np.ndarray:
    """Rotate each position increment by its own angle, accumulate, shift.

    Frame 0 keeps its position (plus its shift); frame t adds the t-th
    increment rotated by r[t].
    """
    xy = np.asarray(xy, dtype=float)
    r = np.asarray(r, dtype=float)
    l = np.asarray(l, dtype=float)
    out = np.zeros_like(xy)
    acc = np.array(xy[0], dtype=float)
    out[0] = acc
    for t in range(1, len(xy)):
        acc = acc + rot2_ref(r[t]) @ (xy[t] - xy[t - 1])
        out[t] = acc
    return out + l


def loss_ref(xy, r, l, v):
    """Loop-closure loss terms computed with explicit loops.

    Returns (total, loop, rot, smooth): squared endpoint gap, squared
    sum of rotation corrections past frame 0, and the worst per-frame
    disagreement between corrected increments and observed velocities.
    """
    xy = np.asarray(xy, dtype=float)
    v = np.asarray(v, dtype=float)
    pp = corrected_positions_ref(xy, r, l)
    loop = float(np.sum((pp[-1] - xy[0]) ** 2))
    rsum = float(np.sum(np.asarray(r, dtype=float)[1:]))
    rot = rsum * rsum
    smooth = 0.0
    for t in range(1, len(xy)):
        smooth = max(smooth, float(np.linalg.norm(pp[t] - pp[t - 1] - v[t - 1])))
    return loop + rot + smooth, loop, rot, smooth


def numeric_gradients(fn, params, h=1e-5):
    """Central finite differences of a scalar function of `params`.

    `params` is a list of arrays that `fn` reads when called; entries
    are perturbed in place one element at a time and restored.
    """
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn()
            flat[i] = orig - h
            fm = fn()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def correction_mlp_ref(params, s, g_r, g_l):
    """The correction network's forward and backward pass frame by frame,
    one fresh array per step, on the (T, 1) inputs s: returns r (T,),
    l (T, 2) and the parameters' gradients given the gradients g_r and
    g_l on (r, l).  The library's dense pass runs the same arithmetic
    in the same order; its piece pass agrees to rounding."""
    W1, b1, W2, b2, W3, b3 = params
    z1 = s @ W1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ W2 + b2
    h2 = np.maximum(z2, 0.0)
    out = h2 @ W3 + b3
    r = np.pi * np.tanh(out[:, 0])
    tanh_out = r / np.pi
    g_out = np.column_stack([g_r * np.pi * (1.0 - tanh_out ** 2), g_l])
    g_z2 = (g_out @ W3.T) * (z2 > 0.0)
    g_z1 = (g_z2 @ W2.T) * (z1 > 0.0)
    grads = [s.T @ g_z1, g_z1.sum(axis=0), h1.T @ g_z2, g_z2.sum(axis=0),
             h2.T @ g_out, g_out.sum(axis=0)]
    return r, out[:, 1:], grads


def correction_mlp_magnitudes_ref(params, s, g_r, g_l):
    """Per element of each output of ``correction_mlp_ref``, the sum of
    the magnitudes of the terms it adds up: its products run on absolute
    values, through the ReLUs that are on in the real pass.  The rounding
    of a sum of products is bounded by a small multiple of this sum.
    tanh moves by at most as much as its argument and 1 - tanh^2 by at
    most twice as much, so r weighs pi |out_r| and the gradient on out_r
    2 pi |g_r| (1 + |out_r|)."""
    W1, b1, W2, b2, W3, b3 = params
    z1 = s @ W1 + b1
    on1 = z1 > 0.0
    on2 = np.maximum(z1, 0.0) @ W2 + b2 > 0.0
    aW1, ab1, aW2, ab2, aW3, ab3 = map(np.abs, params)
    h1 = (np.abs(s) @ aW1 + ab1) * on1
    h2 = (h1 @ aW2 + ab2) * on2
    out = h2 @ aW3 + ab3
    g_out = np.column_stack([2.0 * np.pi * np.abs(g_r) * (1.0 + out[:, 0]), np.abs(g_l)])
    g_z2 = (g_out @ aW3.T) * on2
    g_z1 = (g_z2 @ aW2.T) * on1
    grads = [np.abs(s).T @ g_z1, g_z1.sum(axis=0), h1.T @ g_z2, g_z2.sum(axis=0),
             h2.T @ g_out, g_out.sum(axis=0)]
    return np.pi * out[:, 0], out[:, 1:], grads


# The refinement loss on (T, 2) rows, as the library computed it before
# it worked on x and y columns; ``loop_closure._loss`` must match it bit
# for bit, values and gradients, signed zeros included.


def corrected_positions_rows_ref(P, r, l):
    """The (T, 2) positions and (T-1, 2) rotated increments of the
    library's ``_corrected_positions``."""
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


def refinement_loss_ref(P, r, l, v, grads):
    """Loss terms ``(total, loop, rot, smooth)`` and, with ``grads``, the
    gradients ``(g_r (T,), g_l (T, 2))``: the library's ``_loss``
    arguments and results."""
    n = len(P)
    Pp, E = corrected_positions_rows_ref(P, r, l)
    loop_vec = Pp[-1] - P[0]
    loop = float(loop_vec @ loop_vec)
    rsum = float(r[1:].sum())
    rot = rsum * rsum
    S = Pp[1:] - Pp[:-1] - v
    norms = np.linalg.norm(S, axis=1)
    j = int(norms.argmax())
    smooth = float(norms[j])
    total = loop + rot + smooth
    if not grads:
        return (total, loop, rot, smooth), None
    g_l = np.zeros(Pp.shape)
    g_l[-1] += 2.0 * loop_vec
    if smooth > 0.0:
        w = S[j] / smooth
        g_l[j + 1] += w
        g_l[j] -= w
    g_E = np.cumsum(g_l[1:][::-1], axis=0)[::-1]
    g_ang = g_E[:, 1] * E[:, 0] - g_E[:, 0] * E[:, 1]
    g_r = np.zeros(n)
    g_r[1:] = g_ang + 2.0 * rsum
    return (total, loop, rot, smooth), (g_r, g_l)


def correction_mlp_init_ref(seed=0, hidden=64, init_scale=0.01) -> list[np.ndarray]:
    """A ``CorrectionMlp``'s parameters for any seed and scale, drawn by
    numpy's own generator, layer after layer from one ``default_rng(seed)``;
    ``CorrectionMlp.initialize`` is seed 0 at scale 0.01."""
    rng = np.random.default_rng(seed)
    dims = [1, hidden, hidden, 3]
    params = []
    for i in range(3):
        lim = np.sqrt(6.0 / dims[i])
        params.append(rng.uniform(-lim, lim, (dims[i], dims[i + 1])) * init_scale)
        params.append(np.zeros(dims[i + 1]))
    return params


def refine_ref(traj, per_frame_v, cfg):
    """``loop_closure.refine`` with Adam as it was written per parameter
    array: each epoch updates the six arrays one after another, each into
    a fresh array.  The network and the loss are the library's; only the
    optimizer loop is the reference, without the divergence check."""
    from sweepnav.loop_closure import (CorrectionMlp, CorrectionParams, apply_corrections,
                                       loss_and_gradients, refinement_loss)

    n = len(traj)
    identity = CorrectionParams(np.zeros(n), np.zeros((n, 2)))
    best_loss = refinement_loss(traj, identity, per_frame_v).total
    mlp = CorrectionMlp.initialize(hidden=cfg.hidden)
    m_state = [np.zeros_like(p) for p in mlp.params]
    v_state = [np.zeros_like(p) for p in mlp.params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    history, best_params = [], None
    for epoch in range(cfg.epochs):
        breakdown, grads = loss_and_gradients(traj.xy, mlp, per_frame_v)
        history.append(breakdown)
        if breakdown.total < best_loss:
            best_loss, best_params = breakdown.total, [p.copy() for p in mlp.params]
        step = epoch + 1
        for i, g in enumerate(grads):
            m_state[i] = beta1 * m_state[i] + (1 - beta1) * g
            v_state[i] = beta2 * v_state[i] + (1 - beta2) * g * g
            m_hat = m_state[i] / (1 - beta1 ** step)
            v_hat = v_state[i] / (1 - beta2 ** step)
            mlp.params[i] = mlp.params[i] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    final = refinement_loss(traj, mlp.predict(n), per_frame_v)
    if np.isfinite(final.total):
        history.append(final)
        if final.total < best_loss:
            best_params = [p.copy() for p in mlp.params]
    if best_params is None:
        corrections = identity
    else:
        mlp.params = best_params
        corrections = mlp.predict(n)
    return apply_corrections(traj, corrections), corrections, history


# The geometric median window by window, as the library computed it
# before the ensemble was reduced over all windows at once; the batched
# ``rae.reduce_members`` must match it bit for bit.
_GM_COLLINEAR_TOL = 1e-12


def _hypot(x, y) -> float:
    """``np.hypot`` of two Python floats, as a Python float: the bits that
    the batched median's array calls give (``test_geometry.py::
    TestNpHypotLayouts``), followed by plain float arithmetic."""
    return float(np.hypot(x, y))


def _pull_ref(pts, yx, yy):
    """Sum of the unit vectors from (yx, yy) to the members (the negative
    gradient of the distance sum), that sum's Hessian (xx, xy, yy), the
    Weiszfeld point, and the sum of inverse distances.  Members at
    (yx, yy) are left out."""
    gx = gy = hxx = hxy = hyy = wsum = wx = wy = 0.0
    for x, y in pts:
        ex, ey = x - yx, y - yy
        d = _hypot(ex, ey)
        if d > 0.0:
            w = 1.0 / d
            ux, uy = ex * w, ey * w
            gx += ux
            gy += uy
            hxx += w * uy * uy
            hxy -= w * ux * uy
            hyy += w * ux * ux
            wsum += w
            wx += w * x
            wy += w * y
    return gx, gy, hxx, hxy, hyy, wx / wsum, wy / wsum, wsum


def _distance_sum_change_ref(pts, yx, yy, sx, sy):
    """Change of the distance sum from (yx, yy) to (yx + sx, yy + sy), as
    sum (|e - s|^2 - |e|^2) / (|e - s| + |e|), which keeps its precision
    for steps far below the sum's own rounding."""
    ss = sx * sx + sy * sy
    total = 0.0
    for x, y in pts:
        ex, ey = x - yx, y - yy
        den = _hypot(ex, ey) + _hypot(ex - sx, ey - sy)
        if den > 0.0:
            total += (ss - 2.0 * (ex * sx + ey * sy)) / den
    return total


def geometric_median_ref(members, rtol=1e-10, max_iter=100, ulps=4):
    """The point minimising the sum of Euclidean distances to a (K, 2)
    stack of members, and whether the descent stopped at ``max_iter``
    steps without meeting its step rule.

    Collinear members (including K=2) have a segment of minimisers; the
    1-D median along their line is taken (the midpoint of the middle pair
    for an even count).  A member that meets the Vardi-Zhang optimality
    condition |sum over x_j != x_i of unit(x_j - x_i)| <= multiplicity(x_i)
    is returned exactly.  Otherwise descent starts at the mean: a Newton
    step when it lowers the distance sum, else a Weiszfeld step, until a
    step is below ``rtol`` times the harmonic mean member distance or
    below ``ulps`` ulps of the median's norm, whichever is larger.
    Members are sorted first, so the result does not depend on their
    order.
    """
    pts = sorted(map(tuple, np.asarray(members, dtype=float).tolist()))
    k = len(pts)
    cx = math.fsum(x for x, _ in pts) / k
    cy = math.fsum(y for _, y in pts) / k
    ax, ay = max(pts, key=lambda p: _hypot(p[0] - cx, p[1] - cy))
    spread = _hypot(ax - cx, ay - cy)
    if spread == 0.0:
        return np.array(pts[0]), False
    dx, dy = (ax - cx) / spread, (ay - cy) / spread
    if all(abs((x - cx) * dy - (y - cy) * dx) <= _GM_COLLINEAR_TOL * spread for x, y in pts):
        line = sorted(pts, key=lambda p: ((p[0] - cx) * dx + (p[1] - cy) * dy, p))
        (lx, ly), (hx, hy) = line[(k - 1) // 2], line[k // 2]
        return np.array([0.5 * (lx + hx), 0.5 * (ly + hy)]), False
    for p in pts:
        rx, ry = _pull_ref(pts, *p)[:2]
        if _hypot(rx, ry) <= pts.count(p):
            return np.array(p), False
    yx, yy = cx, cy
    for _ in range(max_iter):
        gx, gy, hxx, hxy, hyy, qx, qy, wsum = _pull_ref(pts, yx, yy)
        det = hxx * hyy - hxy * hxy
        sx = sy = 0.0
        if det > 0.0:
            sx = (hyy * gx - hxy * gy) / det
            sy = (hxx * gy - hxy * gx) / det
        if not _distance_sum_change_ref(pts, yx, yy, sx, sy) < 0.0:
            sx, sy = qx - yx, qy - yy
        yx += sx
        yy += sy
        if _hypot(sx, sy) <= max(rtol * k / wsum, ulps * math.ulp(_hypot(yx, yy))):
            return np.array([yx, yy]), False
    return np.array([yx, yy]), True


def reduce_ref(members, reducer) -> np.ndarray:
    """One window's kept members, a (K, 2) stack, reduced by ``reducer``."""
    if reducer == "median":
        return geometric_median_ref(members)[0]
    return np.asarray(members, dtype=float).mean(axis=0)


def geometric_median_violation_ref(members, y) -> float:
    """How far `y` misses the optimality condition of the geometric median.

    With m members equal to `y` and S the sum of unit vectors from `y`
    to every other member, `y` minimises the sum of distances iff
    |S| <= m (Vardi & Zhang, PNAS 2000).  Returns max(0, |S| - m), so
    0 for an exact median and the gradient norm for a point off the
    members.
    """
    y = np.asarray(y, dtype=float)
    m = 0
    s = np.zeros(2)
    for x in np.asarray(members, dtype=float):
        d = _hypot(x[0] - y[0], x[1] - y[1])
        if d == 0.0:
            m += 1
        else:
            s += (x - y) / d
    return max(0.0, _hypot(s[0], s[1]) - m)


def world_to_camera_ref(points_world, pose, cfg) -> np.ndarray:
    """Undo the mapper's camera -> robot -> world chain, point by point.

    The camera looks along the robot's heading from ``cfg.mount_forward``
    ahead of the robot and ``cfg.mount_height`` up, with x to the robot's
    right and y down.
    """
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    out = []
    for x, y, z in np.asarray(points_world, dtype=float).reshape(-1, 3):
        dx, dy = x - pose.x, y - pose.y
        forward = c * dx + s * dy - cfg.mount_forward
        left = -s * dx + c * dy
        up = z - cfg.mount_height
        out.append([-left, -up, forward])
    return np.array(out).reshape(-1, 3)


def project_ref(raster, points_world, pose, cfg):
    """Pinhole projection of world points: (u, v, depth) arrays."""
    cam = world_to_camera_ref(points_world, pose, cfg)
    z = cam[:, 2]
    u = raster.cx + raster.focal_length * cam[:, 0] / z
    v = raster.cy + raster.focal_length * cam[:, 1] / z
    return u, v, z


def quantization_bound() -> float:
    """Worst-case lateral position error of one pixel at caption range."""
    from sweepnav.sim import CAPTION_Z_MAX, FOCAL_PX

    return CAPTION_Z_MAX / FOCAL_PX


def random_similarity(rng, scale_range=(0.5, 2.0)):
    """A random planar similarity transform (scale, rotation, translation)."""
    s = float(rng.uniform(*scale_range))
    theta = float(rng.uniform(-math.pi, math.pi))
    t = rng.uniform(-3.0, 3.0, 2)
    return s, theta, t


def apply_similarity_ref(points, s, theta, t) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty_like(pts)
    for i, p in enumerate(pts):
        out[i] = s * (rot2_ref(theta) @ p) + t
    return out


def line_trajectory(speed=1.0, n_frames=201, rate=50.0, heading=0.0) -> Trajectory:
    """Straight constant-velocity trajectory starting at the origin."""
    t = np.arange(n_frames) / rate
    d = np.array([math.cos(heading), math.sin(heading)])
    xy = np.outer(speed * t, d)
    yaw = np.full(n_frames, heading)
    return Trajectory(t, xy, yaw, rate)


def turn_in_place_trajectory(total_angle, n_frames=201, rate=50.0) -> Trajectory:
    """Stationary trajectory whose yaw ramps linearly to `total_angle`."""
    t = np.arange(n_frames) / rate
    xy = np.zeros((n_frames, 2))
    yaw = np.linspace(0.0, total_angle, n_frames)
    return Trajectory(t, xy, yaw, rate)


def dense_forward_ref(bundle, window) -> np.ndarray:
    """The plain forward pass of a weights bundle on one (2, tau + 1, 3)
    window: its acc-then-gyro row-major flattening through each layer in
    turn, the first layer included."""
    x = np.asarray(window, dtype=float).ravel()
    for layer in bundle.layers:
        x = x @ layer.weights + layer.bias if layer.kind == "dense" else np.maximum(x, 0.0)
    return x


class HarmonicErrorModel:
    """A velocity model whose member error is a harmonic series of the
    heading it sees.

    Window i moves at ``truth[i]`` (x, y).  Member k sees it turned by
    theta_k, so the true velocity in its input frame, as a complex
    number, is u = v e^{i theta_k}, with heading phi = arg u; it returns
    u + sum_n c_n e^{i n phi} for the complex coefficients
    ``spectrum = {n: c_n}``.  Windows are looked up by start frame."""

    def __init__(self, truth, starts, spectrum):
        self.truth = {int(s): complex(*v) for s, v in zip(starts, truth)}
        self.spectrum = dict(spectrum)

    def velocities(self, windows, starts, angles):
        out = np.empty((len(starts), len(angles), 2))
        for i, start in enumerate(starts):
            for k, theta in enumerate(angles):
                u = self.truth[int(start)] * cmath.exp(1j * theta)
                phi = cmath.phase(u)
                z = u + sum(c * cmath.exp(1j * n * phi) for n, c in self.spectrum.items())
                out[i, k] = z.real, z.imag
        return out


def harmonic_residual_ref(v, spectrum, k) -> np.ndarray:
    """The mean reducer's residual for ``HarmonicErrorModel``'s error at
    true velocity v (x, y) on the K-angle grid theta_k = -pi + 2 pi k / K.

    Member k, turned back, errs by e^{-i theta_k} sum_n c_n e^{i n (psi
    + theta_k)}, psi = arg v.  Over the grid, the mean of e^{i (n - 1)
    theta_k} is (-1)^{n-1} where n = 1 (mod K) and 0 elsewhere, so only
    those harmonics stay, each times (-1)^{n-1}."""
    psi = math.atan2(v[1], v[0])
    z = sum(c * (-1) ** (n - 1) * cmath.exp(1j * n * psi)
            for n, c in spectrum.items() if (n - 1) % k == 0)
    return np.array([z.real, z.imag])


def rae_window_ref(window, start, model, angles, reducer, v_max=2.0):
    """One window through the rotation-augmented ensemble, member by member.

    For each angle: run the model on the window turned by that angle
    alone (one window, one angle), skip a non-finite output, clamp its
    speed, rotate it back; reduce the kept members; clamp the result.
    Returns (velocity, members dropped, whether a member or the result
    was clamped, largest distance from a kept member to the reduced
    velocity), or raises ``NonFiniteEstimateError`` if every member is
    dropped.
    """
    from sweepnav import NonFiniteEstimateError

    def clamp(v):
        speed = float(np.linalg.norm(v))
        return (v * (v_max / speed), True) if speed > v_max else (v, False)

    def turn(v, c, s):
        return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])

    members, dropped, clamped = [], 0, False
    for theta in angles:
        out = np.asarray(model.velocities(window[None], np.array([start]),
                                          np.array([theta])))[0, 0]
        if not np.isfinite(out).all():
            dropped += 1
            continue
        out, hit = clamp(out)
        clamped = clamped or hit
        members.append(turn(out, np.cos(-theta), np.sin(-theta)))
    if not members:
        raise NonFiniteEstimateError(f"all members non-finite for window {start}")
    reduced = reduce_ref(np.array(members), reducer)
    spread = max(math.hypot(*(m - reduced)) for m in members)
    v, hit = clamp(reduced)
    return v, dropped, clamped or hit, spread


# ---------------------------------------------------------------------------
# Per-sample references for the per-frame infer layers: the orientation
# filter and the capture loop as they were before they were batched.
# The library versions must match them bit for bit.


def quat_identity_ref() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize_ref(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quat_multiply_ref(a, b) -> np.ndarray:
    """Hamilton product a * b."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_from_rotvec_ref(rv) -> np.ndarray:
    """Quaternion for a rotation vector (axis * angle)."""
    rv = np.asarray(rv, dtype=float)
    angle = np.linalg.norm(rv)
    if angle < 1e-12:
        # second-order small-angle expansion keeps unit norm to fp precision
        return quat_normalize_ref(np.concatenate([[1.0], 0.5 * rv]))
    return np.concatenate([[np.cos(0.5 * angle)], np.sin(0.5 * angle) * rv / angle])


def quat_rotate_ref(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion."""
    qv = np.asarray(q[1:], dtype=float)
    v = np.asarray(v, dtype=float)
    t = 2.0 * np.cross(qv, v)
    return v + q[0] * t + np.cross(qv, t)



def quat_to_matrix_ref(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (device -> world)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _init_from_gravity_ref(acc: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(acc))
    if norm < 1e-6:
        return quat_identity_ref()
    v = acc / norm
    z = np.array([0.0, 0.0, 1.0])
    axis = np.cross(v, z)
    s = float(np.linalg.norm(axis))
    if s < 1e-12:
        if v[2] > 0:
            return quat_identity_ref()
        # upside down: rotate pi about x
        return np.array([0.0, 1.0, 0.0, 0.0])
    angle = float(np.arctan2(s, float(np.dot(v, z))))
    return quat_from_rotvec_ref(axis / s * angle)


def estimate_orientation_ref(seq) -> tuple[np.ndarray, np.ndarray]:
    """The heading ``psi`` and the mount ``M``: the mount from the mean
    specific force, then the heading summed one trapezoid step at a time
    about the mount's up axis."""
    n = len(seq)
    total = np.zeros(3)
    for a in seq.acc:
        total = total + a
    mount = _init_from_gravity_ref(total / n) if n else quat_identity_ref()
    # world +z seen in the device frame
    up = quat_rotate_ref(mount * [1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 1.0])
    psi = np.zeros(n)
    for i in range(1, n):
        rate = 0.5 * (float(np.dot(seq.gyro[i - 1], up)) + float(np.dot(seq.gyro[i], up)))
        psi[i] = psi[i - 1] + rate * float(seq.t[i] - seq.t[i - 1])
    return psi, mount


def capture_schedule_ref(traj, distance_m=1.0, rotation_rad=np.pi / 2):
    """Capture events, one frame and one norm at a time."""
    if len(traj) == 0:
        return []
    events = [CaptureEvent(0, traj.pose(0), "first")]
    acc_d = 0.0
    acc_r = 0.0
    d_gate = distance_m * (1.0 - 1e-9)
    r_gate = rotation_rad * (1.0 - 1e-9)
    for f in range(1, len(traj)):
        acc_d += float(np.linalg.norm(traj.xy[f] - traj.xy[f - 1]))
        acc_r += abs(float(wrap_angle(traj.yaw[f] - traj.yaw[f - 1])))
        hit_d = acc_d >= d_gate
        hit_r = acc_r >= r_gate
        if hit_d or hit_r:
            trigger = "distance" if hit_d else "rotation"
            events.append(CaptureEvent(f, traj.pose(f), trigger))
            acc_d = 0.0
            acc_r = 0.0
    return events


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The text writers as they were before each formatted a whole table at
# once: one join or json.dumps per row.  fileio's must write the same bytes.


def write_csv_ref(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_jsonl_ref(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


# ---------------------------------------------------------------------------
# The record classes as frozen dataclasses, as they were declared before
# ``geometry._record`` replaced ``dataclasses.dataclass(frozen=True)``.

# what ``_record`` adds to a class body
_RECORD_ADDS = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
                "__match_args__", "__dict__", "__weakref__"}


def dataclass_twin(cls):
    """The class body of the record class ``cls`` (its annotations,
    defaults, ``__post_init__``, other methods and name) under
    ``dataclasses.dataclass(frozen=True)``."""
    body = {key: value for key, value in vars(cls).items() if key not in _RECORD_ADDS}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))
