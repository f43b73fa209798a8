"""Tests for trajectory refinement under the loop-closure constraint."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepnav as sn
from sweepnav.loop_closure import (
    LOSS_CSV_HEADER,
    _PIECES_FROM,
    _corrected_positions,
    _index_column,
    _loss,
    _switch_frames,
    _uniforms,
    CorrectionMlp,
    CorrectionParams,
    RefineConfig,
    apply_corrections,
    loss_and_gradients,
    refine,
    refinement_loss,
    save_corrections,
    save_loss_history,
)

from .oracles import (
    corrected_positions_ref,
    corrected_positions_rows_ref,
    correction_mlp_init_ref,
    correction_mlp_magnitudes_ref,
    correction_mlp_ref,
    loss_ref,
    numeric_gradients,
    refine_ref,
    refinement_loss_ref,
    same_bits,
)


def _traj(xy, rate=50.0, yaw=None):
    xy = np.asarray(xy, dtype=float)
    n = len(xy)
    if yaw is None:
        yaw = np.zeros(n)
    return sn.Trajectory(np.arange(n) / rate, xy, np.asarray(yaw, dtype=float), rate)


def _circle(n=400):
    """A loop that ends exactly where it starts."""
    th = 2.0 * np.pi * np.arange(n) / (n - 1)
    xy = np.column_stack([np.cos(th), np.sin(th)])
    return _traj(xy, yaw=sn.wrap_angle(th + np.pi / 2))


def _drifted(traj, rate_per_frame):
    """Rotate each increment by a linearly growing heading error."""
    d = np.diff(traj.xy, axis=0)
    n = len(traj)
    ang = rate_per_frame * np.arange(1, n)
    c, s = np.cos(ang), np.sin(ang)
    rot = np.column_stack([c * d[:, 0] - s * d[:, 1], s * d[:, 0] + c * d[:, 1]])
    xy = np.vstack([traj.xy[0], traj.xy[0] + np.cumsum(rot, axis=0)])
    yaw = sn.wrap_angle(traj.yaw + np.concatenate([[0.0], ang]))
    return sn.Trajectory(traj.t, xy, yaw, traj.frame_rate)


def _zero_params(n):
    return CorrectionParams(np.zeros(n), np.zeros((n, 2)))


def _random_case(seed, max_frames=200):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_frames + 1))
    xy = np.cumsum(rng.normal(0.0, 0.2, (n, 2)), axis=0)
    r = rng.uniform(-np.pi, np.pi, n)
    l = rng.normal(0.0, 0.5, (n, 2))
    return xy, r, l


class TestCorrectionParams:
    def test_rotation_bound_enforced(self):
        with pytest.raises(ValueError, match="must lie in"):
            CorrectionParams(np.array([0.0, 3.2]), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"expected r \(T,\)"):
            CorrectionParams(np.zeros(3), np.zeros((4, 2)))

    def test_arrays_are_read_only(self):
        params = _zero_params(4)
        with pytest.raises(ValueError, match="read-only"):
            params.r[0] = 1.0


class TestApplyCorrections:
    def test_identity_is_exact_no_op(self):
        traj = _circle(64)
        out = apply_corrections(traj, _zero_params(64))
        assert np.array_equal(out.xy, traj.xy)
        assert np.array_equal(out.yaw, traj.yaw)
        assert np.array_equal(out.t, traj.t)

    def test_identity_returns_the_input_itself(self):
        """A frozen trajectory needs no copy, and its yaw is not wrapped
        a second time."""
        traj = _circle(64)
        assert apply_corrections(traj, _zero_params(64)) is traj

    def test_quarter_turn_on_straight_line(self):
        """Each increment is rotated by its own frame's angle, so only the
        first step of (0,0)->(1,0)->(2,0) turns under r=(0, pi/2, 0)."""
        traj = _traj([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        params = CorrectionParams(np.array([0.0, np.pi / 2, 0.0]), np.zeros((3, 2)))
        out = apply_corrections(traj, params)
        np.testing.assert_allclose(
            out.xy, [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(out.yaw, [0.0, np.pi / 2, np.pi / 2], atol=1e-12)

    def test_uniform_offset_translates_every_pose(self):
        traj = _traj([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [3.0, 2.0]])
        params = CorrectionParams(np.zeros(4), np.tile([0.1, 0.0], (4, 1)))
        out = apply_corrections(traj, params)
        np.testing.assert_allclose(out.xy, traj.xy + [0.1, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.yaw, traj.yaw, atol=1e-12)

    def test_length_mismatch_rejected(self):
        traj = _traj([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="corrections cover 2 frames, trajectory has 3"):
            apply_corrections(traj, _zero_params(2))

    def test_matches_naive_reference(self):
        """Vectorized deformation agrees with a per-frame loop on random
        trajectories and corrections."""
        for seed in range(100):
            xy, r, l = _random_case(seed)
            traj = _traj(xy)
            out = apply_corrections(traj, CorrectionParams(r, l))
            expected = corrected_positions_ref(xy, r, l)
            np.testing.assert_allclose(out.xy, expected, atol=1e-9)
            np.testing.assert_allclose(
                out.yaw, sn.wrap_angle(traj.yaw + np.cumsum(r)), atol=1e-12)

    def test_corrected_yaw_stays_wrapped(self):
        traj = _traj([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], yaw=[3.0, 3.0, 3.0])
        params = CorrectionParams(np.array([0.5, 0.5, 0.5]), np.zeros((3, 2)))
        out = apply_corrections(traj, params)
        assert np.all(out.yaw > -np.pi)
        assert np.all(out.yaw <= np.pi)


class TestRefinementLoss:
    def test_closed_loop_zero_corrections_is_zero(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        traj = _traj(xy)
        bd = refinement_loss(traj, _zero_params(5), np.diff(xy, axis=0))
        assert bd.total == 0.0
        assert (bd.loop, bd.rot, bd.smooth) == (0.0, 0.0, 0.0)

    def test_open_trajectory_pays_squared_gap(self):
        xy = np.column_stack([np.linspace(0.0, 1.0, 5), np.zeros(5)])
        traj = _traj(xy)
        bd = refinement_loss(traj, _zero_params(5), np.diff(xy, axis=0))
        assert bd.loop == 1.0
        assert bd.total == 1.0

    def test_rotation_term_squares_the_sum(self):
        """Uniform 0.01 rad corrections over 100 frames sum to 0.99 (the
        first frame's entry never rotates an increment), giving 0.9801."""
        traj = _circle(100)
        params = CorrectionParams(np.full(100, 0.01), np.zeros((100, 2)))
        bd = refinement_loss(traj, params, np.diff(traj.xy, axis=0))
        np.testing.assert_allclose(bd.rot, 0.9801, rtol=0, atol=1e-12)

    def test_smooth_term_is_worst_frame_deviation(self):
        xy = np.column_stack([np.linspace(0.0, 0.4, 5), np.zeros(5)])
        traj = _traj(xy)
        v = np.diff(xy, axis=0)
        v[2] += [0.0, 0.25]
        bd = refinement_loss(traj, _zero_params(5), v)
        np.testing.assert_allclose(bd.smooth, 0.25, atol=1e-12)

    def test_matches_naive_reference(self):
        for seed in range(200, 240):
            xy, r, l = _random_case(seed, max_frames=80)
            n = len(xy)
            rng = np.random.default_rng(seed + 10_000)
            v = np.diff(xy, axis=0) + rng.normal(0.0, 0.05, (n - 1, 2))
            bd = refinement_loss(_traj(xy), CorrectionParams(r, l), v)
            total, loop, rot, smooth = loss_ref(xy, r, l, v)
            np.testing.assert_allclose(
                [bd.total, bd.loop, bd.rot, bd.smooth],
                [total, loop, rot, smooth], atol=1e-9)

    def test_velocity_shape_checked(self):
        traj = _circle(10)
        with pytest.raises(ValueError, match="per_frame_v must have shape"):
            refinement_loss(traj, _zero_params(10), np.zeros((10, 2)))


# every smoothness residual of an integer-step case in "ties": norm 5
_NORM_5 = np.array([[3.0, 4.0], [4.0, 3.0], [-5.0, 0.0], [0.0, 5.0], [-3.0, -4.0]])


@st.composite
def loss_cases(draw):
    """Arguments of the loss: T = 2 and T on both sides of
    ``_PIECES_FROM``; the worst smoothness residual forced to frame 0 or
    to frame T-2, whose next frame is the loop frame; all residuals of
    one norm, so the lowest frame wins the tie; all residuals zero; and
    a -0.0 start and offsets.  Integer steps without rotation keep the
    tied and zero residuals exact."""
    n = draw(st.one_of(st.just(2), st.integers(3, _PIECES_FROM - 1),
                       st.integers(_PIECES_FROM, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "spike", "ties", "still"]))
    if kind in ("random", "spike"):
        P = np.cumsum(rng.normal(0.0, 0.2, (n, 2)), axis=0)
        r = rng.uniform(-np.pi, np.pi, n)
        # l as the network returns it: two columns of a (T, 3) array
        l = rng.normal(0.0, 0.5, (n, 3))[:, 1:]
        v = np.diff(P, axis=0) + rng.normal(0.0, 0.01, (n - 1, 2))
        if kind == "spike":
            v[draw(st.sampled_from([0, n - 2]))] += 100.0
    else:
        # a signed zero as start and offsets: frame 0 must keep -0.0 + -0.0
        zero = draw(st.sampled_from([0.0, -0.0]))
        D = rng.integers(-3, 4, (n - 1, 2)).astype(float)
        P = np.vstack([np.full(2, zero), np.cumsum(D, axis=0)])
        r, l = np.zeros(n), np.full((n, 2), zero)
        v = D - _NORM_5[rng.integers(0, len(_NORM_5), n - 1)] if kind == "ties" else D
    return P, r, l, v


class TestLossOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=loss_cases())
    def test_matches_row_layout_bit_for_bit(self, case):
        """The loss on x and y columns gives the terms and gradients of
        the loss on (T, 2) rows, bit for bit, signed zeros included, and
        the positions and rotated increments that it starts from."""
        P, r, l = case[:3]
        for got, want in zip(_corrected_positions(P, r, l), corrected_positions_rows_ref(P, r, l)):
            assert same_bits(got.T.copy(), want)
        for grads in (False, True):
            got, want = _loss(*case, grads), refinement_loss_ref(*case, grads)
            assert got[0] == want[0]
            if grads:
                for g, g_ref in zip(got[1], want[1]):
                    assert same_bits(g, g_ref)
            else:
                assert got[1] is want[1] is None

    def test_cases_reach_each_edge(self):
        """The strategy above reaches every case it promises."""
        seen = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(case=loss_cases())
        def collect(case):
            P, r, l, v = case
            n = len(P)
            Pp = corrected_positions_rows_ref(P, r, l)[0]
            norms = np.linalg.norm(np.diff(Pp, axis=0) - v, axis=1)
            smooth, j = norms.max(), int(norms.argmax())
            seen.update(name for name, hit in [
                ("T=2", n == 2), ("below", 2 < n < _PIECES_FROM), ("above", n >= _PIECES_FROM),
                ("j=0", smooth > 0 and j == 0 and n > 2), ("j=T-2", smooth > 0 and j == n - 2 > 0),
                ("ties", smooth > 0 and (norms == smooth).sum() > 1), ("smooth=0", smooth == 0.0),
            ] if hit)

        collect()
        assert seen == {"T=2", "below", "above", "j=0", "j=T-2", "ties", "smooth=0"}


def _mixed_mlp(seed):
    """A network whose ReLUs are neither all on nor all off."""
    rng = np.random.default_rng(seed)
    mlp = CorrectionMlp.initialize(seed=seed, hidden=16, init_scale=1.0)
    mlp.params[1][:] = rng.normal(0.0, 1.0, 16)
    mlp.params[3][:] = rng.normal(0.0, 1.0, 16)
    return mlp


# The piece pass sums in another order than the reference, so the two
# differ by rounding: at most this much relative to the sum of the
# magnitudes of the reference's terms.  Relative to the reference's own
# norm, a gradient whose terms cancel can miss it by its own rounding.
_PIECE_RTOL = 1e-12


def _assert_matches_reference(mlp, n, g_r, g_l):
    """Bit for bit on the dense pass, within ``_PIECE_RTOL`` on the
    piece pass, over each output as a whole: a frame near s = 0, where
    the reference's terms are small, the piece pass reaches from its
    piece's middle frame."""
    s = _index_column(n)
    r_ref, l_ref, grads_ref = correction_mlp_ref(mlp.params, s, g_r, g_l)
    r_mag, l_mag, grads_mag = correction_mlp_magnitudes_ref(mlp.params, s, g_r, g_l)
    r, l = mlp.forward(n)
    grads = mlp.backward(g_r, g_l)
    for got, want, mag in zip([r, l, *grads], [r_ref, l_ref, *grads_ref],
                              [r_mag, l_mag, *grads_mag]):
        if n < _PIECES_FROM:
            assert same_bits(got, want)
        else:
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= _PIECE_RTOL * np.linalg.norm(mag)


@st.composite
def correction_networks(draw):
    """Frame counts on both sides of ``_PIECES_FROM`` and up to 20 000,
    with the weights drawn to hit the piece search's edge cases: all
    kinks on frame 0 (b1 = 0, as at initialisation), kinks exactly on
    a frame, units with zero input weight, and stretches where every
    layer-1 unit is off."""
    n = draw(st.one_of(st.integers(1, _PIECES_FROM - 1), st.integers(_PIECES_FROM, 20_000),
                       st.sampled_from([_PIECES_FROM - 1, _PIECES_FROM, 20_000])))
    hidden = draw(st.sampled_from([1, 8, 16, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mlp = CorrectionMlp.initialize(seed=draw(st.integers(0, 1000)), hidden=hidden,
                                   init_scale=draw(st.sampled_from([0.01, 1.0])))
    W1, b1, W2, b2, _, b3 = mlp.params
    s = _index_column(n)[:, 0]
    kinks = draw(st.sampled_from(["zero", "random", "on_frames", "all_off_until"]))
    if kinks == "random":
        b1[:] = rng.normal(0.0, np.abs(W1).max(), hidden)
    elif kinks == "on_frames":
        b1[:] = -(W1[0] * s[rng.integers(0, n, hidden)])
    elif kinks == "all_off_until":
        # every unit off before its kink, and no kink before frame f
        W1[:] = np.abs(W1)
        b1[:] = -(W1[0] * s[rng.integers(rng.integers(0, n), n, hidden)])
    W1[0, rng.random(hidden) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        z2 = np.maximum(s[[0, -1], None] * W1 + b1, 0.0) @ W2
        b2[:] = rng.normal(0.0, np.abs(z2).max() or 1.0, hidden)
        b3[:] = rng.normal(0.0, 1.0, 3)
    return mlp, n, rng


class TestCorrectionMlp:
    @pytest.mark.parametrize("n", [1, 2, 50, 700])
    def test_matches_allocating_reference(self, n):
        mlp = _mixed_mlp(n)
        rng = np.random.default_rng(n + 1)
        _assert_matches_reference(mlp, n, rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, (n, 2)))

    @settings(max_examples=120, deadline=None)
    @given(case=correction_networks())
    def test_piece_pass_matches_reference(self, case):
        mlp, n, rng = case
        _assert_matches_reference(mlp, n, rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, (n, 2)))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 5000), seed=st.integers(0, 2**32 - 1),
           offset=st.sampled_from([0.0, 1e-13, -1e-13, 0.5, -0.5, 1.0]),
           at_zero=st.booleans())
    def test_switch_frames_match_every_frame(self, n, seed, offset, at_zero):
        """The frames where the rounded ``(s - s0) a + c > 0`` changes
        inside a frame range, against that predicate on every frame:
        crossings on a frame, next to one, and at or just past either
        end, about s0 = 0 and about a frame inside the range."""
        rng = np.random.default_rng(seed)
        s = _index_column(n)[:, 0]
        lo, hi = np.sort(rng.choice(n + 1, 2, replace=False))
        s0 = 0.0 if at_zero else s[rng.integers(lo, hi)]
        a = rng.normal(0.0, 1.0, 12) * rng.choice([0.0, 1e-3, 1.0, 1e3], 12)
        frame = rng.choice([lo - 1, lo, lo + 1, hi - 1, hi, rng.integers(lo, hi)], 12)
        c = -(a * ((frame + offset) / (n - 1) - s0))
        on = (s[lo:hi, None] - s0) * a + c > 0.0
        want = sorted(lo + 1 + np.nonzero(np.diff(on, axis=0))[0])
        got = _switch_frames(s, a[None], c[None], np.array([s0]), np.array([lo]), np.array([hi]))
        assert np.all((got >= lo) & (got <= hi))
        assert sorted(f for f in got if lo < f < hi) == want

    def test_frame_count_changes_match_a_fresh_network(self):
        """One network run at 50, 80, 400 and again 50 frames, so on the
        dense pass, the piece pass and the dense pass again, gives what a
        new network gives at each size."""
        mlp = _mixed_mlp(5)
        for n in (50, 80, 400, 50):
            traj = _drifted(_circle(n), 0.01)
            v = np.diff(traj.xy, axis=0)
            fresh = CorrectionMlp([p.copy() for p in mlp.params])
            loss, grads = loss_and_gradients(traj.xy, mlp, v)
            loss_ref, grads_ref = loss_and_gradients(traj.xy, fresh, v)
            assert loss == loss_ref
            for g, g_ref in zip(grads, grads_ref):
                assert np.array_equal(g, g_ref)
            got, want = mlp.predict(n), fresh.predict(n)
            assert np.array_equal(got.r, want.r) and np.array_equal(got.l, want.l)

    def test_results_do_not_alias_the_buffers(self):
        """Gradients survive the next pass, and predictions own their
        memory: they share none with what the network keeps."""
        traj = _drifted(_circle(60), 0.01)
        v = np.diff(traj.xy, axis=0)
        mlp = _mixed_mlp(9)
        _, grads = loss_and_gradients(traj.xy, mlp, v)
        kept = [g.copy() for g in grads]
        prediction = mlp.predict(60)
        kept_r, kept_l = prediction.r.copy(), prediction.l.copy()
        mlp.params = [p + 0.5 for p in mlp.params]
        loss_and_gradients(traj.xy, mlp, v)
        mlp.forward(60)
        for g, k in zip(grads, kept):
            assert np.array_equal(g, k)
        assert np.array_equal(prediction.r, kept_r)
        assert np.array_equal(prediction.l, kept_l)
        for buf in [a for a in vars(mlp).values() if isinstance(a, np.ndarray)]:
            assert not np.shares_memory(prediction.l, buf)
            assert not np.shares_memory(prediction.r, buf)


class TestInitialWeights:
    """``_uniforms`` is numpy's ``default_rng(seed).random`` stream, and
    ``CorrectionMlp.initialize`` draws from it what numpy's ``uniform``
    would."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 3])
    def test_stream_is_numpys(self, seed):
        assert same_bits(np.array(_uniforms(seed, 5000)), np.random.default_rng(seed).random(5000))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 5000))
    def test_stream_is_numpys_for_any_seed(self, seed, n):
        assert same_bits(np.array(_uniforms(seed, n), dtype=float),
                         np.random.default_rng(seed).random(n))

    def test_first_draws_of_seed_0(self):
        """Pinned as written, since numpy does not promise to keep its
        generators' streams across versions (NEP 19)."""
        assert [u.hex() for u in _uniforms(0, 4)] == [
            "0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2",
            "0x1.4fa7b529d9bd0p-5", "0x1.0ec9ed84d0bc0p-6"]

    def test_negative_seed_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            _uniforms(-1, 1)

    @pytest.mark.parametrize("hidden", [1, 8, 64, 100])
    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 1])
    @pytest.mark.parametrize("init_scale", [0.01, 1.0])
    def test_initialize_draws_numpys_weights(self, hidden, seed, init_scale):
        got = CorrectionMlp.initialize(seed, hidden, init_scale).params
        want = correction_mlp_init_ref(seed, hidden, init_scale)
        assert len(got) == len(want) and all(map(same_bits, got, want))


class TestGradients:
    @pytest.mark.parametrize("seed", [1000, 1003, 1004, 1007, 1013])
    def test_analytic_matches_finite_differences(self, seed):
        """Backpropagated gradients for every network parameter agree with
        central differences to well under 1e-4 relative error."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        start = rng.normal(0.0, 1.0, 2)
        xy = np.vstack([start, start + np.cumsum(rng.normal(0.0, 0.03, (n - 1, 2)), axis=0)])
        v = np.diff(xy, axis=0) + rng.normal(0.0, 0.01, (n - 1, 2))
        mlp = CorrectionMlp.initialize(seed=seed, hidden=64)
        # keep every ReLU input away from zero so the finite-difference
        # probes never cross an activation kink
        mlp.params[1][:] = rng.choice([-0.08, 0.08], size=mlp.params[1].shape)
        mlp.params[3][:] = rng.choice([-0.08, 0.08], size=mlp.params[3].shape)
        _, grads = loss_and_gradients(xy, mlp, v)

        def fn():
            return loss_and_gradients(xy, mlp, v)[0].total

        numeric = numeric_gradients(fn, mlp.params, h=1e-5)
        for analytic, approx in zip(grads, numeric):
            denom = max(np.linalg.norm(analytic), np.linalg.norm(approx), 1e-6)
            assert np.linalg.norm(analytic - approx) / denom < 1e-4


    def test_piece_pass_matches_finite_differences(self):
        """The same check above ``_PIECES_FROM``: T=1000 and a hidden=16
        network whose units switch inside the recording on both layers,
        with every pre-activation far enough from zero that no probe
        crosses a kink."""
        n, seed = 1000, 17
        rng = np.random.default_rng(seed)
        xy = np.cumsum(rng.normal(0.0, 0.03, (n, 2)), axis=0)
        v = np.diff(xy, axis=0) + rng.normal(0.0, 0.01, (n - 1, 2))
        mlp = _mixed_mlp(seed)
        W1, b1, W2, b2 = mlp.params[:4]
        # each layer-1 kink midway between two frames
        b1[:] = -W1[0] * (rng.integers(0, n - 1, 16) + 0.5) / (n - 1)
        z1 = _index_column(n) @ W1 + b1
        z2 = np.maximum(z1, 0.0) @ W2 + b2
        for z in (z1, z2):
            assert np.diff(z > 0.0, axis=0).any()
            assert np.abs(z).min() > 1e-4
        _, grads = loss_and_gradients(xy, mlp, v)
        numeric = numeric_gradients(
            lambda: loss_and_gradients(xy, mlp, v)[0].total, mlp.params, h=1e-5)
        for analytic, approx in zip(grads, numeric):
            denom = max(np.linalg.norm(analytic), np.linalg.norm(approx), 1e-6)
            assert np.linalg.norm(analytic - approx) / denom < 1e-4


class TestRefine:
    def test_heading_drift_mostly_closed(self):
        """A closed loop opened by steady heading drift is pulled back to
        within 10% of its original gap."""
        gt = _circle(400)
        bad = _drifted(gt, 0.002)
        gap_before = np.linalg.norm(bad.xy[-1] - bad.xy[0])
        refined, _, _ = refine(bad, np.diff(bad.xy, axis=0), RefineConfig(epochs=120))
        gap_after = np.linalg.norm(refined.xy[-1] - bad.xy[0])
        assert gap_after < 0.1 * gap_before

    def test_loop_term_never_worse_than_input(self):
        gt = _circle(400)
        bad = _drifted(gt, 0.002)
        v = np.diff(bad.xy, axis=0)
        _, corrections, _ = refine(bad, v, RefineConfig(epochs=40))
        before = refinement_loss(bad, _zero_params(400), v)
        after = refinement_loss(bad, corrections, v)
        assert after.loop <= before.loop
        assert after.total <= before.total

    def test_already_closed_input_is_untouched(self):
        traj = _circle(300)
        refined, corrections, _ = refine(
            traj, np.diff(traj.xy, axis=0), RefineConfig(epochs=30))
        assert np.array_equal(refined.xy, traj.xy)
        assert not corrections.r.any()
        assert not corrections.l.any()

    def test_a_refine_that_keeps_its_input_returns_it(self):
        traj = _circle(300)
        refined, _, _ = refine(traj, np.diff(traj.xy, axis=0), RefineConfig(epochs=30))
        assert refined is traj

    def test_history_has_initial_plus_final_entry(self):
        """One entry per epoch, the first at the untrained network, plus
        the trained network's; the identity baseline is never an entry,
        and the returned corrections score the history's minimum."""
        traj = _drifted(_circle(50), 0.01)
        v = np.diff(traj.xy, axis=0)
        _, corrections, history = refine(traj, v, RefineConfig(epochs=12))
        assert len(history) == 13
        assert history[0].total != refinement_loss(traj, _zero_params(50), v).total
        totals = np.array([h.total for h in history])
        running_min = np.minimum.accumulate(totals)
        assert np.all(np.diff(running_min) <= 0)
        assert corrections.r.any()
        assert refinement_loss(traj, corrections, v) == history[int(np.argmin(totals))]

    def test_deterministic_for_fixed_seed(self):
        traj = _drifted(_circle(80), 0.005)
        v = np.diff(traj.xy, axis=0)
        first = refine(traj, v, RefineConfig(epochs=15))
        second = refine(traj, v, RefineConfig(epochs=15))
        assert np.array_equal(first[1].r, second[1].r)
        assert np.array_equal(first[1].l, second[1].l)
        assert [h.total for h in first[2]] == [h.total for h in second[2]]

    def test_output_bits_pinned(self):
        """The refined positions, the corrections and every loss-history
        total, bit for bit (recorded with numpy 2.4.6 on OpenBLAS 0.3.31).
        A change of arithmetic, or of numpy/BLAS build, moves these bits.
        At 400 frames the network runs on its linear pieces, whose
        products are (pieces, hidden) small, so the bits are the same
        with OpenBLAS's default threads and under OPENBLAS_NUM_THREADS=1
        (checked on a 2-core host)."""
        traj = _drifted(_circle(400), 0.02)
        refined, corrections, history = refine(traj, np.diff(traj.xy, axis=0), RefineConfig())

        def digest(data):
            return hashlib.sha256(data).hexdigest()

        totals = [repr(h.total) for h in history]
        assert len(totals) == 101
        assert (totals[0], min(h.total for h in history)) == (
            "0.4369288358899473", 5.612671514093671e-05)
        assert digest(",".join(totals).encode()) == (
            "f9a85c0b5331b3b1f9ce6aa150076e2cc0e67da1152d1f599bcfab026d2819cf")
        assert digest(refined.xy.tobytes()) == (
            "c591021e2a7e97a6b71c224fb4c8ebfff0e79db2c561e417f334cb2a8ddf881a")
        assert digest(corrections.r.tobytes()) == (
            "fe54e89b9c450f47c12b564efc4076ebe831234201dd67dba027f21d3fec928e")
        assert digest(corrections.l.tobytes()) == (
            "d531f57101ae706f35c81015e45793a2ccf7b8572826476bfe87851f9b8aeb97")

    def test_non_identity_refine_bits_pinned(self):
        """A refine that beats its input, so ``apply_corrections`` runs on
        nonzero corrections: refined positions, corrections and history
        totals, bit for bit (recorded like the pin above, and like it
        the same under OPENBLAS_NUM_THREADS=1)."""
        traj = _drifted(_circle(400), 0.002)
        refined, corrections, history = refine(
            traj, np.diff(traj.xy, axis=0), RefineConfig(epochs=40))

        def digest(data):
            return hashlib.sha256(data).hexdigest()

        assert corrections.r.any() and corrections.l.any()
        totals = [repr(h.total) for h in history]
        assert len(totals) == 41
        assert digest(",".join(totals).encode()) == (
            "af4afd5e323cd6b15e979ec51fccc84f5e1022221e97e7b287f7c080215e5853")
        assert digest(refined.xy.tobytes()) == (
            "9123f7679f1982218bce18d77f2b75ed09808b41538c33d6357e1259428e2a99")
        assert digest(corrections.r.tobytes()) == (
            "9fbf80cff21d03e4172709fbada6f6abb7a4465003f9e01f2be0fcc448089b7a")
        assert digest(corrections.l.tobytes()) == (
            "3aeabf41ebe1790d19ef01fac87f414ade570f51b9e5ed458dec3329acfee04d")

    @pytest.mark.parametrize("n_frames, drift", [(100, 0.01), (400, 0.002)],
                             ids=["dense", "pieces"])
    @pytest.mark.parametrize("hidden", [1, 8, 64])
    @pytest.mark.parametrize("learning_rate", [0.01, 0.003])
    def test_flat_adam_matches_the_per_array_loop(self, n_frames, drift, hidden,
                                                  learning_rate):
        """Adam is elementwise, so stepping one flat vector gives the bits
        of the per-array loop: refined positions, corrections and the
        whole history, on refines that move their input, on both passes
        of the network."""
        traj = _drifted(_circle(n_frames), drift)
        v = np.diff(traj.xy, axis=0)
        cfg = RefineConfig(epochs=40, learning_rate=learning_rate, hidden=hidden)
        refined, corrections, history = refine(traj, v, cfg)
        ref_refined, ref_corrections, ref_history = refine_ref(traj, v, cfg)
        assert corrections.r.any() and corrections.l.any()
        assert same_bits(refined.xy, ref_refined.xy)
        assert same_bits(corrections.r, ref_corrections.r)
        assert same_bits(corrections.l, ref_corrections.l)
        assert list(map(repr, history)) == list(map(repr, ref_history))

    def test_two_frame_trajectory_supported(self):
        traj = _traj([[0.0, 0.0], [0.1, 0.0]])
        refined, corrections, history = refine(
            traj, np.array([[0.1, 0.0]]), RefineConfig(epochs=3))
        assert len(refined) == 2
        assert len(corrections) == 2
        assert np.all(np.abs(corrections.r) <= np.pi)

    def test_single_frame_rejected(self):
        traj = _traj([[0.0, 0.0]])
        with pytest.raises(ValueError, match="at least two frames"):
            refine(traj, np.zeros((0, 2)))

    def test_divergence_reports_epoch_and_rate(self):
        traj = _drifted(_circle(60), 0.01)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match=r"diverged at epoch \d+ \(learning_rate="):
                refine(traj, np.diff(traj.xy, axis=0),
                       RefineConfig(epochs=5, learning_rate=1e200))

    def test_divergence_on_the_piece_pass(self):
        """As above at 600 frames, where non-finite weights run through
        the piece pass."""
        traj = _drifted(_circle(600), 0.001)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match=r"diverged at epoch \d+ \(learning_rate="):
                refine(traj, np.diff(traj.xy, axis=0),
                       RefineConfig(epochs=5, learning_rate=1e200))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            RefineConfig(epochs=0)
        with pytest.raises(ValueError, match="learning_rate"):
            RefineConfig(learning_rate=0.0)


class TestCorrectionFiles:
    def test_round_trip_is_exact(self, tmp_path):
        """One JSON object per frame, in frame order, whose floats read
        back to the same bits."""
        rng = np.random.default_rng(3)
        params = CorrectionParams(
            rng.uniform(-np.pi, np.pi, 17), rng.normal(0.0, 0.3, (17, 2)))
        path = tmp_path / "corrections.jsonl"
        save_corrections(params, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["frame"] for rec in records] == list(range(17))
        assert all(set(rec) == {"frame", "r", "lx", "ly"} for rec in records)
        assert np.array_equal([rec["r"] for rec in records], params.r)
        assert np.array_equal([[rec["lx"], rec["ly"]] for rec in records], params.l)

    def test_loss_history_csv_shape(self, tmp_path):
        traj = _drifted(_circle(50), 0.01)
        _, _, history = refine(traj, np.diff(traj.xy, axis=0), RefineConfig(epochs=4))
        path = tmp_path / "loss.csv"
        save_loss_history(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == LOSS_CSV_HEADER
        assert len(lines) == len(history) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == history[0].total
