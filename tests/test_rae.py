"""Rotation-augmented ensembling of velocity estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepnav as sn
from sweepnav import rae
from sweepnav.geometry import rotate_xy, rotate_xyz_about_z
from sweepnav.rae import _GM_RTOL, _MEMBERS, ensemble_angles, reduce_members

from .conftest import zero_windows
from .oracles import (HarmonicErrorModel, geometric_median_ref, geometric_median_violation_ref,
                      harmonic_residual_ref, line_trajectory, rae_window_ref, reduce_ref,
                      rot2_ref)

STARTS = np.array([0, 40, 90, 130])


def _oracle_model(bias=(0.0, 0.0), speed=1.0, noise=0.0, rng_seed=0):
    traj = line_trajectory(speed=speed, n_frames=201)
    return sn.OracleVelocityEstimator(
        traj, sn.OracleConfig(bias=bias, noise_sigma=noise, seed=rng_seed))


def _reduce(members, reducer):
    """One window's (K, 2) members through the batched reducer."""
    members = np.asarray(members, dtype=float)
    return reduce_members(members[None], np.ones((1, len(members)), dtype=bool), reducer)[0][0]


def _rae(model, cfg, starts=STARTS, **kw):
    return sn.rae_estimate(zero_windows(len(starts)), starts, model, cfg, **kw)


class _Injected:
    """Wraps a model: members whose (start, angle) is in ``nan`` read NaN,
    those in ``fast`` read ten times the wrapped output."""

    def __init__(self, model, nan=(), fast=()):
        self.model, self.nan, self.fast = model, set(nan), set(fast)

    def velocities(self, windows, starts, angles):
        v = np.array(self.model.velocities(windows, starts, angles))
        for i, start in enumerate(starts.tolist()):
            for k, angle in enumerate(angles.tolist()):
                if (start, angle) in self.nan:
                    v[i, k] = np.nan
                elif (start, angle) in self.fast:
                    v[i, k] *= 10.0
        return v


class TestEnsembleAngles:
    def test_grid_is_even_and_starts_at_minus_pi(self):
        np.testing.assert_allclose(
            ensemble_angles(sn.RaeConfig(k=4)),
            [-np.pi, -np.pi / 2, 0.0, np.pi / 2], atol=1e-15,
        )
        np.testing.assert_allclose(ensemble_angles(sn.RaeConfig(k=1)), [-np.pi])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sn.RaeConfig(k=0)
        with pytest.raises(ValueError):
            sn.RaeConfig(reducer="mode")
        with pytest.raises(ValueError):
            sn.RaeConfig(reducer="trimmed_mean")


class TestReducers:
    def test_even_count_median_averages_middle_pair(self):
        """Collinear members have a segment of geometric medians; the
        convention takes the midpoint of the middle pair along the line.
        Off a line the minimiser is unique and meets the optimality
        condition."""
        members = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [9.0, 18.0]])
        np.testing.assert_allclose(_reduce(members, "median"), [1.5, 3.0],
                                   rtol=0, atol=1e-12)
        members = np.random.default_rng(11).normal(size=(6, 2))
        out = _reduce(members, "median")
        assert np.min(np.linalg.norm(members - out, axis=1)) > 1e-3
        assert geometric_median_violation_ref(members, out) < 1e-8

    @pytest.mark.parametrize("reducer", ["median", "mean"])
    def test_empty_stack_is_rejected(self, reducer):
        with pytest.raises(ValueError, match="K >= 1"):
            reduce_members(np.empty((1, 0, 2)), np.empty((1, 0), dtype=bool), reducer)

    def test_single_member_is_its_own_median(self):
        np.testing.assert_array_equal(_reduce(np.array([[0.3, -0.7]]), "median"),
                                      [0.3, -0.7])

    def test_equal_members_are_returned_exactly(self):
        members = np.tile([0.45, -0.125], (5, 1))
        np.testing.assert_array_equal(_reduce(members, "median"), [0.45, -0.125])

    def test_member_meeting_the_optimality_condition_is_returned_exactly(self):
        """Unit vectors from member 0 to the others sum to less than one,
        so member 0 is the median; an iterative solver would only creep
        towards it."""
        members = np.array([[0.2, 0.1], [1.2, 0.1], [-0.8, 0.3], [0.3, 1.4], [0.1, -0.9]])
        assert geometric_median_violation_ref(members, members[0]) == 0.0
        for perm in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
            np.testing.assert_array_equal(_reduce(members[perm], "median"), members[0])

    def test_median_just_off_a_member_is_converged(self):
        """Member 2 misses the optimality condition by 0.16%, so the median
        lies 3e-4 away from it, where Weiszfeld steps alone crawl."""
        members = np.array([[0.0, -0.1], [-0.3, 0.3], [-0.1, 0.1], [0.4, 0.3], [-0.6, 0.8]])
        out = _reduce(members, "median")
        assert 1e-4 < np.linalg.norm(out - members[2]) < 1e-3
        assert geometric_median_violation_ref(members, out) < 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    def test_grid_median_cancels_constant_bias_at_every_phase(self, k):
        """Back-rotated copies of an input-frame bias form a regular
        K-gon (a centred segment for K=2) about the true velocity."""
        truth = np.array([1.0, 0.0])
        thetas = ensemble_angles(sn.RaeConfig(k=k))
        for phi in np.linspace(-np.pi, np.pi, 25):
            bias = 0.1 * np.array([np.cos(phi), np.sin(phi)])
            members = np.array([truth + rotate_xy(bias, -t) for t in thetas])
            out = _reduce(members, "median")
            assert np.linalg.norm(out - truth) < 1e-12

    @pytest.mark.parametrize("k", range(3, 10))
    def test_median_commutes_with_rotation(self, k):
        """median(R M) = R median(M): the property the ensemble relies on,
        which a component-wise median does not have."""
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            members = rng.normal(size=(k, 2))
            rot = rot2_ref(rng.uniform(-np.pi, np.pi))
            np.testing.assert_allclose(
                _reduce(members @ rot.T, "median"),
                rot @ _reduce(members, "median"), rtol=0, atol=1e-12,
            )

    @pytest.mark.parametrize("reducer", ["median", "mean"])
    def test_permutation_invariance(self, reducer):
        rng = np.random.default_rng(9)
        members = rng.normal(size=(7, 2))
        base = _reduce(members, reducer)
        for _ in range(5):
            shuffled = members[rng.permutation(7)]
            # mean sums in input order, so exactness stops at the last ulp
            np.testing.assert_allclose(_reduce(shuffled, reducer), base,
                                       rtol=0, atol=1e-12)

    def test_single_member_corruption_is_bounded_by_peer_spread(self):
        """With five members, shifting any one member cannot drag the
        median far from the other four.  Minsker (Bernoulli 2015, Lemma
        2.1) with alpha = 1/5: if at most one of five points lies farther
        than r from z, the geometric median lies within
        (1 - alpha) / sqrt(1 - 2 alpha) * r = 0.8 / sqrt(0.6) * r of z.
        Here z is the mean of the other four and r their largest distance
        from it."""
        rng = np.random.default_rng(10)
        members = rng.normal(size=(5, 2))
        for i in range(5):
            rest = np.delete(members, i, axis=0)
            z = rest.mean(axis=0)
            r = float(np.linalg.norm(rest - z, axis=1).max())
            for offset in (1e3, -1e3, 1e9):
                corrupted = members.copy()
                corrupted[i] += offset
                out = _reduce(corrupted, "median")
                assert np.linalg.norm(out - z) <= 0.8 / np.sqrt(0.6) * r


@st.composite
def member_stacks(draw):
    """An (N, K, 2) stack of members with its (N, K) kept mask, at least
    one member kept per window.  Each window is drawn as one of: a
    Gaussian cloud; a small lattice, which gives duplicates, collinear
    sets and members on the mean; points on one line; or copies of one
    member with signed zeros.  Values are scaled by 1e-9 to 1e3, or by
    1e-300 or 1e300, where libm's hypot rescales its arguments."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    back = np.empty((n, k, 2))
    for i in range(n):
        scale = draw(st.integers(-9, 3).map(lambda e: 10.0 ** e)
                     | st.sampled_from([1e-300, 1e300]))
        kind = draw(st.sampled_from(["cloud", "lattice", "line", "zeros"]))
        if kind == "cloud":
            back[i] = rng.normal(size=(k, 2))
        elif kind == "lattice":
            back[i] = rng.integers(-2, 3, size=(k, 2))
        elif kind == "line":
            back[i] = rng.normal(size=2) + rng.normal(size=(k, 1)) * rng.normal(size=2)
        else:
            back[i] = rng.normal(size=2)
            back[i][rng.random((k, 2)) < 0.5] = 0.0
        back[i] *= scale * rng.choice([-1.0, 1.0], size=(k, 2))
    kept = rng.random((n, k)) < 0.7
    kept[np.arange(n), rng.integers(0, k, size=n)] = True
    return back, kept


class TestBatchedReducer:
    # at 1e-300 and 1e300 the Newton determinant overflows, here with a
    # warning and in the reference's float arithmetic silently
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(case=member_stacks(), reducer=st.sampled_from(["median", "mean"]))
    def test_equals_the_per_window_reference_bit_for_bit(self, case, reducer):
        """Each window's result, signed zeros included, is the one the
        loop over its kept members gives."""
        back, kept = case
        out, capped = reduce_members(back, kept, reducer)
        for i, members in enumerate(back):
            assert out[i].tobytes() == reduce_ref(members[kept[i]], reducer).tobytes()
        assert capped == (reducer == "median") * sum(
            geometric_median_ref(members[keep])[1] for members, keep in zip(back, kept))

    def test_capped_descents_are_counted(self, monkeypatch):
        """With one step allowed, every window that needs descent stops at
        the cap; the count and the values are the reference's."""
        back = np.random.default_rng(3).normal(size=(40, 5, 2))
        kept = np.ones((40, 5), dtype=bool)
        ref = [geometric_median_ref(members, max_iter=1) for members in back]
        n_ref = sum(hit for _, hit in ref)
        assert n_ref > 20
        monkeypatch.setattr(rae, "_GM_MAX_ITER", 1)
        out, capped = reduce_members(back, kept, "median")
        assert capped == n_ref
        assert out.tobytes() == np.array([v for v, _ in ref]).tobytes()

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_members_that_differ_by_rounding_stop_before_the_cap(self, k, monkeypatch):
        """A velocity rotated by the K ensemble angles and back differs
        from itself by rounding alone.  The relative step rule asks for a
        step far below one ulp of the median there; the ulp floor ends
        every such descent, at the reference's bits."""
        v = np.random.default_rng(k).uniform(-2.0, 2.0, size=(200, 2))
        angles = ensemble_angles(sn.RaeConfig(k=k))
        back = rotate_xy(rotate_xy(np.repeat(v[:, None], k, axis=1), angles), -angles)
        kept = np.ones((200, k), dtype=bool)
        out, capped = reduce_members(back, kept, "median")
        assert capped == 0
        assert out.tobytes() == np.array([reduce_ref(m, "median") for m in back]).tobytes()
        monkeypatch.setattr(rae, "_GM_ULPS", 0)
        assert reduce_members(back, kept, "median")[1] > 10

    def test_capped_windows_reach_the_result(self, monkeypatch):
        """One member of each window reads ten times the others, so no
        window's median is the mean or a member."""
        cfg = sn.RaeConfig(k=5)
        model = _Injected(_oracle_model(bias=(0.05, 0.02)),
                          fast=[(s, ensemble_angles(cfg)[0]) for s in STARTS.tolist()])
        assert _rae(model, cfg).n_windows_median_capped == 0
        monkeypatch.setattr(rae, "_GM_MAX_ITER", 1)
        assert _rae(model, cfg).n_windows_median_capped == len(STARTS)

    def test_benchmark_stack_equals_the_reference(self, monkeypatch):
        """The members that the benchmark's random network gives at stride
        1 on the ``sweep60`` room (3008 windows x K=5) lie about 4e-6
        apart, where the descent runs longest.  Every window's median and
        the capped count are the per-window reference's."""
        cfg = sn.SimConfig(room_width=6.5, room_height=2.0, acc_noise=0.05,
                           gyro_noise=0.002, seed=1)
        imu = sn.synthesize_imu(sn.generate_trajectory(cfg), cfg)
        windows = sn.make_windows(sn.to_hacf(imu, sn.estimate_orientation(imu)), tau=64, stride=1)
        net = sn.DenseVelocityNetwork(sn.make_random_bundle(tau=64, seed=1))
        stacks = []
        monkeypatch.setattr(rae, "reduce_members",
                            lambda back, kept, reducer: stacks.append((back, kept)) or
                            reduce_members(back, kept, reducer))
        sn.rae_estimate(windows, np.arange(len(windows)), net, sn.RaeConfig(k=5))
        [(back, kept)] = stacks
        assert back.shape == (3008, 5, 2) and kept.all()
        out, capped = reduce_members(back, kept, "median")
        ref = [geometric_median_ref(members) for members in back]
        assert out.tobytes() == np.array([v for v, _ in ref]).tobytes()
        assert capped == sum(hit for _, hit in ref)


class TestRaeEstimate:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("reducer", ["median", "mean"])
    def test_exact_recovery_for_equivariant_model(self, k, reducer):
        """Ensembling an already-equivariant estimator changes nothing."""
        model = _oracle_model()
        base = model.velocities(zero_windows(len(STARTS)), STARTS, np.zeros(1))[:, 0]
        ens = _rae(model, sn.RaeConfig(k=k, reducer=reducer))
        np.testing.assert_allclose(ens.v, base, rtol=0, atol=1e-12)

    def test_k4_mean_cancels_constant_bias_exactly(self):
        """Four evenly spaced rotations sum the rotated-back bias to zero."""
        ens = _rae(_oracle_model(bias=(0.1, 0.0)), sn.RaeConfig(k=4, reducer="mean"))
        np.testing.assert_allclose(ens.v, np.tile([1.0, 0.0], (4, 1)), rtol=0, atol=1e-12)

    def test_k5_median_lands_on_middle_member(self):
        """Five members see the bias at five rotations: a regular pentagon
        about the true velocity, whose geometric median is its centre.  The
        component-wise median used to pick the middle member's projection
        and keep |cos(3 pi / 5)| of the bias; that value is retired because
        it depended on the input frame."""
        ens = _rae(_oracle_model(bias=(0.1, 0.0)), sn.RaeConfig(k=5))
        np.testing.assert_allclose(ens.v, np.tile([1.0, 0.0], (4, 1)), rtol=0, atol=1e-12)

    def test_non_finite_members_are_dropped(self):
        class Flaky:
            def velocities(self, windows, starts, angles):
                v = np.tile(rotate_xy(np.array([1.0, 0.0]), angles), (len(windows), 1, 1))
                v[:, angles < -np.pi + 0.1] = np.nan
                return v

        ens = _rae(Flaky(), sn.RaeConfig(k=5))
        np.testing.assert_allclose(ens.v, np.tile([1.0, 0.0], (4, 1)), atol=1e-12)
        assert ens.n_members_nonfinite == 4

    def test_all_members_non_finite_is_fatal(self):
        model = _Injected(_oracle_model(),
                          nan=[(90, a) for a in ensemble_angles(sn.RaeConfig(k=5))])
        with pytest.raises(sn.NonFiniteEstimateError,
                           match="all 5 ensemble members were non-finite for window 90"):
            _rae(model, sn.RaeConfig(k=5))

    def test_reduced_velocity_is_clamped(self):
        ens = _rae(_oracle_model(speed=3.0), sn.RaeConfig(k=5))
        assert ens.n_windows_clamped == 4
        np.testing.assert_allclose(np.linalg.norm(ens.v, axis=1), 2.0, atol=1e-9)

    def test_counters_are_exact(self):
        """One NaN member in every window and one window at 3 m/s."""
        angles = ensemble_angles(sn.RaeConfig(k=5))
        starts = np.arange(0, 136, 1)
        model = _Injected(_oracle_model(speed=0.3),
                          nan=[(int(s), angles[int(s) % 5]) for s in starts],
                          fast=[(77, a) for a in angles])
        ens = _rae(model, sn.RaeConfig(k=5), starts=starts)
        assert ens.n_members_nonfinite == len(starts)
        assert ens.n_windows_clamped == 1
        expected = np.tile([0.3, 0.0], (len(starts), 1))
        expected[77] = [2.0, 0.0]
        np.testing.assert_allclose(ens.v, expected, rtol=0, atol=1e-12)

    def test_member_spread_reads_the_input_frame_bias(self):
        """A bias b fixed in the input frame puts every rotated-back member
        at |b| from the truth, where the grid ensemble lands; an
        equivariant model's members coincide."""
        for bias, spread in (((0.1, 0.0), 0.1), ((0.0, 0.0), 0.0)):
            ens = _rae(_oracle_model(bias=bias), sn.RaeConfig(k=4, reducer="mean"))
            np.testing.assert_allclose(ens.member_spread, spread, rtol=0, atol=1e-12)

    def test_model_sees_whole_blocks_of_windows(self):
        """A call holds _MEMBERS // K whole windows, or one window where K
        is larger, each with all K angles: its memory is bounded by its
        members whatever K is."""

        class Recording:
            def velocities(self, windows, starts, angles):
                calls.append((starts.tolist(), len(angles)))
                return np.zeros((len(windows), len(angles), 2))

        for k in (1, 5, 50, 2 * _MEMBERS):
            calls = []
            step = max(1, _MEMBERS // k)
            n = 2 * step + 1
            sn.rae_estimate(zero_windows(n, tau=4), np.arange(n), Recording(), sn.RaeConfig(k=k))
            assert [len(starts) for starts, _ in calls] == [step, step, 1]
            assert [s for starts, _ in calls for s in starts] == list(range(n))
            assert all(n_angles == k for _, n_angles in calls)
            assert step * k <= max(_MEMBERS, k)

    @pytest.mark.parametrize("k", [1, 5, 50])
    @pytest.mark.parametrize("reducer", ["median", "mean"])
    def test_blocked_reduction_equals_the_whole(self, monkeypatch, k, reducer):
        """Windows with mixed kept counts give the same bits, spreads and
        counters reduced all at once, six windows at a time or two by
        two; a block holds whole model calls (here two windows each), at
        most _REDUCED members or one call."""
        cfg = sn.RaeConfig(k=k, reducer=reducer)
        starts = np.arange(0, 120, 3)
        angles = ensemble_angles(cfg).tolist()
        rng = np.random.default_rng(k)
        nan = [(s, a) for s in starts.tolist() for a in angles[1:] if rng.random() < 0.4]
        if k > 1:
            assert len({sum((s, a) not in nan for a in angles) for s in starts.tolist()}) > 1
        model = _Injected(_oracle_model(bias=(0.05, 0.02), noise=0.05, rng_seed=k), nan=nan)
        blocks = []
        monkeypatch.setattr(rae, "reduce_members",
                            lambda back, kept, reducer: blocks.append(len(back)) or
                            reduce_members(back, kept, reducer))
        monkeypatch.setattr(rae, "_MEMBERS", 2 * k)
        results = []
        for members, sizes in ((len(starts) * k, [40]), (7 * k, [6] * 6 + [4]),
                               (1, [2] * 20)):
            blocks.clear()
            monkeypatch.setattr(rae, "_REDUCED", members)
            results.append(_rae(model, cfg, starts=starts))
            assert blocks == sizes
        whole = results[0]
        for blocked in results[1:]:
            assert blocked.v.tobytes() == whole.v.tobytes()
            assert blocked.member_spread.tobytes() == whole.member_spread.tobytes()
            assert blocked[1:3] == whole[1:3] and blocked[4] == whole[4]


@pytest.fixture(scope="module")
def sweep60_windows():
    """The windows of the 60 s reference sweep (sim seed 1, its sensor
    noise) at stride 16, and their start frames."""
    cfg = sn.SimConfig(room_width=6.5, room_height=2.0, acc_noise=0.05, gyro_noise=0.002,
                       seed=1)
    imu = sn.synthesize_imu(sn.generate_trajectory(cfg), cfg)
    windows = sn.make_windows(sn.to_hacf(imu, sn.estimate_orientation(imu)), tau=64, stride=16)
    return windows, 16 * np.arange(len(windows))


def _assert_turns_with_its_input(windows, starts, bundle, k, reducer):
    """Turning every window by 2 pi j / K, for each j, turns the ensemble
    estimate by the same angle, within 1e-12 of its largest speed.
    ``v_max`` is large, so no clamp acts."""
    model = sn.DenseVelocityNetwork(bundle)
    cfg = sn.RaeConfig(k=k, reducer=reducer)
    v = sn.rae_estimate(windows, starts, model, cfg, v_max=1e9).v
    tol = 1e-12 * np.abs(v).max()
    for j in range(1, k):
        phi = 2 * np.pi * j / k
        turned = rotate_xyz_about_z(windows, phi)
        v_turned = sn.rae_estimate(turned, starts, model, cfg, v_max=1e9).v
        np.testing.assert_allclose(v_turned, rotate_xy(v, phi), rtol=0, atol=tol)


class TestEquivariance:
    @pytest.mark.parametrize("k", [2, 4, 5, 8])
    @pytest.mark.parametrize("reducer", ["median", "mean"])
    def test_ensemble_of_a_dense_network_turns_with_its_input(self, sweep60_windows, k,
                                                              reducer):
        """A random dense network is not rotation-equivariant, but its
        ensemble is on its own angle grid: turning every window by 2 pi j / K
        maps the grid onto itself, so the members are the same set turned
        by that angle, and both reducers turn with them."""
        _assert_turns_with_its_input(*sweep60_windows,
                                     sn.make_random_bundle(tau=64, seed=3, scale=1.0),
                                     k, reducer)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 1.0),
           k=st.sampled_from([2, 4, 5, 8]), reducer=st.sampled_from(["median", "mean"]))
    def test_any_random_dense_network(self, sweep60_windows, seed, log_scale, k, reducer):
        """As above for random bundles of any seed and weight scale."""
        _assert_turns_with_its_input(
            *sweep60_windows, sn.make_random_bundle(tau=64, seed=seed, scale=10.0 ** log_scale),
            k, reducer)


@st.composite
def harmonic_errors(draw):
    """Windows moving at 0.05-0.5 m/s in any direction, and a member error
    of up to six harmonics n in -8..9, each at most 0.1 m/s: members stay
    below 1.1 m/s, far from the 2 m/s clamp."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_windows = draw(st.integers(1, 12))
    speed = rng.uniform(0.05, 0.5, n_windows)
    heading = rng.uniform(-np.pi, np.pi, n_windows)
    truth = np.column_stack([speed * np.cos(heading), speed * np.sin(heading)])
    orders = draw(st.lists(st.integers(-8, 9), min_size=1, max_size=6, unique=True))
    spectrum = {n: 0.1 * rng.uniform() * complex(np.cos(a), np.sin(a))
                for n, a in zip(orders, rng.uniform(-np.pi, np.pi, len(orders)))}
    return truth, 10 * np.arange(n_windows), spectrum


class TestHarmonicErrors:
    """What the ensemble does to an error that depends on the heading the
    model sees (``rae``'s module docstring)."""

    @settings(max_examples=80, deadline=None)
    @given(case=harmonic_errors(), k=st.integers(1, 8))
    def test_mean_keeps_the_harmonics_one_mod_k(self, case, k):
        truth, starts, spectrum = case
        model = HarmonicErrorModel(truth, starts, spectrum)
        got = sn.rae_estimate(zero_windows(len(starts)), starts, model,
                              sn.RaeConfig(k=k, reducer="mean")).v
        want = truth + [harmonic_residual_ref(v, spectrum, k) for v in truth]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(case=harmonic_errors())
    def test_first_harmonic_survives_every_k_and_reducer(self, case):
        """Turned back, every member carries the same n = 1 error, a
        speed bias or crab angle, so no grid and no reducer removes it."""
        truth, starts, spectrum = case
        c1 = {1: next(iter(spectrum.values()))}
        model = HarmonicErrorModel(truth, starts, c1)
        want = truth + [harmonic_residual_ref(v, c1, 1) for v in truth]
        for k in range(1, 9):
            for reducer in ("mean", "median"):
                got = sn.rae_estimate(zero_windows(len(starts)), starts, model,
                                      sn.RaeConfig(k=k, reducer=reducer)).v
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _ref_stack(windows, starts, model, cfg, v_max):
    """rae_window_ref over every window, stacked like ``RaeResult``."""
    angles = ensemble_angles(cfg)
    rows = [rae_window_ref(w, s, model, angles, cfg.reducer, v_max)
            for w, s in zip(windows, starts)]
    return (np.array([r[0] for r in rows]), sum(r[1] for r in rows),
            sum(r[2] for r in rows), np.array([r[3] for r in rows]))


_ENSEMBLES = st.builds(
    sn.RaeConfig,
    k=st.integers(1, 8),
    reducer=st.sampled_from(["median", "mean"]),
)


class TestMatchesPerWindowReference:
    @settings(max_examples=60, deadline=None)
    @given(cfg=_ENSEMBLES, stride=st.sampled_from([1, 7, 16, 64]),
           noise=st.sampled_from([0.0, 0.03]), rng_seed=st.integers(0, 5),
           bias=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
           inject=st.lists(st.tuples(st.integers(0, 136), st.integers(0, 7),
                                     st.booleans()), max_size=12))
    def test_oracle_is_bit_equal(self, cfg, stride, noise, rng_seed, bias, inject):
        traj = line_trajectory(speed=1.5, n_frames=201, heading=0.4)
        oracle = sn.OracleVelocityEstimator(
            traj, sn.OracleConfig(bias=bias, noise_sigma=noise, seed=rng_seed))
        starts = np.arange(0, 201 - 64, stride)
        angles = ensemble_angles(cfg)
        # (window index, member index, NaN or 10x) -> (start, angle, NaN or 10x)
        keys = [(int(starts[i % len(starts)]), angles[k % cfg.k], is_nan)
                for i, k, is_nan in inject]
        model = _Injected(oracle, nan=[(s, a) for s, a, n in keys if n],
                          fast=[(s, a) for s, a, n in keys if not n])
        windows = zero_windows(len(starts))
        try:
            ref = _ref_stack(windows, starts, model, cfg, 2.0)
        except sn.NonFiniteEstimateError as exc:
            with pytest.raises(sn.NonFiniteEstimateError,
                               match=f"non-finite for window {str(exc).split()[-1]}$"):
                sn.rae_estimate(windows, starts, model, cfg)
            return
        ens = sn.rae_estimate(windows, starts, model, cfg)
        assert np.array_equal(ens.v, ref[0])
        assert (ens.n_members_nonfinite, ens.n_windows_clamped) == ref[1:3]
        np.testing.assert_allclose(ens.member_spread, ref[3], rtol=1e-12, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(cfg=_ENSEMBLES, stride=st.sampled_from([1, 5, 8]), seed=st.integers(0, 100),
           scale=st.sampled_from([0.05, 5.0]))
    def test_dense_network_agrees_to_rounding(self, cfg, stride, seed, scale):
        """gemm over the block against one gemv per member.  Scale 0.05 is
        the benchmark's; at 5.0 every member is clamped."""
        net = sn.DenseVelocityNetwork(sn.make_random_bundle(tau=8, hidden=(16,), seed=seed,
                                                            scale=scale))
        rng = np.random.default_rng(seed)
        n = 150
        hacf = rng.normal(size=(2, n, 3))
        windows = sn.make_windows(hacf, tau=8, stride=stride)
        starts = stride * np.arange(len(windows))
        ref = _ref_stack(windows, starts, net, cfg, 2.0)
        ens = sn.rae_estimate(windows, starts, net, cfg)
        bound = 1e-12 * np.linalg.norm(ref[0], axis=1)
        if cfg.reducer == "median":
            # the geometric median stops within _GM_RTOL of the harmonic
            # mean member distance (at most the spread) of its optimum, so
            # members that differ by rounding may move it by twice that
            bound += 2 * _GM_RTOL * ref[3]
        assert np.all(np.linalg.norm(ens.v - ref[0], axis=1) <= bound)
        assert (ens.n_members_nonfinite, ens.n_windows_clamped) == ref[1:3]
