"""Planar rotations, angle wrapping, np.hypot's layouts, and quaternion algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sweepnav import geometry as geo

from .oracles import (quat_from_rotvec_ref, quat_multiply_ref, quat_normalize_ref,
                      quat_rotate_ref, quat_to_matrix_ref, rot2_ref, same_bits)


class TestWrapAngle:
    def test_range_is_half_open(self):
        """Wrapped angles land in (-pi, pi]; pi maps to pi, -pi to pi."""
        assert geo.wrap_angle(np.pi) == pytest.approx(np.pi)
        assert geo.wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert geo.wrap_angle(0.0) == 0.0
        rng = np.random.default_rng(7)
        th = rng.uniform(-50, 50, 1000)
        w = geo.wrap_angle(th)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)

    def test_period_invariance(self):
        """Adding full turns never changes the wrapped value."""
        rng = np.random.default_rng(11)
        th = rng.uniform(-np.pi, np.pi, 200)
        for k in (-3, -1, 1, 4):
            np.testing.assert_allclose(
                geo.wrap_angle(th + 2.0 * np.pi * k), geo.wrap_angle(th), atol=1e-9
            )

    def test_known_overflow(self):
        """An angle just past pi comes back around negative."""
        np.testing.assert_allclose(geo.wrap_angle(6.2), 6.2 - 2.0 * np.pi, atol=1e-12)


class TestPlanarRotation:
    def test_matches_reference_matrix(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-np.pi, np.pi, 25):
            np.testing.assert_allclose(geo.rot2(theta), rot2_ref(theta), atol=1e-15)

    def test_rotate_xy_quarter_turn(self):
        np.testing.assert_allclose(
            geo.rotate_xy(np.array([1.0, 0.0]), np.pi / 2), [0.0, 1.0], atol=1e-12
        )

    def test_rotate_xy_batch(self):
        """Row-wise rotation agrees with one-at-a-time rotation."""
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(10, 2))
        theta = 0.7
        batch = geo.rotate_xy(pts, theta)
        for i in range(len(pts)):
            np.testing.assert_allclose(batch[i], rot2_ref(theta) @ pts[i], atol=1e-12)

    def test_rotate_xyz_preserves_z(self):
        v = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 5.0]])
        out = geo.rotate_xyz_about_z(v, 1.3)
        np.testing.assert_allclose(out[:, 2], v[:, 2])
        np.testing.assert_allclose(out[:, :2], geo.rotate_xy(v[:, :2], 1.3), atol=1e-12)


class TestQuaternions:
    def test_multiply_matches_matrix_product(self):
        """Quaternion composition and matrix composition commute."""
        rng = np.random.default_rng(13)
        for _ in range(20):
            qa = quat_normalize_ref(rng.normal(size=4))
            qb = quat_normalize_ref(rng.normal(size=4))
            lhs = geo.quats_to_matrices(quat_multiply_ref(qa, qb)[None])[0]
            ma, mb = geo.quats_to_matrices(np.array([qa, qb]))
            rhs = ma @ mb
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rotate_matches_matrix(self):
        rng = np.random.default_rng(17)
        q = quat_normalize_ref(rng.normal(size=4))
        v = rng.normal(size=3)
        np.testing.assert_allclose(
            quat_rotate_ref(q, v), geo.quats_to_matrices(q[None])[0] @ v, atol=1e-12
        )

    def test_axis_angle_quarter_turn_about_x(self):
        """A +90 degree roll about x sends the y axis to z."""
        q = quat_from_rotvec_ref([np.pi / 2, 0.0, 0.0])
        np.testing.assert_allclose(quat_rotate_ref(q, [0.0, 1.0, 0.0]), [0, 0, 1], atol=1e-12)

    def test_conjugate_inverts_unit_rotation(self):
        rng = np.random.default_rng(19)
        q = quat_normalize_ref(rng.normal(size=4))
        v = rng.normal(size=3)
        np.testing.assert_allclose(
            quat_rotate_ref(q * [1, -1, -1, -1], quat_rotate_ref(q, v)), v, atol=1e-12
        )

    def test_row_norms_match_linalg_norm(self):
        rng = np.random.default_rng(37)
        for d in (2, 3, 4):
            a = rng.normal(size=(500, d)) * rng.choice([1e-14, 1e-3, 1.0, 1e3], (500, 1))
            assert same_bits(geo.row_norms(a), np.array([np.linalg.norm(r) for r in a]))

    def test_batched_matrices_match_scalar(self):
        rng = np.random.default_rng(29)
        qs = np.array([quat_normalize_ref(rng.normal(size=4)) for _ in range(6)])
        mats = geo.quats_to_matrices(qs)
        for i in range(6):
            np.testing.assert_allclose(mats[i], quat_to_matrix_ref(qs[i]), atol=1e-12)


# values where a median can go wrong: both zeros, both infinities, NaNs
# of either sign, ties
_EDGE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan, -np.nan])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestMedian:
    @given(st.lists(st.one_of(_EDGE, st.floats()), min_size=1, max_size=12))
    def test_equals_np_median_bit_for_bit(self, values):
        """n = 1, 2, odd and even; NaN anywhere propagates as np.median's."""
        a = np.array(values)
        assert same_bits(geo.median(a), np.median(a))
        assert type(geo.median(a)) is type(np.median(a))

    @pytest.mark.parametrize("values", [[-0.0], [-0.0, -0.0], [0.0, -0.0], [np.inf, -np.inf],
                                        [1e308, 1e308], [-np.nan, 1.0, np.nan]])
    def test_edge_cases(self, values):
        assert same_bits(geo.median(np.array(values)), np.median(np.array(values)))


# where hypot can go wrong: zeros of either sign, subnormals, the smallest
# normal and its neighbours in scale, the largest doubles, infinities, NaNs
_HYPOT_EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.0 ** -1024, 2.0 ** -1023,
               2.2250738585072014e-308, 1e-162, 1.0, -1.0, 3.0, 4.0, 1e154,
               8.98846567431158e307, 1.7976931348623157e308, np.inf, -np.inf, np.nan]


class TestNpHypotLayouts:
    """The per-window geometric-median reference (``tests/oracles.py``)
    calls ``np.hypot`` on Python floats, and the batched median in
    ``rae`` calls it on arrays; both must give the same bits."""

    @staticmethod
    def _check(x, y):
        with np.errstate(over="ignore"):
            ref = np.array([np.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])
            xy = np.column_stack([x, y])
            layouts = [np.hypot(x, y),  # contiguous
                       np.hypot(xy[:, 0], xy[:, 1]),  # strided columns
                       *np.hypot(x[:, None], np.repeat(y[:, None], 2, axis=1)).T,  # broadcast
                       *np.hypot(np.repeat(x[:, None], 2, axis=1), y[:, None]).T]
        for got in layouts:
            assert same_bits(got, ref)

    def test_edge_values(self):
        x, y = np.meshgrid(_HYPOT_EDGE, _HYPOT_EDGE)
        self._check(x.ravel(), y.ravel())

    @pytest.mark.parametrize("scale", [1e-310, 1e-9, 1e-3, 1.0, 1e3, 1e9, 1e300])
    def test_random_pairs(self, scale):
        rng = np.random.default_rng(int(-np.log10(scale)) % 97)
        x = rng.normal(size=20000) * scale
        with np.errstate(over="ignore"):  # some of the 1e300 pairs overflow to inf
            y = x * rng.choice([1.0, -1.0, 0.5, 1e-8, 1e8, 0.0], size=len(x))
        y += rng.normal(size=len(x)) * scale
        self._check(x, y)
