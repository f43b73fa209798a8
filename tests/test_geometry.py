"""Planar rotations, angle wrapping, np.hypot's layouts, and quaternion algebra."""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sweepnav as sn
from sweepnav import config, estimator, object_map, sim
from sweepnav import geometry as geo

from .oracles import (dataclass_twin, quat_from_rotvec_ref, quat_multiply_ref,
                      quat_normalize_ref, quat_rotate_ref, quat_to_matrix_ref, rot2_ref,
                      same_bits)


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


# ---------------------------------------------------------------------------
# Record classes: each behaves as its frozen dataclass twin


def _layers(dim_in=12, hidden=4, dim_out=2):
    return [estimator.Layer("dense", dim_in, hidden, np.ones((dim_in, hidden)), np.zeros(hidden)),
            estimator.Layer("relu"),
            estimator.Layer("dense", hidden, dim_out, np.ones((hidden, dim_out)),
                               np.zeros(dim_out))]


_POSE = sn.Pose2(1.0, 2.0, 3.0, 0.5)
_META = estimator.WeightsMeta(1, 50.0, True)
_T3 = np.arange(3) / 10
# record class -> (fields to build it with: every required one and some
# defaulted ones, each a value distinct from the other fields'; the
# changes to those fields that its __post_init__ refuses)
RECORDS = {
    sn.SimConfig: ({"room_width": 5.0, "speed": 0.4, "turn_model": "stop_and_turn"},
                   [{"room_width": 0.0}, {"row_spacing": 3.0},
                    {"room_width": 0.4, "row_spacing": 1.0}, {"speed": 0.0},
                    {"turn_model": "zigzag"}, {"n_items": -1}]),
    sn.MapConfig: ({"mount_height": 0.5, "mount_forward": 0.1}, [{"mount_height": 3.5}]),
    config.CaptionServiceConfig: ({"endpoint": "http://localhost:1", "max_workers": 2},
                                     [{"max_workers": 0}, {"retries": 0}]),
    sn.OracleConfig: ({"bias": [0.1, 0.2], "noise_sigma": 0.01, "seed": 3},
                      [{"bias": (1.0,)}, {"noise_sigma": -1.0}, {"seed": -1}]),
    sn.RaeConfig: ({"k": 3, "reducer": "mean"}, [{"k": 0}, {"reducer": "mode"}]),
    sn.RefineConfig: ({"epochs": 5, "learning_rate": 0.1, "hidden": 8},
                      [{"epochs": 0}, {"learning_rate": 0.0}, {"hidden": 0}]),
    sn.Pose2: ({"t": 1.0, "x": 2.0, "y": 3.0, "yaw": 7.0}, [{"x": np.nan}]),
    sn.Trajectory: ({"t": _T3, "xy": np.arange(6.0).reshape(3, 2), "yaw": [0.0, 1.0, 7.0],
                     "frame_rate": 10.0},
                    [{"xy": np.zeros((3, 3))}, {"yaw": [0.0, np.nan, 1.0]},
                     {"t": [0.0, 0.2, 0.1]}, {"frame_rate": 0.0}, {"frame_rate": 5.0}]),
    sn.CaptureEvent: ({"frame": 3, "pose": _POSE, "trigger": "distance"}, []),
    sn.ImuSequence: ({"t": _T3, "acc": np.ones((3, 3)), "gyro": np.zeros((3, 3))},
                     [{"acc": np.ones((2, 3))}, {"t": [0.0, np.nan, 0.2]}, {"t": [-1.0, 0.0, 1.0]},
                      {"gyro": [[0.0] * 3, [np.inf] * 3, [0.0] * 3]}, {"t": [0.0, 0.2, 0.1]}]),
    sn.OrientationSequence: ({"t": [0.0, 0.1], "heading": [0.0, 0.5]},
                             [{"heading": [0.0, 0.5, 1.0]}, {"mount": (1.0, 0.0, 0.0)},
                              {"t": [0.0, np.nan]}, {"heading": [np.inf, 0.0]},
                              {"mount": (2.0, 0.0, 0.0, 0.0)}]),
    estimator.WeightsMeta: ({"tau": 8, "sample_rate_hz": 50.0, "gravity_subtracted": True},
                               []),
    estimator.Layer: ({"kind": "dense", "rows": 2, "cols": 3, "weights": np.ones((2, 3)),
                          "bias": np.zeros(3)}, []),
    sn.WeightsBundle: ({"meta": _META, "layers": _layers()},
                       [{"layers": []}, {"layers": _layers()[1:]},
                        {"layers": [*_layers(), estimator.Layer("conv")]},
                        {"layers": _layers(dim_in=13)}, {"layers": _layers(dim_out=3)}]),
    sn.CorrectionParams: ({"r": np.zeros(3), "l": np.ones((3, 2))},
                          [{"l": np.ones((2, 2))}, {"r": [4.0, 0.0, 0.0]}]),
    sn.LossBreakdown: ({"total": 1.0, "loop": 0.5, "rot": 0.25, "smooth": 0.125}, []),
    sn.AlignmentResult: ({"scale": 1.0, "rotation": 0.1, "translation": [1.0, 2.0],
                          "inliers": [1, 0], "rmse": 0.3}, []),
    sn.EvalReport: ({"rte": 0.1, "rte_metric": 0.2, "rre": 0.3, "coverage": 1.0,
                     "n_pairs": 10, "n_inliers": 8}, []),
    sn.DepthRaster: ({"width": 3, "height": 2, "depth": np.ones((2, 3)), "focal_length": 100.0,
                      "cx": 1.5, "cy": 1.0},
                     [{"depth": np.ones((3, 2))}, {"focal_length": 0.0},
                      {"depth": [[1.0, -1.0, 0.0], [1.0] * 3]},
                      {"depth": [[1.0, np.inf, 0.0], [1.0] * 3]}]),
    sn.CaptionRecord: ({"image_id": "img_0001", "frame": 1, "items": ("milk",)}, []),
    sn.ItemObservation: ({"name": "milk", "point": [1.0, 2.0, 0.3], "image_id": "img_0001"},
                         [{"point": [1.0, 2.0]}, {"point": [1.0, np.nan, 0.3]}]),
    sn.ItemCluster: ({"name": "milk", "centroid": [1.0, 2.0, 3.0], "n_observations": 2,
                      "spread": 0.1}, []),
    object_map.MapEvalReport: ({"per_item": {"milk": 0.1}, "mean_error": 0.1,
                                   "std_error": 0.0, "n_matched": 1, "unmatched_gt": (),
                                   "unmatched_est": ("soap",)}, []),
    sim._Seg: ({"kind": "line", "duration": 2.0, "x0": 0.5, "y0": 0.25, "yaw0": 0.125,
                   "dx": 1.0}, []),
}


def _outcome(fn):
    """What ``fn()`` returns, or the type and text of what it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


def _same(record_outcome, twin_outcome) -> bool:
    """Equal outcomes, where a dataclass's ``FrozenInstanceError`` stands
    for the ``AttributeError`` it subclasses."""
    if twin_outcome[0] is dataclasses.FrozenInstanceError:
        twin_outcome = (AttributeError, twin_outcome[1])
    return record_outcome == twin_outcome


def test_every_record_class_is_compared():
    modules = [importlib.import_module(f"sweepnav.{path.stem}")
               for path in Path(geo.__file__).parent.glob("*.py")]
    records = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__init__.__qualname__.startswith("_record.")}
    assert records == set(RECORDS) and len(RECORDS) == 24


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_frozen_dataclass(cls):
    twin = dataclass_twin(cls)
    given, refused = RECORDS[cls]
    fields = geo._record_fields(cls)
    assert list(fields) == [f.name for f in dataclasses.fields(twin)]
    assert {name: d for name, d in fields.items() if d is not geo._REQUIRED} == {
        f.name: f.default for f in dataclasses.fields(twin) if f.default is not dataclasses.MISSING}

    # by position, by keyword, and with the defaults
    full = [given.get(name, default) for name, default in fields.items()]
    required = {name: given[name] for name, d in fields.items() if d is geo._REQUIRED}
    built = [(cls(*full), twin(*full)), (cls(**given), twin(**given)),
             (cls(**required), twin(**required))]
    for record, reference in built:
        assert repr(record) == repr(reference)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(reference))
    record, reference = built[0]
    assert _outcome(lambda: record == cls(*full)) == _outcome(lambda: reference == twin(*full))
    assert _outcome(lambda: record != cls(*full)) == _outcome(lambda: reference != twin(*full))
    assert (record == "other", record != "other") == (False, True)

    # immutability, of a field and of any other name
    first = next(iter(fields))
    for name in (first, "other"):
        assert _same(_outcome(lambda: setattr(record, name, 1)),
                     _outcome(lambda: setattr(reference, name, 1)))
        assert _same(_outcome(lambda: delattr(record, name)),
                     _outcome(lambda: delattr(reference, name)))
    assert repr(record) == repr(reference)

    # missing, unknown, repeated and surplus arguments
    calls = [lambda c: c(**given, nope=1), lambda c: c(full[0], **{first: full[0]}),
             lambda c: c(*full, None)]
    if required:
        calls.append(lambda c: c())
    for call in calls:
        assert _outcome(lambda: call(cls))[0] is _outcome(lambda: call(twin))[0] is TypeError

    # each rule of __post_init__
    for change in refused:
        outcome = _outcome(lambda: cls(**{**given, **change}))
        assert issubclass(outcome[0], ValueError), change
        assert outcome == _outcome(lambda: twin(**{**given, **change})), change
