"""Tests for the mount model, item observation, clustering, and captions."""

import json
import logging
import sys
import time

import numpy as np
import pytest

import sweepnav as sn
from sweepnav.metrics import AlignmentResult
from sweepnav.object_map import (
    CaptionRecord,
    CaptionServiceConfig,
    DepthRaster,
    HttpCaptioner,
    ItemCluster,
    ItemObservation,
    MapConfig,
    center_region,
    cluster_items,
    evaluate_map,
    fetch_captions,
    load_captions,
    load_items_csv,
    load_raster,
    normalize_name,
    observe_items,
    save_captions,
    save_items_csv,
    save_map,
    save_raster,
)
from sweepnav.trajectory import CaptureEvent, Pose2

from .oracles import project_ref, same_bits, world_to_camera_ref

IDENTITY = Pose2(0.0, 0.0, 0.0, 0.0)


def _raster(depth, focal=40.0, cx=None, cy=None):
    depth = np.asarray(depth, dtype=float)
    h, w = depth.shape
    return DepthRaster(w, h, depth,
                       focal,
                       cx if cx is not None else (w - 1) / 2.0,
                       cy if cy is not None else (h - 1) / 2.0)


def _uniform_raster(value=2.0, w=9, h=9, focal=4.0):
    return _raster(np.full((h, w), value), focal=focal)


def _point(depth, pose=IDENTITY, cfg=None, w=9, h=9):
    """The one observation point of a captioned raster of constant ``depth``."""
    raster = _uniform_raster(depth, w=w, h=h)
    (obs,) = observe_items(CaptionRecord("img_000000", 0, ("milk",)), raster, pose, cfg)
    return obs.point


class TestFrameChain:
    """The principal ray from the camera mount: camera -> robot -> world."""

    def test_camera_to_robot_defaults(self):
        """The default mount sits over the robot origin, 0.3 m up."""
        np.testing.assert_allclose(_point(2.0), [2.0, 0.0, 0.3], atol=1e-12)

    def test_camera_axes_map_to_robot_axes(self):
        """The camera's Z axis runs along the heading and its Y axis points
        down: the point sits at camera (0, 0, depth) for any pose."""
        rng = np.random.default_rng(10)
        for _ in range(20):
            pose = Pose2(0.0, *rng.uniform(-5.0, 5.0, 2), rng.uniform(-np.pi, np.pi))
            cfg = MapConfig(mount_height=rng.uniform(0.0, 1.0),
                            mount_forward=rng.uniform(-0.3, 0.3))
            depth = rng.uniform(0.5, 4.5)
            cam = world_to_camera_ref(_point(depth, pose, cfg), pose, cfg)
            np.testing.assert_allclose(cam, [[0.0, 0.0, depth]], atol=1e-12)

    def test_mount_forward_offset(self):
        cfg = MapConfig(mount_forward=0.15)
        np.testing.assert_allclose(_point(2.0, cfg=cfg), [2.15, 0.0, 0.3], atol=1e-12)

    def test_robot_to_world_quarter_turn(self):
        pose = Pose2(0.0, 1.0, -2.0, np.pi / 2)
        np.testing.assert_allclose(pose.ahead(2.0), [1.0, 0.0], atol=1e-12)
        cfg = MapConfig(mount_forward=0.5)
        np.testing.assert_allclose(_point(2.0, pose, cfg), [1.0, 0.5, 0.3], atol=1e-12)

    def test_world_to_camera_inverts_chain(self):
        cfg = MapConfig(mount_forward=0.1)
        pose = Pose2(3.0, 1.2, -0.7, 0.6)
        back = world_to_camera_ref(_point(2.5, pose, cfg), pose, cfg)
        np.testing.assert_allclose(back, [[0.0, 0.0, 2.5]], atol=1e-12)

    def test_mount_height_outside_indoor_band_refused(self):
        """Every point sits at the mount's height, so the indoor band
        [0, 3] m is a rule on the mount, ends included."""
        for height in (0.0, 3.0):
            assert MapConfig(mount_height=height).mount_height == height
        for height in (-0.1, 3.5):
            with pytest.raises(ValueError, match=r"^mount_height must be within \[0, 3\] m$"):
                MapConfig(mount_height=height)


class TestUnproject:
    """``observe_items`` lifts the central box's median depth along the
    principal ray."""

    def test_center_pixel_lands_ahead_at_mount_height(self):
        depth = np.zeros((9, 9))
        depth[4, 4] = 2.0
        raster = _raster(depth, focal=4.0)
        (obs,) = observe_items(CaptionRecord("img_000000", 0, ("milk",)), raster, IDENTITY)
        np.testing.assert_allclose(obs.point, [2.0, 0.0, 0.3], atol=1e-12)

    def test_quarter_turn_pose_swings_point_to_plus_y(self):
        pose = Pose2(0.0, 0.0, 0.0, np.pi / 2)
        np.testing.assert_allclose(_point(2.0, pose), [0.0, 2.0, 0.3], atol=1e-12)

    def test_zero_depth_pixels_skipped(self):
        """Zero depth marks an invalid pixel; it never pulls the median."""
        depth = np.full((9, 9), 2.0)
        depth[3:5, 3:5] = [[0.0, 2.0], [2.0, 0.0]]
        raster = _raster(depth, focal=4.0)
        (obs,) = observe_items(CaptionRecord("img_000000", 0, ("milk",)), raster, IDENTITY)
        np.testing.assert_allclose(obs.point, [2.0, 0.0, 0.3], atol=1e-12)

    def test_all_invalid_region_gives_empty_result(self):
        """Only the central box counts: valid depth outside it is ignored."""
        depth = np.full((9, 9), 2.0)
        depth[3:5, 3:5] = 0.0
        raster = _raster(depth, focal=4.0)
        assert observe_items(CaptionRecord("img_000000", 0, ("milk",)), raster, IDENTITY) == []

    def test_pixel_round_trip(self):
        """The point projects onto the principal point at its depth, and
        ``observe_items`` returns the bits of the camera -> robot -> world
        sums at ``mount_forward`` 0.12."""
        rng = np.random.default_rng(11)
        raster = DepthRaster(64, 48, np.zeros((48, 64)), 40.0, 31.5, 23.5)
        pose = Pose2(3.0, 1.2, -0.7, 0.6)
        cfg = MapConfig(mount_forward=0.12)
        for _ in range(25):
            d = float(rng.uniform(0.5, 4.5))
            world = _point(d, pose, cfg, w=64, h=48)
            uu, vv, zz = project_ref(raster, world, pose, cfg)
            np.testing.assert_allclose([uu[0], vv[0]], [31.5, 23.5], atol=1e-9)
            np.testing.assert_allclose(zz[0], d, atol=1e-9)
            reach = d + cfg.mount_forward
            expected = [np.cos(pose.yaw) * reach - np.sin(pose.yaw) * 0.0 + pose.x,
                        np.sin(pose.yaw) * reach + np.cos(pose.yaw) * 0.0 + pose.y,
                        cfg.mount_height]
            assert same_bits(world, np.array(expected))

    def test_rigid_motion_equivariance(self):
        """Moving the capture pose by a rigid transform moves the
        observation by exactly that transform."""
        rng = np.random.default_rng(12)
        depth = rng.uniform(0.5, 4.0, (12, 16))
        raster = _raster(depth, focal=10.0)
        caption = CaptionRecord("img_000000", 0, ("milk",))
        cfg = MapConfig(mount_forward=0.2)
        pose = Pose2(0.0, 0.4, -0.2, 0.3)
        (base,) = observe_items(caption, raster, pose, cfg)
        dth, dx, dy = 0.7, 10.0, -5.0
        c, s = np.cos(dth), np.sin(dth)
        moved_pose = Pose2(0.0, c * pose.x - s * pose.y + dx,
                           s * pose.x + c * pose.y + dy,
                           sn.wrap_angle(pose.yaw + dth))
        (moved,) = observe_items(caption, raster, moved_pose, cfg)
        expected_xy = np.array([[c, -s], [s, c]]) @ base.point[:2] + [dx, dy]
        np.testing.assert_allclose(moved.point[:2], expected_xy, atol=1e-9)
        assert moved.point[2] == base.point[2]


class TestCenterRegion:
    def test_fraction_of_each_side(self):
        raster = DepthRaster(100, 80, np.zeros((80, 100)), 50.0, 49.5, 39.5)
        assert center_region(raster, 0.2) == (40, 32, 60, 48)

    def test_full_fraction_covers_raster(self):
        raster = _uniform_raster(w=6, h=4)
        assert center_region(raster, 1.0) == (0, 0, 6, 4)

    def test_tiny_raster_keeps_one_pixel(self):
        raster = _uniform_raster(w=3, h=3)
        assert center_region(raster, 0.2) == (1, 1, 2, 2)


class TestNormalizeName:
    def test_lowercase_and_whitespace(self):
        assert normalize_name("  Milk   Carton ") == "milk carton"

    def test_punctuation_becomes_space(self):
        assert normalize_name("Coca-Cola!!") == "coca cola"

    def test_unicode_compose(self):
        decomposed = "Café Latte"
        composed = "Café Latte"
        assert normalize_name(decomposed) == normalize_name(composed) == "café latte"

    def test_empty_after_cleanup(self):
        assert normalize_name("!!! ...") == ""


class TestObserveItems:
    def test_items_share_the_median_depth_ray(self):
        raster = _uniform_raster(2.0)
        caption = CaptionRecord("img_000010", 10, ("Milk", "Juice Box"))
        obs = observe_items(caption, raster, IDENTITY)
        assert [o.name for o in obs] == ["milk", "juice box"]
        for o in obs:
            np.testing.assert_allclose(o.point, [2.0, 0.0, 0.3], atol=1e-12)
            assert o.image_id == "img_000010"

    def test_median_ignores_out_of_band_depths(self):
        depth = np.full((9, 9), 2.0)
        depth[4, 4] = 0.1  # below DEPTH_MIN, must not drag the median
        depth[4, 5] = 90.0  # beyond DEPTH_MAX
        raster = _raster(depth, focal=4.0)
        obs = observe_items(CaptionRecord("img_000001", 1, ("soap",)), raster, IDENTITY)
        np.testing.assert_allclose(obs[0].point, [2.0, 0.0, 0.3], atol=1e-12)

    def test_no_valid_depth_skips_with_log(self, caplog):
        raster = _uniform_raster(0.0)
        caption = CaptionRecord("img_000002", 2, ("soap",))
        with caplog.at_level(logging.WARNING, logger="sweepnav.object_map"):
            obs = observe_items(caption, raster, IDENTITY)
        assert obs == []
        assert "no valid depth" in caplog.text

    def test_unnameable_item_skipped(self, caplog):
        raster = _uniform_raster(2.0)
        caption = CaptionRecord("img_000003", 3, ("???", "soap"))
        with caplog.at_level(logging.WARNING, logger="sweepnav.object_map"):
            obs = observe_items(caption, raster, IDENTITY)
        assert [o.name for o in obs] == ["soap"]
        assert "empty after normalization" in caplog.text


class TestClusterItems:
    def _obs(self, name, x, y, z, image_id="img_000000"):
        return ItemObservation(name, np.array([x, y, z]), image_id)

    def test_nearby_observations_merge_to_centroid(self):
        obs = [
            self._obs("milk", 0.0, 0.0, 1.0),
            self._obs("milk", 0.2, 0.0, 1.0),
            self._obs("milk", 0.1, 0.3, 1.0),
        ]
        clusters = cluster_items(obs)
        assert len(clusters) == 1
        cluster = clusters[0]
        assert cluster.name == "milk"
        assert cluster.n_observations == 3
        np.testing.assert_allclose(cluster.centroid, [0.1, 0.1, 1.0], atol=1e-12)
        np.testing.assert_allclose(cluster.spread, np.sqrt(0.08 / 3), atol=1e-12)

    def test_distant_observations_stay_separate(self):
        obs = [self._obs("milk", 0.0, 0.0, 1.0), self._obs("milk", 10.0, 0.0, 1.0)]
        clusters = cluster_items(obs)
        assert len(clusters) == 2

    def test_names_never_merge(self):
        obs = [self._obs("milk", 0.0, 0.0, 1.0), self._obs("juice", 0.0, 0.0, 1.0)]
        clusters = cluster_items(obs)
        assert sorted(c.name for c in clusters) == ["juice", "milk"]

    def test_single_linkage_chains(self):
        obs = [self._obs("milk", 1.4 * i, 0.0, 1.0) for i in range(3)]
        clusters = cluster_items(obs)
        assert len(clusters) == 1
        assert clusters[0].n_observations == 3

    def test_order_independent(self):
        rng = np.random.default_rng(13)
        obs = [self._obs("milk", *rng.uniform(-4, 4, 3)) for _ in range(12)]
        obs += [self._obs("soap", *rng.uniform(-4, 4, 3)) for _ in range(7)]
        a = cluster_items(obs)
        shuffled = list(obs)
        rng.shuffle(shuffled)
        b = cluster_items(shuffled)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.name == cb.name
            assert np.array_equal(ca.centroid, cb.centroid)
            assert ca.n_observations == cb.n_observations

    def test_empty_input(self):
        assert cluster_items([]) == []


class TestEvaluateMap:
    def _cluster(self, name, x, y, z, n=1):
        return ItemCluster(name, np.array([x, y, z]), n, 0.0)

    def test_identical_map_scores_zero(self):
        clusters = [self._cluster("milk", 1.0, 2.0, 1.0)]
        report = evaluate_map(clusters, {"milk": np.array([1.0, 2.0, 1.0])})
        assert report.mean_error == 0.0
        assert report.n_matched == 1
        assert report.unmatched_gt == ()
        assert report.unmatched_est == ()

    def test_planar_distance_only(self):
        clusters = [self._cluster("milk", 3.0, 4.0, 2.5)]
        report = evaluate_map(clusters, {"milk": np.array([0.0, 0.0, 0.0])})
        assert report.per_item["milk"] == 5.0

    def test_unmatched_names_listed(self):
        clusters = [self._cluster("milk", 0.0, 0.0, 1.0),
                    self._cluster("ghost", 0.0, 0.0, 1.0)]
        gt = {"milk": np.zeros(3), "soap": np.ones(3)}
        report = evaluate_map(clusters, gt)
        assert report.unmatched_gt == ("soap",)
        assert report.unmatched_est == ("ghost",)

    def test_no_shared_names_rejected(self):
        clusters = [self._cluster("milk", 0.0, 0.0, 1.0)]
        with pytest.raises(ValueError, match="no item names shared"):
            evaluate_map(clusters, {"soap": np.zeros(3)})

    def test_largest_cluster_represents_name(self):
        clusters = [
            self._cluster("milk", 50.0, 0.0, 1.0, n=1),
            self._cluster("milk", 1.0, 0.0, 1.0, n=4),
        ]
        report = evaluate_map(clusters, {"milk": np.zeros(3)})
        assert report.per_item["milk"] == 1.0

    def test_alignment_applied_to_centroids(self):
        clusters = [self._cluster("milk", 1.0, 0.0, 1.0)]
        alignment = AlignmentResult(1.0, 0.0, np.array([-1.0, 0.0]),
                                    np.ones(1, dtype=bool), 0.0)
        report = evaluate_map(clusters, {"milk": np.zeros(3)}, alignment)
        assert report.per_item["milk"] == 0.0


class TestRasterFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        depth = (rng.uniform(0.5, 4.0, (6, 8)) * 4).round() / 4  # exact in float32
        raster = _raster(depth, focal=33.5)
        path = tmp_path / "depth.dras"
        save_raster(raster, path)
        loaded = load_raster(path)
        assert (loaded.width, loaded.height) == (8, 6)
        assert loaded.focal_length == 33.5
        np.testing.assert_array_equal(loaded.depth, depth)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.dras"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError, match="bad magic"):
            load_raster(path)

    def test_version_checked(self, tmp_path):
        raster = _uniform_raster(1.0, w=2, h=2)
        path = tmp_path / "depth.dras"
        save_raster(raster, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version 99"):
            load_raster(path)

    def test_truncation_detected(self, tmp_path):
        raster = _uniform_raster(1.0, w=4, h=4)
        path = tmp_path / "depth.dras"
        save_raster(raster, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="expected"):
            load_raster(path)

    def test_depth_validation(self):
        with pytest.raises(ValueError, match="does not match"):
            DepthRaster(3, 2, np.zeros((3, 3)), 10.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            _raster(np.array([[-1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="focal_length"):
            DepthRaster(2, 2, np.zeros((2, 2)), 0.0, 0.5, 0.5)


class TestCaptionFiles:
    def test_round_trip(self, tmp_path):
        records = [
            CaptionRecord("img_000000", 0, ("milk", "juice")),
            CaptionRecord("img_000100", 100, ()),
        ]
        path = tmp_path / "captions.jsonl"
        save_captions(records, path)
        loaded = load_captions(path)
        assert loaded == records

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "captions.jsonl"
        path.write_text('{"image_id": "a", "frame": 0, "items": []}\n{"frame": 1}\n')
        with pytest.raises(ValueError, match=":2:"):
            load_captions(path)


class TestItemsCsv:
    def test_round_trip(self, tmp_path):
        items = {"milk": np.array([1.0, 2.0, 0.5]), "soap": np.array([-1.5, 0.0, 1.0])}
        path = tmp_path / "items.csv"
        save_items_csv(items, path)
        loaded = load_items_csv(path)
        assert sorted(loaded) == ["milk", "soap"]
        np.testing.assert_array_equal(loaded["milk"], items["milk"])

    def test_header_checked(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("nombre,x,y,z\nmilk,0,0,0\n")
        with pytest.raises(ValueError, match="expected header"):
            load_items_csv(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("name,x,y,z\nmilk,0,0\n")
        with pytest.raises(ValueError, match="expected 4 fields"):
            load_items_csv(path)

    def test_repeated_name_is_named_at_the_later_line(self, tmp_path):
        """The map is matched by normalized name, so "Milk!" repeats "milk"."""
        path = tmp_path / "items.csv"
        path.write_text("name,x,y,z\nmilk,0,0,0\nsoap,1,1,1\nMilk!,2,2,2\n")
        with pytest.raises(ValueError, match=rf"^{path}:4: item 'Milk!' repeats line 2$"):
            load_items_csv(path)


class TestMapFile:
    def test_round_trip(self, tmp_path):
        """One sorted-key JSON object per cluster, in cluster order."""
        clusters = [
            ItemCluster("milk", np.array([0.1, 0.2, 1.0]), 3, 0.05),
            ItemCluster("soap", np.array([-2.0, 4.0, 0.5]), 1, 0.0),
        ]
        path = tmp_path / "map.jsonl"
        save_map(clusters, path)
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"name": "milk", "x": 0.1, "y": 0.2, "z": 1.0, "n_obs": 3, "spread": 0.05},
            {"name": "soap", "x": -2.0, "y": 4.0, "z": 0.5, "n_obs": 1, "spread": 0.0},
        ]
        assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True)


class TestCaptioners:
    def _capture(self, frame):
        return CaptureEvent(frame, Pose2(frame / 50.0, 0.0, 0.0, 0.0), "distance")

    def test_fetch_orders_and_drops_missing(self):
        class FileCaptioner:
            items = {"img_000000": ["milk"], "img_000100": ["soap"]}

            def caption(self, image_id, frame):
                return self.items.get(image_id)

        captures = [self._capture(100), self._capture(55), self._capture(0)]
        records = fetch_captions(captures, FileCaptioner())
        assert [r.image_id for r in records] == ["img_000000", "img_000100"]
        assert [r.frame for r in records] == [0, 100]

    def test_fetch_order_stable_under_slow_workers(self):
        class SlowCaptioner:
            def caption(self, image_id, frame):
                import time as _time

                _time.sleep(0.002 * (5 - frame))
                return [f"item{frame}"]

        captures = [self._capture(f) for f in [3, 1, 4, 0, 2]]
        records = fetch_captions(captures, SlowCaptioner(), max_workers=4)
        assert [r.frame for r in records] == [0, 1, 2, 3, 4]
        assert records[0].items == ("item0",)

    def test_http_captioner_requires_endpoint(self):
        with pytest.raises(ValueError, match="endpoint is not configured"):
            HttpCaptioner(CaptionServiceConfig(endpoint=""))


class _FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class TestHttpRetry:
    def _captioner(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        return HttpCaptioner(CaptionServiceConfig(endpoint="http://caption.test/v1"))

    def test_transient_failures_then_success(self, monkeypatch):
        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append(url)
            if len(calls) < 3:
                return _FakeResponse(503)
            return _FakeResponse(200, {"items": ["milk"]})

        monkeypatch.setattr("requests.post", fake_post)
        captioner = self._captioner(monkeypatch)
        assert captioner.caption("img_000000", 0) == ["milk"]
        assert len(calls) == 3

    def test_rate_limit_is_retried(self, monkeypatch):
        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append(url)
            if len(calls) < 3:
                return _FakeResponse(429)
            return _FakeResponse(200, {"items": ["milk"]})

        monkeypatch.setattr("requests.post", fake_post)
        captioner = self._captioner(monkeypatch)
        assert captioner.caption("img_000000", 0) == ["milk"]
        assert len(calls) == 3

    def test_exhausted_retries_skip_image(self, monkeypatch, caplog):
        monkeypatch.setattr("requests.post",
                            lambda *a, **k: _FakeResponse(500))
        captioner = self._captioner(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="sweepnav.object_map"):
            assert captioner.caption("img_000000", 0) is None
        assert "after 3 attempts" in caplog.text

    def test_retries_are_requests_after_an_images_first(self, monkeypatch):
        """An image given up for any reason counts its retries too."""
        statuses = {"img_000000": [503, 200], "img_000001": [500, 429, 500],
                    "img_000002": [404], "img_000003": [200], "img_000004": [429, 200]}

        def fake_post(url, json=None, headers=None, timeout=None):
            status = statuses[json["image_ref"]].pop(0)
            return _FakeResponse(status, {"items": ["milk"]})

        monkeypatch.setattr("requests.post", fake_post)
        captioner = self._captioner(monkeypatch)
        results = [captioner.caption(image_id, 0) for image_id in list(statuses)]
        assert results == [["milk"], None, None, ["milk"], ["milk"]]
        assert all(not left for left in statuses.values())
        assert captioner.n_retries == 1 + 2 + 1

    def test_retry_counter_loses_no_update_across_threads(self, monkeypatch):
        """Many workers, switching often: every retry is counted."""
        n_images, first = 400, set()

        def fake_post(url, json=None, headers=None, timeout=None):
            image = json["image_ref"]
            if image not in first:  # each image is handled by one thread
                first.add(image)
                return _FakeResponse(503)
            return _FakeResponse(200 if int(image[4:]) % 3 else 500, {"items": []})

        monkeypatch.setattr("requests.post", fake_post)
        captioner = self._captioner(monkeypatch)
        captures = [CaptureEvent(f, IDENTITY, "distance") for f in range(n_images)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            records = fetch_captions(captures, captioner, max_workers=16)
            assert time.perf_counter() - start < 60
        finally:
            sys.setswitchinterval(interval)
        n_failed = len(range(0, n_images, 3))
        assert len(records) == n_images - n_failed
        assert captioner.n_retries == n_images + n_failed  # failed ones retry twice

    def test_client_error_not_retried(self, monkeypatch):
        calls = []

        def fake_post(*a, **k):
            calls.append(1)
            return _FakeResponse(404)

        monkeypatch.setattr("requests.post", fake_post)
        captioner = self._captioner(monkeypatch)
        assert captioner.caption("img_000000", 0) is None
        assert len(calls) == 1

    def test_malformed_body_skipped(self, monkeypatch):
        monkeypatch.setattr("requests.post",
                            lambda *a, **k: _FakeResponse(200, {"wrong": 1}))
        captioner = self._captioner(monkeypatch)
        assert captioner.caption("img_000000", 0) is None

    @pytest.mark.parametrize("items", [["milk", 7], [None], "milk"])
    def test_items_not_a_list_of_strings_skipped(self, monkeypatch, caplog, items):
        monkeypatch.setattr("requests.post",
                            lambda *a, **k: _FakeResponse(200, {"items": items}))
        captioner = self._captioner(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="sweepnav.object_map"):
            assert captioner.caption("img_000000", 0) is None
        assert "malformed caption response" in caplog.text

    def test_bearer_token_from_environment(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(headers)
            return _FakeResponse(200, {"items": []})

        monkeypatch.setenv("SWEEPNAV_CAPTION_TOKEN", "sekret")
        monkeypatch.setattr("requests.post", fake_post)
        captioner = self._captioner(monkeypatch)
        assert captioner.caption("img_000000", 0) == []
        assert seen.get("Authorization") == "Bearer sekret"
