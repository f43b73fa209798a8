"""End-to-end tests of the sweepnav command-line pipeline."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepnav.cli import _load_velocities, main

# Default 4 m x 2 m sweep at 1 m row spacing: items one row apart can
# never steal the image-center depth inside the 0.5-3 m caption band,
# and 0.5 m capture spacing lands in every item's approach window.
SMALL_ROOM = [
    "--set", "sim.n_items=4",
    "--set", "capture.distance_m=0.5",
]
NOISY = [
    "--set", "sim.acc_noise=0.05",
    "--set", "sim.gyro_noise=0.002",
]


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _manifest(ds):
    return json.loads((ds / "manifest.json").read_text())


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full simulate -> infer -> refine -> eval -> map -> plot run."""
    ds = tmp_path_factory.mktemp("cli") / "ds"
    for argv in [
        ["simulate", "--out", ds, "--seed", 0, *SMALL_ROOM, *NOISY],
        ["infer", "--dataset", ds],
        ["refine", "--dataset", ds, "--epochs", 30],
        ["eval", "--dataset", ds],
        ["map", "--dataset", ds, "--trajectory", "gt"],
        ["plot", "--dataset", ds],
    ]:
        assert run(*argv) == 0, f"stage failed: {argv[0]}"
    return ds


class TestPipelineArtifacts:
    def test_simulate_inventory(self, pipeline):
        for name in ["imu.csv", "gt_trajectory.csv", "orientations.csv",
                     "items.csv", "captions.jsonl", "gt_captures.jsonl",
                     "config.json", "run_meta_simulate.json"]:
            assert (pipeline / name).is_file(), name
        rasters = list((pipeline / "rasters").glob("img_*.dras"))
        assert len(rasters) > 5

    def test_manifest_names_every_stage_output(self, pipeline):
        manifest = _manifest(pipeline)
        for key in ["imu", "gt_trajectory", "orientations", "items", "captions",
                    "gt_captures", "rasters_dir", "est_trajectory", "velocities",
                    "captures", "refined_trajectory", "corrections",
                    "loss_history", "eval_grid_1.0", "residuals_grid_1.0",
                    "item_map", "map_eval", "plot"]:
            assert key in manifest, key

    def test_infer_outputs(self, pipeline):
        velocities = (pipeline / "velocities.csv").read_text().splitlines()
        assert velocities[0] == "frame,vx,vy"
        n_frames = len((pipeline / "gt_trajectory.csv").read_text().splitlines()) - 1
        assert len(velocities) == n_frames + 1
        captures = (pipeline / "captures.jsonl").read_text().splitlines()
        assert len(captures) > 5

    def test_refine_outputs_and_gap_metadata(self, pipeline):
        meta = json.loads((pipeline / "run_meta_refine.json").read_text())
        assert meta["epochs"] == 30
        assert meta["endpoint_gap_before_m"] >= 0.0
        assert meta["endpoint_gap_after_m"] >= 0.0
        history = (pipeline / "loss_history.csv").read_text().splitlines()
        assert history[0] == "epoch,total,loop,rot,smooth"
        assert len(history) == 32  # header + epochs + final eval
        totals = [float(line.split(",")[1]) for line in history[1:]]
        assert min(totals) <= totals[0]
        # loss_final is the loss of the corrections written, not of the last epoch
        if meta["identity_fallback"]:
            assert meta["best_epoch"] is None
        else:
            assert meta["loss_final"] == min(totals)
            assert meta["best_epoch"] == totals.index(min(totals))
        corrections = (pipeline / "corrections.jsonl").read_text().splitlines()
        n_frames = len((pipeline / "est_trajectory.csv").read_text().splitlines()) - 1
        assert len(corrections) == n_frames

    def test_eval_report_content(self, pipeline):
        report = json.loads((pipeline / "eval_grid_1.0.json").read_text())
        for key in ["rte", "rte_metric", "rre", "coverage", "n_pairs",
                    "grid_m", "trajectory", "alignment"]:
            assert key in report, key
        assert report["trajectory"] == "refined"
        assert report["coverage"] == 1.0
        residuals = (pipeline / "residuals_grid_1.0.csv").read_text().splitlines()
        assert residuals[0] == "frame,dx,dy,dist,yaw_err"
        assert len(residuals) == report["n_pairs"] + 1

    def test_map_outputs(self, pipeline):
        clusters = [json.loads(line) for line in
                    (pipeline / "item_map.jsonl").read_text().splitlines()]
        assert {c["name"] for c in clusters} == {"milk", "cereal", "soap", "coffee"}
        assert all(set(c) == {"name", "x", "y", "z", "n_obs", "spread"}
                   for c in clusters)
        report = json.loads((pipeline / "map_eval.json").read_text())
        assert report["n_matched"] == 4
        assert report["unmatched_gt"] == []
        assert report["mean_error"] <= 0.06 + 1e-9

    def test_plot_svg(self, pipeline):
        svg = (pipeline / "plot.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert svg.count("<text") >= 3  # gt, est, refined legends

    def test_eval_on_gt_against_itself_is_zero(self, pipeline):
        assert run("eval", "--dataset", pipeline, "--trajectory", "gt",
                   "--grid", 0.5) == 0
        report = json.loads((pipeline / "eval_grid_0.5.json").read_text())
        assert report["trajectory"] == "gt"
        assert report["rte"] < 1e-9
        assert report["rte_metric"] < 1e-9
        assert report["rre"] < 1e-9
        assert report["coverage"] == 1.0


class TestExitCodes:
    def test_missing_manifest_is_config_error(self, tmp_path, capsys):
        assert run("infer", "--dataset", tmp_path) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_invalid_room_rejected(self, tmp_path, capsys):
        assert run("simulate", "--out", tmp_path / "ds",
                   "--set", "sim.room_width=-1") == 2
        assert "must be positive" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        assert run("simulate", "--out", tmp_path / "ds", "--set", "nope=1") == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_network_estimator_requires_weights(self, pipeline, capsys):
        assert run("infer", "--dataset", pipeline, "--estimator", "network") == 2
        assert "estimator.weights" in capsys.readouterr().err

    def test_missing_weights_file_is_runtime_error(self, pipeline, capsys):
        assert run("infer", "--dataset", pipeline, "--estimator", "network",
                   "--set", "estimator.weights=/nonexistent/w.json") == 1
        assert "/nonexistent/w.json" in capsys.readouterr().err

    def test_http_captioner_requires_endpoint(self, pipeline, capsys):
        assert run("map", "--dataset", pipeline, "--captioner", "http") == 2
        assert "caption.endpoint" in capsys.readouterr().err

    def test_no_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])


class TestLoadVelocities:
    @staticmethod
    def _write(tmp_path, rows):
        path = tmp_path / "velocities.csv"
        path.write_text("frame,vx,vy\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
        return path

    def test_frames_in_any_order(self, tmp_path):
        held = _load_velocities(self._write(tmp_path, ["2,0.5,0.25", "0,1.0,2.0"]), 3)
        np.testing.assert_array_equal(held, [[1.0, 2.0], [0.0, 0.0], [0.5, 0.25]])

    def test_negative_frame_rejected(self, tmp_path):
        """Python's negative indexing would write it to the last frame."""
        path = self._write(tmp_path, ["0,1.0,0.0", "-1,1.0,0.0"])
        with pytest.raises(ValueError, match=r"velocities.csv:3: frame -1 outside 0\.\.2"):
            _load_velocities(path, 3)

    def test_frame_past_the_end_rejected(self, tmp_path):
        path = self._write(tmp_path, ["3,1.0,0.0"])
        with pytest.raises(ValueError, match=r"velocities.csv:2: frame 3 outside 0\.\.2"):
            _load_velocities(path, 3)

    def test_repeated_frame_rejected(self, tmp_path):
        path = self._write(tmp_path, ["1,1.0,0.0", "0,0.0,0.0", "1,2.0,0.0"])
        with pytest.raises(ValueError, match="velocities.csv:4: frame 1 repeats line 2"):
            _load_velocities(path, 3)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(
        st.builds("{},{!r},{!r}".format, st.integers(-3, 7), st.floats(), st.floats()),
        st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=12),
    ), max_size=8))
    def test_any_lines_load_cleanly_or_name_the_line(self, tmp_path, rows):
        """Arbitrary rows either load with every row in its own frame or
        raise a ValueError naming a line; never an IndexError or an
        overwritten frame."""
        n_frames = 5
        path = self._write(tmp_path, rows)
        try:
            held = _load_velocities(path, n_frames)
        except ValueError as exc:
            line = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
            assert line and 2 <= int(line[1]) <= len(rows) + 1, str(exc)
            return
        expected = np.zeros((n_frames, 2))
        written = set()
        for row in filter(str.strip, rows):
            frame, vx, vy = row.split(",")
            assert int(frame) not in written
            written.add(int(frame))
            expected[int(frame)] = (float(vx), float(vy))
        np.testing.assert_array_equal(held, expected)


@pytest.fixture(scope="module")
def bare_ds(tmp_path_factory):
    ds = tmp_path_factory.mktemp("bare") / "ds"
    assert run("simulate", "--out", ds, *SMALL_ROOM,
               "--set", "sim.n_items=0") == 0
    return ds


class TestBareDataset:
    def test_refine_before_infer_is_config_error(self, bare_ds, capsys):
        assert run("refine", "--dataset", bare_ds) == 2
        assert "est_trajectory" in capsys.readouterr().err

    def test_eval_before_infer_is_config_error(self, bare_ds, capsys):
        assert run("eval", "--dataset", bare_ds) == 2
        assert "est_trajectory" in capsys.readouterr().err

    def test_map_with_no_items_succeeds_empty(self, bare_ds, capsys):
        assert run("map", "--dataset", bare_ds, "--trajectory", "gt") == 0
        assert "0 clusters" in capsys.readouterr().out
        assert (bare_ds / "item_map.jsonl").read_text() == ""

    def test_items_csv_is_header_only(self, bare_ds):
        assert (bare_ds / "items.csv").read_text() == "name,x,y,z\n"


class TestDeterminism:
    def _run_chain(self, ds):
        for argv in [
            ["simulate", "--out", ds, "--seed", 7, *SMALL_ROOM, *NOISY],
            ["infer", "--dataset", ds],
            ["refine", "--dataset", ds, "--epochs", 5],
            ["eval", "--dataset", ds],
            ["map", "--dataset", ds, "--trajectory", "gt"],
            ["plot", "--dataset", ds],
        ]:
            assert run(*argv) == 0

    @staticmethod
    def _tree_bytes(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.startswith("run_meta")
        }

    def test_full_chain_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._run_chain(a)
        self._run_chain(b)
        ta, tb = self._tree_bytes(a), self._tree_bytes(b)
        assert set(ta) == set(tb)
        for name in ta:
            assert ta[name] == tb[name], f"{name} differs between reruns"
