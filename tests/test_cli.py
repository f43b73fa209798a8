"""End-to-end tests of the sweepnav command-line pipeline."""

import dataclasses
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepnav import estimator as est_mod
from sweepnav import trajectory
from sweepnav.geometry import rotate_xy
from sweepnav.cli import _load_velocities, _from_config, _resolve_config, build_parser, main
from sweepnav.config import DEFAULTS, SECTIONS, ConfigError, PipelineConfig

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


# sha256 of every primary output of the ``pipeline`` run (run_meta_*
# excluded): a change to any writer's bytes fails here.  The 42 rasters
# are folded into one digest of their "name sha256" lines.  Floats come
# from numpy, so another BLAS build may round differently.
PIPELINE_SHA256 = {
    "captions.jsonl": "a4f11c24ec49420b3403fb8efba5a74439909263ab25c49af8fcc8dc7ce1e3d7",
    "captures.jsonl": "b6837e5827db6ad87fb76f46c4bdcdc7598d165f32ec6058b475bccaabe1df1e",
    "config.json": "93ff86481f6ead59c2692cecfe4b64e30075c7d95453b2a85286489a8c30d9f7",
    "corrections.jsonl": "bdd47d450a9bc50209c90d82174b69584bd4560e4f2bf8f522d9430861f0dd06",
    "est_trajectory.csv": "1c3070bdc4e06a2425fc0d9013b7d136662357bbe3e97c9715da8e612f287d99",
    "eval_grid_1.0.json": "b08e67780da3fb2b053aa5e10cb4b442f97165e6b82fbce835529939e55326f9",
    "gt_captures.jsonl": "fd245f8a34366edca6ff25133f118dae302e13850aba3c81aaa343297d22ee16",
    "gt_trajectory.csv": "4d0ca03e1acc5bc5da72c04a207b91fc16203d2e3afdd17e19e1e1abdd47d65d",
    "imu.csv": "07af0aeabda4c0ee7ad5088b610cec005ce5c4e22bda74e47de62dab57c231db",
    "item_map.jsonl": "a311c64858da489e0fcbf608401848febd6e7ba5e382b4b40131720a8f66f354",
    "items.csv": "3c3d22a8708c3468a8f145b5ace0753a7aabc307e03ec9d8dbaf21660e9c9fec",
    "loss_history.csv": "850949d250303c34b92476ba1e3e5a97fff4593665a55c1de4f316686d37f77e",
    "manifest.json": "52f2b28bd5754187f854cebea101b3dc1c759738edd382d7eb6adf8ef303c519",
    "map_eval.json": "a39fe5f8642d7bea9691e0db7bf9fbf32972ce33c37efffe561d9855822cf4f9",
    "orientations.csv": "b3091441c6dc4626d155a4cf33f8e0e0d8345acf8c6dcd0f772524611e6226e2",
    "plot.svg": "ba4219e59963c8d9e90a80b6fb34aef3e833bce3bc5be924494074e036999ca8",
    "refined_trajectory.csv": "1c3070bdc4e06a2425fc0d9013b7d136662357bbe3e97c9715da8e612f287d99",
    "residuals_grid_1.0.csv": "4e2f9d1adfbe2ffec94dd527f4011b22757c025074a48207f2e73712205095dd",
    "velocities.csv": "7490776aca6e03a44488ab7b97c27b9024becc16270b47ca8edb565fc487a0b1",
    "rasters": "8d2a9cf997ee7f6deb95ab94ee62c42600af56a7a6cb83ace541688f470585a6",
}


def _sha256_tree(root):
    digests = {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(root.rglob("*"))
               if p.is_file() and not p.name.startswith("run_meta")}
    rasters = hashlib.sha256()
    for name in [n for n in digests if n.startswith("rasters/")]:
        rasters.update(f"{name} {digests.pop(name)}\n".encode())
    digests["rasters"] = rasters.hexdigest()
    return digests


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
    def test_primary_outputs_byte_identical_to_recorded(self, pipeline):
        """Runs first: later tests in this class add eval outputs."""
        assert _sha256_tree(pipeline) == PIPELINE_SHA256

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
        # loss_initial is the loss of the input trajectory, loss_final that
        # of the corrections written (not of the last epoch), so they are
        # equal exactly when refine kept the input
        assert meta["loss_final"] <= meta["loss_initial"]
        assert (meta["loss_final"] == meta["loss_initial"]) == meta["identity_fallback"]
        if meta["identity_fallback"]:
            assert meta["best_epoch"] is None
        else:
            assert meta["loss_final"] == min(totals)
            assert meta["best_epoch"] == totals.index(min(totals))
        corrections = (pipeline / "corrections.jsonl").read_text().splitlines()
        n_frames = len((pipeline / "est_trajectory.csv").read_text().splitlines()) - 1
        assert len(corrections) == n_frames
        # the refined trajectory's own start-to-end gap, as written
        refined = trajectory.load_trajectory(pipeline / "refined_trajectory.csv")
        assert meta["closure_gap_after_m"] == float(
            np.linalg.norm(refined.xy[-1] - refined.xy[0]))

    @pytest.mark.parametrize("command", ["simulate", "infer", "refine", "eval", "map", "plot"])
    def test_every_command_writes_run_meta(self, pipeline, command):
        meta = json.loads((pipeline / f"run_meta_{command}.json").read_text())
        assert meta["command"] == command
        assert meta["elapsed_s"]["total"] > 0.0

    def test_eval_run_meta_matches_the_report(self, pipeline):
        meta = json.loads((pipeline / "run_meta_eval.json").read_text())
        report = json.loads((pipeline / "eval_grid_1.0.json").read_text())
        assert meta["trajectory"] == report["trajectory"] == "refined"
        assert meta["grids"] == {"1.0": {key: report[key] for key in
                                         ("n_pairs", "n_inliers", "rte_metric")}}

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

    @pytest.mark.parametrize("command, key", [("infer", "rae.k"), ("refine", "refine.epochs"),
                                              ("infer", "hacf.tau")])
    def test_integer_key_rejects_a_fraction(self, tmp_path, capsys, command, key):
        assert run(command, "--dataset", tmp_path, "--set", f"{key}=2.5") == 2
        assert f"error: {key}: expected an integer, got 2.5" in capsys.readouterr().err


class TestShortcutFlags:
    @staticmethod
    def _resolve(command, *flags):
        target = "--out" if command == "simulate" else "--dataset"
        args = build_parser().parse_args([command, target, "ds", *map(str, flags)])
        return _resolve_config(args).as_dict()

    @pytest.mark.parametrize("command, shortcut, override", [
        ("simulate", ["--seed", 7], "sim.seed=7"),
        ("infer", ["--estimator", "network"], "estimator.kind=network"),
        ("refine", ["--epochs", 3], "refine.epochs=3"),
        ("eval", ["--grid", 0.5, "--grid", 2], "eval.grids=[0.5, 2.0]"),
        ("map", ["--captioner", "http"], "caption.mode=http"),
        ("eval", ["--trajectory", "gt"], "eval.trajectory=gt"),
        ("map", ["--trajectory", "gt"], "map.trajectory=gt"),
    ])
    def test_shortcut_equals_its_set_form(self, command, shortcut, override):
        resolved = self._resolve(command, *shortcut)
        assert resolved == self._resolve(command, "--set", override)
        assert resolved != self._resolve(command)

    def test_last_flag_wins(self):
        assert self._resolve("simulate", "--seed", 7, "--sim.seed", 3)["sim.seed"] == 3
        assert self._resolve("simulate", "--sim.seed", 3, "--seed", 7)["sim.seed"] == 7
        # any flag beats --set, wherever it stands
        assert self._resolve("simulate", "--seed", 7, "--set", "sim.seed=3")["sim.seed"] == 7

    def test_grid_appends_to_the_list_before_it(self):
        assert self._resolve("eval", "--eval.grids", "[1]", "--grid", 2)["eval.grids"] == [1, 2]
        assert self._resolve("eval", "--eval.grids", "5", "--grid", 2)["eval.grids"] == [2]


class TestModuleConfig:
    # keys under a section prefix that the commands read themselves
    NOT_FIELDS = {"sim.n_items", "map.trajectory", "rae.seed", "caption.mode"}

    def test_every_key_reaches_a_field(self):
        """A literal key under a section prefix that names no field would
        be accepted and never read."""
        for key in DEFAULTS:
            prefix, name = key.split(".", 1)
            if prefix in SECTIONS and key not in self.NOT_FIELDS:
                assert name in {f.name for f in dataclasses.fields(SECTIONS[prefix])}, key

    def test_defaults_build_the_dataclass_defaults(self):
        for prefix, cls in SECTIONS.items():
            assert _from_config(PipelineConfig(), prefix) == cls(), prefix

    def test_invalid_value_names_the_prefix(self):
        cfg = PipelineConfig({"rae.k": 0})
        with pytest.raises(ConfigError, match=r"^rae\.\*: k must be >= 1"):
            _from_config(cfg, "rae")


class TestLoadVelocities:
    @staticmethod
    def _write(tmp_path, rows):
        path = tmp_path / "velocities.csv"
        path.write_text("frame,vx,vy\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
        return path

    def test_frames_in_any_order(self, tmp_path):
        held = _load_velocities(self._write(tmp_path, ["2,0.5,0.25", "0,1.0,2.0", "1,3.0,4.0"]), 3)
        np.testing.assert_array_equal(held, [[1.0, 2.0], [3.0, 4.0], [0.5, 0.25]])

    def test_missing_frame_rejected(self, tmp_path):
        """A truncated file is named at the line past its last row, a gap
        at the row after it; neither loads as zero velocities."""
        path = self._write(tmp_path, ["0,1.0,0.0"])
        with pytest.raises(ValueError,
                           match="velocities.csv:3: end of file where frame 1 was expected"):
            _load_velocities(path, 5)
        path = self._write(tmp_path, ["0,1.0,0.0", "2,1.0,0.0"])
        with pytest.raises(ValueError,
                           match="velocities.csv:3: frame 2 where frame 1 was expected"):
            _load_velocities(path, 3)

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
        """Arbitrary rows either load as frames 0..4, each from its own
        row, or raise a ValueError naming a line (at most the one past
        the last row, where truncation is reported); never an IndexError,
        an overwritten frame or a frame left at zero."""
        n_frames = 5
        path = self._write(tmp_path, rows)
        try:
            held = _load_velocities(path, n_frames)
        except ValueError as exc:
            line = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
            assert line and 2 <= int(line[1]) <= len(rows) + 2, str(exc)
            return
        expected = np.zeros((n_frames, 2))
        frames = []
        for row in filter(str.strip, rows):
            frame, vx, vy = row.split(",")
            frames.append(int(frame))
            expected[int(frame)] = (float(vx), float(vy))
        assert sorted(frames) == list(range(n_frames))
        np.testing.assert_array_equal(held, expected)


@pytest.fixture(scope="module")
def small_ds(tmp_path_factory):
    """A default-room dataset with a network weights file beside it."""
    root = tmp_path_factory.mktemp("small")
    assert run("simulate", "--out", root / "ds", *SMALL_ROOM, *NOISY) == 0
    est_mod.save_weights(est_mod.make_random_bundle(tau=64, seed=1), root / "weights.json")
    return root


class TestBenchmarkTracer:
    ROOT = Path(__file__).resolve().parents[1]

    def test_traced_cli_hooks_install(self):
        """perfbench/traced_cli.py wraps pipeline functions by name, so a
        rename would break ``perfbench/run.py --trace 1``.  It runs in a
        subprocess: the wrappers stay on module globals once installed."""
        code = ("import sys; sys.path[:0] = sys.argv[1:]; import traced_cli, sweepnav.cli; "
                "traced_cli.install(traced_cli.Tracer(), sweepnav.cli)")
        proc = subprocess.run([sys.executable, "-c", code, str(self.ROOT / "perfbench"),
                               str(self.ROOT / "src")], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("estimator", ["oracle", "network"])
    def test_traced_infer_runs(self, small_ds, estimator, tmp_path):
        """The tracer reads results of the wrapped calls (``len`` of the
        windows, ``.clamped`` of each estimate), so run a traced infer."""
        spans = tmp_path / "spans.json"
        code = ("import sys; sys.path[:0] = sys.argv[1:3]; import traced_cli; "
                "sys.exit(traced_cli.main(sys.argv[3:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(self.ROOT / "perfbench"), str(self.ROOT / "src"),
             str(spans), "infer", "--dataset", str(small_ds / "ds"), "--estimator", estimator,
             "--set", f"estimator.weights={small_ds / 'weights.json'}"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(spans.read_text())
        meta = json.loads((small_ds / "ds" / "run_meta_infer.json").read_text())
        assert meta["estimator"] == estimator
        assert doc["counts"]["imu.make_windows.windows"] == meta["n_windows"]
        # the command and the manifest IO it shares with every command are
        # looked up on the module at call time, so their wrappers run too
        for name in ("cli.infer", "cli.load_manifest", "cli.save_manifest",
                     "rae.rae_estimate", "estimator.estimate_velocity",
                     "trajectory.held_velocities"):
            assert doc["spans"][name]["calls"] >= 1, name


class TestInferRunMeta:
    def test_buckets_and_counters(self, pipeline):
        meta = json.loads((pipeline / "run_meta_infer.json").read_text())
        buckets = meta["elapsed_s"]
        assert sorted(buckets) == ["captures", "integrate", "orientation", "rae",
                                   "total", "windows"]
        assert all(v >= 0.0 for v in buckets.values())
        assert sum(buckets.values()) - buckets["total"] <= buckets["total"]
        assert meta["n_members_nonfinite"] == 0
        assert meta["n_windows_clamped"] == 0
        # the oracle's input-frame bias is the default (0, 0) here
        assert 0.0 <= meta["rae_member_spread"] < 1e-12

    def test_counters_are_exact(self, small_ds, tmp_path, monkeypatch):
        """A model that loses one member of every window and reads 3 m/s
        for the other members of the window starting at frame 128."""

        class Faulty(est_mod.OracleVelocityEstimator):
            def velocities(self, windows, starts, angles):
                v = super().velocities(windows, starts, angles)
                v[angles == angles.min()] = np.nan
                fast = (starts == 128) & (angles != angles.min())
                v[fast] = rotate_xy(np.array([3.0, 0.0]), angles[fast])
                return v

        monkeypatch.setattr(est_mod, "OracleVelocityEstimator", Faulty)
        ds = tmp_path / "ds"
        shutil.copytree(small_ds / "ds", ds)
        assert run("infer", "--dataset", ds, "--set", "rae.k=5") == 0
        meta = json.loads((ds / "run_meta_infer.json").read_text())
        assert meta["n_windows"] > 3
        assert meta["n_members_nonfinite"] == meta["n_windows"]
        assert meta["n_windows_clamped"] == 1


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
