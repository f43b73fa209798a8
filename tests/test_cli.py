"""End-to-end tests of the sweepnav command-line pipeline."""

import functools
import gc
import hashlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepnav import cli
from sweepnav import estimator as est_mod
from sweepnav import trajectory
from sweepnav.geometry import _record_fields, rotate_xy
from sweepnav.cli import (COMMANDS, _load_velocities, _from_config, _resolve_config,
                          build_parser, main)
from sweepnav.config import CHOICES, DEFAULTS, LIMITS, SECTIONS, ConfigError, PipelineConfig
from sweepnav.fileio import read_csv

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
# are folded into one digest of their "name sha256" lines, and each
# ``*.csv.f64`` is the float64 sidecar of the table beside it.  Floats
# come from numpy, so another BLAS build may round differently.
PIPELINE_SHA256 = {
    "captions.jsonl": "a4f11c24ec49420b3403fb8efba5a74439909263ab25c49af8fcc8dc7ce1e3d7",
    "captures.jsonl": "abbcaab2e16e82e9c1ef796fc934ac371823e504bd722c45f2c20d43b39ef71b",
    "config.json": "b044567417f21315d3cf2aced107dede8b2737aa4d2f6f672c18effec37f5878",
    "corrections.jsonl": "bdd47d450a9bc50209c90d82174b69584bd4560e4f2bf8f522d9430861f0dd06",
    "est_trajectory.csv": "d58c41190125d34f648f1d3bc5d8034d19cabd2feb0788637e9c1c8e2fcfc4eb",
    "est_trajectory.csv.f64": "b3b3b9f7fe1431a25d95aac6287ede01e1d7cf2c506b29209cf1df7416075b15",
    "eval_grid_1.0.json": "8033c367213d8bc40816bd6bf4b73b0ea29a60cc6e7336f57e11d8195878f709",
    "gt_captures.jsonl": "fd245f8a34366edca6ff25133f118dae302e13850aba3c81aaa343297d22ee16",
    "gt_trajectory.csv": "4d0ca03e1acc5bc5da72c04a207b91fc16203d2e3afdd17e19e1e1abdd47d65d",
    "gt_trajectory.csv.f64": "a49514c1d6dbca35a2230acb5c61e364de163963b2cd157275f2739c6b497079",
    "imu.csv": "07af0aeabda4c0ee7ad5088b610cec005ce5c4e22bda74e47de62dab57c231db",
    "imu.csv.f64": "2e2a392d9af38fd9f2e6fed7f84f1a16568f4dbbdc340575712b2661e5498173",
    "item_map.jsonl": "a311c64858da489e0fcbf608401848febd6e7ba5e382b4b40131720a8f66f354",
    "items.csv": "3c3d22a8708c3468a8f145b5ace0753a7aabc307e03ec9d8dbaf21660e9c9fec",
    "loss_history.csv": "acf15524b6e700f30b2bca33d31babfb4bd5e69e3b7e0605f203a4d388bec14b",
    "manifest.json": "52f2b28bd5754187f854cebea101b3dc1c759738edd382d7eb6adf8ef303c519",
    "map_eval.json": "a39fe5f8642d7bea9691e0db7bf9fbf32972ce33c37efffe561d9855822cf4f9",
    "orientations.csv": "c95ac1987241437788c89c0673a82fbc7c861ff156ae4b28a5b81668979e95f6",
    "plot.svg": "725cdded3255216ffe2049893ea1b4f4a45af0d1cd32c8df0254a49698124c29",
    "refined_trajectory.csv": "d58c41190125d34f648f1d3bc5d8034d19cabd2feb0788637e9c1c8e2fcfc4eb",
    "refined_trajectory.csv.f64": "b3b3b9f7fe1431a25d95aac6287ede01e1d7cf2c506b29209cf1df7416075b15",
    "residuals_grid_1.0.csv": "1eba53eaac62edf16e33d0f447d84d180d3813b167c55caf90a2926e5a957879",
    "velocities.csv": "44afbb652ecee526b3d1a3e308227bdcf7c3973c471aeea53acf524a6cba1ae7",
    "velocities.csv.f64": "2ebe7371ca67b7cbe710f531ca3dfaaee3d1eb67769f8bc8a79eb4e34b43cd82",
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

    @pytest.mark.parametrize("sidecars", ["kept", "deleted"])
    @pytest.mark.parametrize("argv", [["eval"], ["map", "--trajectory", "gt"], ["plot"]],
                             ids=["eval", "map", "plot"])
    def test_a_read_writes_no_file(self, pipeline, tmp_path, argv, sidecars):
        """On a copy of the chain's dataset, a command that only reads
        tables leaves the file set and every file's bytes as they were
        (run_meta_* aside): it rewrites its own outputs as they stand and
        creates no sidecar where one is missing."""
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        if sidecars == "deleted":
            for sidecar in ds.glob("*.csv.f64"):
                sidecar.unlink()
        before = TestDeterminism._tree_bytes(ds)
        assert run(argv[0], "--dataset", ds, *argv[1:]) == 0
        assert TestDeterminism._tree_bytes(ds) == before

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

    def test_refine_copies_an_estimate_it_keeps(self, pipeline, tmp_path):
        """The chain's refine keeps its input, so its trajectory and sidecar
        are the estimate's bytes, which are ``save_trajectory``'s own."""
        assert json.loads((pipeline / "run_meta_refine.json").read_text())["identity_fallback"]
        est = [(pipeline / name).read_bytes() for name in ("est_trajectory.csv",
                                                           "est_trajectory.csv.f64")]
        refined = [(pipeline / name).read_bytes() for name in ("refined_trajectory.csv",
                                                               "refined_trajectory.csv.f64")]
        trajectory.save_trajectory(trajectory.load_trajectory(pipeline / "est_trajectory.csv"),
                                   tmp_path / "saved.csv")
        saved = [(tmp_path / name).read_bytes() for name in ("saved.csv", "saved.csv.f64")]
        assert refined == est == saved

    def test_refine_that_moves_the_estimate_writes_its_own_text(self, pipeline, tmp_path):
        """An estimate opened by a heading ramp: refine moves it and writes
        ``save_trajectory``'s text of the result, and leaves the estimate's
        files as they were."""
        from sweepnav import loop_closure

        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        est = trajectory.load_trajectory(ds / "est_trajectory.csv")
        ramp = 1e-3 * np.arange(len(est))
        xy = np.vstack([est.xy[:1], est.xy[0] + np.cumsum(
            rotate_xy(np.diff(est.xy, axis=0), ramp[1:]), axis=0)])
        est = trajectory.Trajectory(est.t, xy, est.yaw + ramp, est.frame_rate)
        trajectory.save_trajectory(est, ds / "est_trajectory.csv")
        before = [(ds / name).read_bytes() for name in ("est_trajectory.csv",
                                                        "est_trajectory.csv.f64")]
        assert run("refine", "--dataset", ds, "--epochs", 30) == 0
        assert not json.loads((ds / "run_meta_refine.json").read_text())["identity_fallback"]
        held = _load_velocities(ds / "velocities.csv", len(est))
        refined, _, _ = loop_closure.refine(est, held[1:] / est.frame_rate,
                                            loop_closure.RefineConfig(epochs=30))
        trajectory.save_trajectory(refined, tmp_path / "saved.csv")
        for name, saved in [("refined_trajectory.csv", "saved.csv"),
                            ("refined_trajectory.csv.f64", "saved.csv.f64")]:
            assert (ds / name).read_bytes() == (tmp_path / saved).read_bytes()
        assert [(ds / name).read_bytes() for name in ("est_trajectory.csv",
                                                      "est_trajectory.csv.f64")] == before

    LAPS = {
        "simulate": [],
        "infer": ["captures", "integrate", "load", "orientation", "rae", "windows", "write"],
        "refine": ["fit", "load", "write"],
        "eval": ["load", "score", "write"],
        "map": ["load", "observe", "score", "write"],
        "plot": ["load", "render", "write"],
    }

    @pytest.mark.parametrize("command", list(LAPS))
    def test_every_command_writes_run_meta(self, pipeline, command):
        """``elapsed_s`` holds the command's total and its laps, which
        fit inside it, ``peak_rss_mb`` the process's peak memory and
        ``startup_cpu_s`` its CPU seconds before the command started."""
        meta = json.loads((pipeline / f"run_meta_{command}.json").read_text())
        assert meta["command"] == command
        assert meta["peak_rss_mb"] > 0.0
        assert math.isfinite(meta["startup_cpu_s"]) and meta["startup_cpu_s"] > 0.0
        elapsed = meta["elapsed_s"]
        assert sorted(elapsed) == sorted(["total", *self.LAPS[command]])
        assert elapsed["total"] > 0.0
        assert all(v >= 0.0 for v in elapsed.values())
        assert sum(elapsed.values()) - elapsed["total"] <= elapsed["total"]

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

    def test_map_run_meta_accounts_for_every_named_item(self, pipeline):
        """Each item an observed caption names is an observation or unplaced."""
        meta = json.loads((pipeline / "run_meta_map.json").read_text())
        captions = [json.loads(line) for line in
                    (pipeline / "captions.jsonl").read_text().splitlines()]
        assert meta["n_captions"] == len(captions)
        assert meta["n_captions_no_raster"] == meta["n_captions_outside_trajectory"] == 0
        assert meta["n_captions_no_items"] == sum(not c["items"] for c in captions) > 0
        assert (sum(len(c["items"]) for c in captions)
                == meta["n_observations"] + meta["n_items_unplaced"])

    def test_map_run_meta_counts_skipped_captions(self, pipeline, tmp_path):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        captions = [json.loads(line) for line in
                    (ds / "captions.jsonl").read_text().splitlines()]
        named = [c for c in captions if c["items"]]
        (ds / "rasters" / f"{named[0]['image_id']}.dras").unlink()
        named[1]["items"].append("???")  # empty after normalization
        outside = {**named[2], "frame": 10 ** 6}
        (ds / "captions.jsonl").write_text(
            "".join(json.dumps(c) + "\n" for c in [*captions, outside]))
        assert run("map", "--dataset", ds, "--trajectory", "gt") == 0
        meta = json.loads((ds / "run_meta_map.json").read_text())
        assert meta["n_captions"] == len(captions) + 1
        assert meta["n_captions_no_raster"] == meta["n_captions_outside_trajectory"] == 1
        assert meta["n_items_unplaced"] >= 1
        observed = [c for c in captions if c is not named[0]]
        assert (sum(len(c["items"]) for c in observed)
                == meta["n_observations"] + meta["n_items_unplaced"])

    def test_a_map_that_scores_nothing_leaves_no_report(self, pipeline, tmp_path):
        """When no caption names an item the map has no cluster to score:
        the last run's map_eval.json and its manifest entry go, so no
        reader takes that report for this map."""
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        captions = [{**json.loads(line), "items": []} for line in
                    (ds / "captions.jsonl").read_text().splitlines()]
        (ds / "captions.jsonl").write_text("".join(json.dumps(c) + "\n" for c in captions))
        assert run("map", "--dataset", ds, "--trajectory", "gt") == 0
        assert json.loads((ds / "run_meta_map.json").read_text())["n_clusters"] == 0
        assert "map_eval" not in json.loads((ds / "manifest.json").read_text())
        assert not (ds / "map_eval.json").exists()

    @pytest.mark.parametrize("names_items", [False, True], ids=["names_nothing", "names_items"])
    def test_map_reads_a_raster_only_for_a_caption_that_names_items(self, pipeline, tmp_path,
                                                                     capsys, names_items):
        """A corrupt raster behind a caption that names nothing is not
        read: map writes what it wrote with the raster intact.  Behind a
        caption that names an item it still exits 2 and names the file."""
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        caption = next(c for c in map(json.loads, (ds / "captions.jsonl").read_text().splitlines())
                       if bool(c["items"]) == names_items)
        raster = ds / "rasters" / f"{caption['image_id']}.dras"
        raster.write_bytes(b"not a raster")
        code = run("map", "--dataset", ds, "--trajectory", "gt")
        if names_items:
            assert code == 2
            assert capsys.readouterr().err == f"error: {raster}: not a depth raster (bad magic)\n"
            return
        assert code == 0
        for name in ("item_map.jsonl", "map_eval.json"):
            assert (ds / name).read_bytes() == (pipeline / name).read_bytes(), name
        meta, before = (json.loads((d / "run_meta_map.json").read_text()) for d in (ds, pipeline))
        assert meta.pop("elapsed_s").keys() == before.pop("elapsed_s").keys()
        # the process's peak and CPU time so far: both runs share this process
        for key in ("peak_rss_mb", "startup_cpu_s"):
            assert meta.pop(key) > 0 and before.pop(key) > 0
        assert meta == before

    def test_map_run_meta_counts_caption_retries_and_failures(self, pipeline, tmp_path,
                                                               monkeypatch):
        """With the http captioner, run_meta counts its retries and skips."""
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        images = [f"img_{json.loads(line)['frame']:06d}" for line in
                  (ds / "gt_captures.jsonl").read_text().splitlines()]
        # image j: 503 then 200 if j % 3 == 0, always 500 if j % 3 == 1
        plan = {image: [[503, 200], [500] * 3, [200]][j % 3] for j, image in enumerate(images)}

        def fake_post(url, json=None, headers=None, timeout=None):
            return SimpleNamespace(status_code=plan[json["image_ref"]].pop(0),
                                   json=lambda: {"items": []})

        monkeypatch.setattr("time.sleep", lambda s: None)
        monkeypatch.setattr("requests.post", fake_post)
        assert run("map", "--dataset", ds, "--trajectory", "gt",
                   "--set", "caption.endpoint=http://caption.test/v1") == 0
        meta = json.loads((ds / "run_meta_map.json").read_text())
        n_failing = len(images[1::3])
        assert meta["n_captions_failed"] == n_failing > 0
        assert meta["n_caption_retries"] == len(images[0::3]) + 2 * n_failing
        assert meta["n_captions"] == len(images) - n_failing

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

    @pytest.mark.parametrize("foreign", ["no_sidecar", "respelled_token"])
    def test_refine_copies_a_foreign_estimate_it_keeps(self, pipeline, tmp_path, foreign):
        """An estimate that ``infer`` did not write: one with no sidecar,
        over a stale refined sidecar, or one whose first time is respelled
        ``0.00`` under its now stale sidecar.  A refine that keeps it
        passes its bytes through, its sidecar or none, and the copy loads
        bit-equal to the estimate."""
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        est_path, refined_path = ds / "est_trajectory.csv", ds / "refined_trajectory.csv"

        def files(path):
            sidecar = path.with_name(path.name + ".f64")
            return path.read_bytes(), sidecar.read_bytes() if sidecar.exists() else None

        if foreign == "no_sidecar":
            (ds / "est_trajectory.csv.f64").unlink()
            (ds / "refined_trajectory.csv.f64").write_bytes(b"stale")
        else:
            text = est_path.read_bytes()
            assert text.count(b"\n0.0,0.0,") == 1
            est_path.write_bytes(text.replace(b"\n0.0,0.0,", b"\n0.00,0.0,"))
        before = files(est_path)
        assert (before[1] is None) == (foreign == "no_sidecar")
        assert run("refine", "--dataset", ds, "--epochs", 30) == 0
        assert json.loads((ds / "run_meta_refine.json").read_text())["identity_fallback"]
        assert files(refined_path) == before == files(est_path)
        est, refined = (trajectory.load_trajectory(path) for path in (est_path, refined_path))
        for want, got in [(est.t, refined.t), (est.xy, refined.xy), (est.yaw, refined.yaw)]:
            assert got.tobytes() == want.tobytes()

    def test_plot_escapes_item_names(self, pipeline, tmp_path):
        """An item name with XML's special characters reads back from a
        well-formed ``plot.svg``."""
        from xml.dom import minidom

        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        name = "salt & pepper <2kg>"
        header, first, *rest = (ds / "items.csv").read_text().splitlines()
        (ds / "items.csv").write_text(
            "\n".join([header, name + first[first.index(","):], *rest]) + "\n")
        assert run("plot", "--dataset", ds) == 0
        texts = [node.firstChild.data for node in
                 minidom.parse(str(ds / "plot.svg")).getElementsByTagName("text")]
        assert name in texts

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    def test_plot_out_is_recorded_against_the_dataset(self, pipeline, tmp_path, monkeypatch,
                                                     inside):
        """``--out`` relative to the working directory: the manifest's
        entry, read against the dataset as every reader reads it, is the
        plot written; relative when the plot is inside the dataset, else
        absolute."""
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        out = Path("../ds/sub/p.svg") if inside else Path("elsewhere/p.svg")
        out.parent.mkdir()
        assert run("plot", "--dataset", ds, "--out", out) == 0
        entry = Path(_manifest(ds)["plot"])
        assert entry.is_absolute() != inside
        assert entry == (Path("sub/p.svg") if inside else out.resolve())
        assert (ds / entry).read_bytes() == out.read_bytes()


class TestExitCodes:
    def test_missing_manifest_is_config_error(self, tmp_path, capsys):
        assert run("infer", "--dataset", tmp_path) == 2
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ("gt_trajectory.csv\n", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('["gt_trajectory.csv"]\n', "expected a JSON object of paths"),
        (None, "entry 'gt_trajectory' must be a path, got 3"),
    ], ids=["not_json", "list", "number_entry"])
    def test_malformed_manifest_is_config_error(self, pipeline, tmp_path, capsys, text, error):
        """None stands for the pipeline's manifest with one entry a number."""
        if text is None:
            text = json.dumps({**_manifest(pipeline), "gt_trajectory": 3})
        (tmp_path / "manifest.json").write_text(text)
        assert run("eval", "--dataset", tmp_path) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'manifest.json'}: {error}\n"

    class FullStdout:
        """Standard output on a full disk: every write fails."""

        def write(self, text):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

    def test_failed_summary_leaves_the_outputs_listed(self, pipeline, tmp_path, capsys,
                                                      monkeypatch):
        """``eval > /dev/full``: the summary is printed after the manifest
        and run_meta are saved, so the files eval wrote stay listed."""
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        manifest = _manifest(ds)
        for key in ("eval_grid_1.0", "residuals_grid_1.0"):
            (ds / manifest.pop(key)).unlink()
        (ds / "manifest.json").write_text(json.dumps(manifest))
        (ds / "run_meta_eval.json").unlink()
        monkeypatch.setattr(sys, "stdout", self.FullStdout())
        assert run("eval", "--dataset", ds) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert _manifest(ds)["eval_grid_1.0"] == "eval_grid_1.0.json"
        assert (ds / "eval_grid_1.0.json").is_file()
        assert (ds / "run_meta_eval.json").is_file()

    def test_invalid_room_rejected(self, tmp_path, capsys):
        assert run("simulate", "--out", tmp_path / "ds",
                   "--set", "sim.room_width=-1") == 2
        assert "must be positive" in capsys.readouterr().err

    def test_refused_simulation_leaves_no_directory(self, tmp_path, capsys):
        """The settings are refused before simulate creates the dataset
        directory or anything in it."""
        assert run("simulate", "--out", tmp_path / "ds",
                   "--set", "capture.distance_m=-1") == 2
        assert capsys.readouterr().err == (
            "error: capture.distance_m: must be positive, got -1.0\n")
        assert not (tmp_path / "ds").exists()

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

    # each enumerated key with a command that reads it
    ENUMERATED = [("infer", "estimator.kind"),
                  ("eval", "eval.trajectory"), ("map", "map.trajectory")]
    # a value that its section, its ``LIMITS`` rule or its number type
    # refuses, or a removed key that an old config may still name, with a
    # command that reads or read it -> the value and the error it gets
    REFUSED = {
        ("simulate", "capture.mode"): ("or", "unknown configuration key 'capture.mode'"),
        ("infer", "capture.mode"): ("or", "unknown configuration key 'capture.mode'"),
        ("infer", "kalman.sigma_obs"): ("0.1", "unknown configuration key 'kalman.sigma_obs'"),
        ("infer", "rae.reducer"): ("bogus", "rae.*: reducer must be one of ('median', 'mean')"),
        ("simulate", "sim.turn_model"):
            ("bogus", "sim.*: turn_model must be 'arc' or 'stop_and_turn'"),
        ("refine", "refine.epochs"): ("0", "refine.*: epochs must be >= 1"),
        ("refine", "refine.hidden"): ("0", "refine.*: hidden must be >= 1"),
        ("simulate", "sim.n_items"): ("-1", "sim.*: n_items must be >= 0"),
        ("infer", "oracle.noise_sigma"): ("-1", "oracle.*: noise_sigma must be non-negative"),
        ("simulate", "oracle.noise_sigma"): ("-1", "oracle.*: noise_sigma must be non-negative"),
        ("simulate", "sim.speed"): ("NaN", "sim.speed: expected a number, got nan"),
        ("simulate", "hacf.tau"): ("0", "unknown configuration key 'hacf.tau'"),
        ("infer", "hacf.tau"): ("0", "unknown configuration key 'hacf.tau'"),
        ("infer", "hacf.stride"): ("-1", "hacf.stride: must be >= 0 (0 = tau), got -1"),
        ("infer", "orientation.alpha"): ("0.02", "unknown configuration key 'orientation.alpha'"),
        ("infer", "orientation.source"):
            ("file", "unknown configuration key 'orientation.source'"),
        ("map", "map.cluster_eps"): ("2", "unknown configuration key 'map.cluster_eps'"),
        ("refine", "refine.lambda_loop"): ("2", "unknown configuration key 'refine.lambda_loop'"),
        ("map", "map.mount_height"): ("3.5", "map.*: mount_height must be within [0, 3] m"),
        ("infer", "estimator.v_max"): ("0", "unknown configuration key 'estimator.v_max'"),
        ("infer", "capture.distance_m"): ("-1", "capture.distance_m: must be positive, got -1.0"),
        ("simulate", "capture.rotation_rad"):
            ("0", "unknown configuration key 'capture.rotation_rad'"),
        ("map", "caption.mode"): ("http", "unknown configuration key 'caption.mode'"),
    }

    def test_every_enumerated_key_is_tried(self):
        assert {key for _, key in self.ENUMERATED} == set(CHOICES)

    def test_every_limited_key_is_tried(self):
        assert set(LIMITS) <= {key for _, key in self.REFUSED}

    @pytest.mark.parametrize("command, key", ENUMERATED + list(REFUSED))
    def test_bad_enumerated_value_touches_no_file(self, pipeline, tmp_path, capsys,
                                                  monkeypatch, command, key):
        """The value is refused before the manifest is read or the command
        starts, so before it reads or writes a file."""
        for name in ("load_manifest", f"cmd_{command}"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        before = {p: p.read_bytes() for p in ds.rglob("*") if p.is_file()}
        target = ["--out", tmp_path / "new"] if command == "simulate" else ["--dataset", ds]
        value, error = self.REFUSED.get((command, key), ("bogus", None))
        if error is None:
            error = f"{key}: expected one of {', '.join(CHOICES[key])}, got 'bogus'"
        assert run(command, *target, "--set", f"{key}={value}") == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert {p: p.read_bytes() for p in ds.rglob("*") if p.is_file()} == before
        assert not (tmp_path / "new").exists()

    def test_no_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command, key", [("infer", "rae.k"), ("refine", "refine.epochs"),
                                              ("infer", "oracle.seed")])
    def test_integer_key_rejects_a_fraction(self, tmp_path, capsys, command, key):
        assert run(command, "--dataset", tmp_path, "--set", f"{key}=2.5") == 2
        assert f"error: {key}: expected an integer, got 2.5" in capsys.readouterr().err


class TestShortcutFlags:
    @staticmethod
    def _resolve(command, *flags):
        target = "--out" if command == "simulate" else "--dataset"
        args = build_parser().parse_args([command, target, "ds", *map(str, flags)])
        cfg = _resolve_config(args)
        return {key: cfg[key] for key in DEFAULTS}

    @pytest.mark.parametrize("command, shortcut, override", [
        ("simulate", ["--seed", 7], "sim.seed=7"),
        ("infer", ["--estimator", "network"], "estimator.kind=network"),
        ("refine", ["--epochs", 3], "refine.epochs=3"),
        ("eval", ["--grid", 0.5, "--grid", 2], "eval.grids=[0.5, 2.0]"),
        ("eval", ["--trajectory", "gt"], "eval.trajectory=gt"),
        ("map", ["--trajectory", "gt"], "map.trajectory=gt"),
    ])
    def test_shortcut_equals_its_set_form(self, command, shortcut, override):
        resolved = self._resolve(command, *shortcut)
        assert resolved == self._resolve(command, "--set", override)
        assert resolved != self._resolve(command)

    def test_last_flag_wins(self):
        assert self._resolve("simulate", "--seed", 3, "--seed", 7)["sim.seed"] == 7
        assert self._resolve("simulate", "--set", "sim.seed=3",
                             "--set", "sim.seed=7")["sim.seed"] == 7
        # a shortcut beats --set, wherever it stands
        assert self._resolve("simulate", "--seed", 7, "--set", "sim.seed=3")["sim.seed"] == 7
        assert self._resolve("simulate", "--set", "sim.seed=3", "--seed", 7)["sim.seed"] == 7

    def test_grid_appends_to_the_list_before_it(self):
        """The --grid flags give the whole list, whatever --set gave."""
        assert self._resolve("eval", "--grid", 1, "--grid", 2)["eval.grids"] == [1.0, 2.0]
        assert self._resolve("eval", "--set", "eval.grids=[1]", "--grid", 2)["eval.grids"] == [2]
        assert self._resolve("eval", "--grid", 2, "--set", "eval.grids=[5]")["eval.grids"] == [2]

    def test_help_lists_exactly_the_table_shortcuts(self, capsys):
        """Besides its dataset flag, --config, --set and --log-level, a
        command takes only its shortcuts (and plot its --out)."""
        for command, (_, dataset_flag, shortcuts) in COMMANDS.items():
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            flags = set(re.findall(r"^  (--[\w.-]+)", capsys.readouterr().out, re.M))
            common = {dataset_flag, "--config", "--set", "--log-level"}
            assert flags == common | set(shortcuts) | ({"--out"} if command == "plot" else set())

    def test_a_key_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--dataset", "ds", "--rae.k", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rae.k 3" in capsys.readouterr().err


class TestStringKeys:
    """A key whose default is a string takes the text as given, where
    other keys read it as JSON."""

    def test_set_and_flag_keep_the_text(self):
        resolve = TestShortcutFlags._resolve
        assert resolve("map", "--set", "caption.prompt=true")["caption.prompt"] == "true"
        assert resolve("infer", "--set", "estimator.weights=2024")["estimator.weights"] == "2024"
        assert resolve("infer", "--set", "rae.k=3")["rae.k"] == 3
        assert resolve("infer", "--set", "oracle.bias=[1, 2]")["oracle.bias"] == [1, 2]

    def test_weights_file_named_like_a_number(self, small_ds, tmp_path, monkeypatch):
        ds = tmp_path / "ds"
        shutil.copytree(small_ds / "ds", ds)
        shutil.copy(small_ds / "weights.json", tmp_path / "2024")
        monkeypatch.chdir(tmp_path)
        assert run("infer", "--dataset", ds, "--estimator", "network",
                   "--set", "estimator.weights=2024") == 0
        assert json.loads((ds / "run_meta_infer.json").read_text())["estimator"] == "network"


def _console(*argv) -> subprocess.CompletedProcess:
    """Run ``python -m sweepnav.cli`` on this source tree, with its
    standard output block-buffered, as on any pipe."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "sweepnav.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)


class TestLogLevel:
    def _map_stderr(self, ds, *flags):
        proc = _console("map", "--dataset", ds, "--trajectory", "gt", *flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("map[gt]: ")
        return proc.stderr

    def test_level_hides_the_skipped_raster_warning(self, pipeline, tmp_path):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline, ds)
        missing = sorted((ds / "rasters").iterdir())[0]
        missing.unlink()
        assert re.search(rf"^WARNING .*no raster at {re.escape(str(missing))}, skipped$",
                         self._map_stderr(ds), re.M)
        assert "no raster" not in self._map_stderr(ds, "--log-level", "ERROR")


class TestModuleConfig:
    # keys under a section prefix that the commands read themselves
    NOT_FIELDS = {"map.trajectory"}

    def test_every_key_reaches_a_field(self):
        """A literal key under a section prefix that names no field would
        be accepted and never read."""
        for key in DEFAULTS:
            prefix, name = key.split(".", 1)
            if prefix in SECTIONS and key not in self.NOT_FIELDS:
                assert name in _record_fields(SECTIONS[prefix]), key

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

    def test_frames_must_come_in_order(self, tmp_path):
        """``infer`` writes frames 0..n-1 in order; the first row out of
        that order is named."""
        held = _load_velocities(self._write(tmp_path, ["0,1.0,2.0", "1,3.0,4.0", "2,0.5,0.25"]), 3)
        np.testing.assert_array_equal(held, [[1.0, 2.0], [3.0, 4.0], [0.5, 0.25]])
        path = self._write(tmp_path, ["0,1.0,2.0", "2,0.5,0.25", "1,3.0,4.0"])
        with pytest.raises(ValueError, match="velocities.csv:3: frame 2 where frame 1 was "
                                             r"expected; frames must run 0\.\.2 in order"):
            _load_velocities(path, 3)

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
        path = self._write(tmp_path, ["0,1.0,0.0", "-1,1.0,0.0"])
        with pytest.raises(ValueError,
                           match="velocities.csv:3: frame -1 where frame 1 was expected"):
            _load_velocities(path, 3)

    def test_frame_past_the_end_rejected(self, tmp_path):
        path = self._write(tmp_path, ["0,1.0,0.0", "1,1.0,0.0", "2,1.0,0.0", "3,1.0,0.0"])
        with pytest.raises(ValueError,
                           match="velocities.csv:5: frame 3 where end of file was expected"):
            _load_velocities(path, 3)

    def test_repeated_frame_rejected(self, tmp_path):
        path = self._write(tmp_path, ["0,0.0,0.0", "1,1.0,0.0", "1,2.0,0.0"])
        with pytest.raises(ValueError,
                           match="velocities.csv:4: frame 1 where frame 2 was expected"):
            _load_velocities(path, 3)

    @pytest.mark.parametrize("frame, token, error", [
        (1, "1.0", r"velocities.csv:3: invalid literal for int\(\) with base 10: '1.0'"),
        (100, "1e2", r"velocities.csv:102: invalid literal for int\(\) with base 10: '1e2'"),
        (1, "01", None), (1, "+1", None)])
    def test_respelled_frame_is_read_line_by_line(self, tmp_path, monkeypatch, frame, token,
                                                  error):
        """A frame token that reads as the right number but is not spelled
        as ``infer`` writes it goes to the line reader: ``1.0`` and ``1e2``
        (as long as ``100``) are refused at their line, and ``01`` and
        ``+1`` are read as ``int`` reads them."""
        calls = []
        monkeypatch.setattr(cli, "read_csv", lambda *args: calls.append(1) or read_csv(*args))
        rows = [f"{i},{i}.5,-{i}.25" for i in range(frame + 2)]
        rows[frame] = rows[frame].replace(str(frame), token, 1)
        path = self._write(tmp_path, rows)
        if error:
            with pytest.raises(ValueError, match=error):
                _load_velocities(path, len(rows))
        else:
            held = _load_velocities(path, len(rows))
            np.testing.assert_array_equal(held, [[i + 0.5, -i - 0.25] for i in range(len(rows))])
        assert calls == [1]

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(
        st.builds("{},{!r},{!r}".format, st.integers(-3, 7), st.floats(), st.floats()),
        st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=12),
    ), max_size=8))
    def test_any_lines_load_cleanly_or_name_the_line(self, tmp_path, rows):
        """Arbitrary rows either load as frames 0..4, in order, each from
        its own row, or raise a ValueError naming a line (at most the one past
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
        assert frames == list(range(n_frames))
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


    # each command of a traced chain -> spans its run must hold, and
    # counts that the tracer's hooks take from the wrapped calls' results
    TRACED = [
        (["simulate", "--out", "{ds}", *SMALL_ROOM],
         ["cli.simulate", "sim.generate_trajectory", "sim.synthesize_imu",
          "sim.generate_scene", "imu.save_imu", "object_map.save_raster"], []),
        (["infer", "--dataset", "{ds}"],
         ["cli.infer", "imu.load_imu", "orientation.estimate_orientation", "imu.to_hacf",
          "imu.make_windows", "rae.rae_estimate", "estimator.estimate_velocity",
          "orientation.relative_yaw", "trajectory.integrate", "trajectory.capture_schedule"],
         ["orientation.samples", "imu.make_windows.windows", "estimator.returned"]),
        (["refine", "--dataset", "{ds}", "--epochs", "5"],
         ["cli.refine", "cli._load_velocities", "loop_closure.refine",
          "loop_closure.loss_and_gradients", "loop_closure.refinement_loss",
          "loop_closure.save_corrections"],
         ["loop_closure.hidden", "loop_closure.epochs", "loop_closure.identity_fallback"]),
        (["eval", "--dataset", "{ds}"],
         ["cli.eval", "metrics.evaluate", "metrics.save_report", "metrics.save_residuals"],
         ["metrics.pairs"]),
        (["map", "--dataset", "{ds}"],
         ["cli.map", "object_map.load_captions", "object_map.load_raster",
          "object_map.observe_items", "object_map.cluster_items", "metrics.evaluate",
          "object_map.evaluate_map"], ["object_map.observations"]),
        (["plot", "--dataset", "{ds}"], ["cli.plot", "cli._render_svg"], []),
        (["infer", "--dataset", "{ds}", "--estimator", "network",
          "--set", "estimator.weights={weights}"],
         ["cli.infer", "estimator.load_weights", "estimator.estimate_velocity"],
         ["estimator.flop_per_pass", "estimator.returned"]),
    ]

    def test_traced_chain_runs(self, tmp_path):
        """Every command as ``perfbench/run.py --trace 1`` runs it: the
        tracer script in its own process, on this source tree.  Its
        hooks read what the wrapped calls return, so a changed result
        fails here and not only in a traced benchmark run."""
        ds, weights = tmp_path / "ds", tmp_path / "weights.json"
        est_mod.save_weights(est_mod.make_random_bundle(tau=64, seed=1), weights)
        paths = [str(self.ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        for i, (argv, spans, counts) in enumerate(self.TRACED):
            out = tmp_path / f"spans_{i}.json"
            argv = [a.format(ds=ds, weights=weights) for a in argv]
            proc = subprocess.run(
                [sys.executable, str(self.ROOT / "perfbench" / "traced_cli.py"), str(out),
                 *argv], env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (argv, proc.stderr)
            doc = json.loads(out.read_text())
            assert [s for s in spans if doc["spans"].get(s, {}).get("calls", 0) < 1] == [], argv
            assert [c for c in counts if c not in doc["counts"]] == [], argv


class TestInferRunMeta:
    def test_buckets_and_counters(self, pipeline):
        meta = json.loads((pipeline / "run_meta_infer.json").read_text())
        assert meta["n_members_nonfinite"] == 0
        assert meta["n_windows_clamped"] == 0
        # the oracle's input-frame bias is the default (0, 0) here
        assert 0.0 <= meta["rae_member_spread"] < 1e-12
        # so members differ by rounding alone; there the median's relative
        # step rule (1e-10 of the mean member distance) is far below one
        # ulp of the median, and the rule's floor of a few ulps ends the
        # descent before its cap
        assert (meta["n_windows_median_capped"], meta["n_windows"]) == (0, 32)

    def test_counters_are_exact(self, small_ds, tmp_path, monkeypatch):
        """A model that loses one member of every window and reads 3 m/s
        for the other members of the window starting at frame 128."""

        class Faulty(est_mod.OracleVelocityEstimator):
            def velocities(self, windows, starts, angles):
                v = super().velocities(windows, starts, angles)
                v[:, angles == angles.min()] = np.nan
                fast = np.outer(starts == 128, angles != angles.min())
                turned = rotate_xy(np.array([3.0, 0.0]), angles)
                v[fast] = np.broadcast_to(turned, v.shape)[fast]
                return v

        monkeypatch.setattr(est_mod, "OracleVelocityEstimator", Faulty)
        ds = tmp_path / "ds"
        shutil.copytree(small_ds / "ds", ds)
        assert run("infer", "--dataset", ds, "--set", "rae.k=5") == 0
        meta = json.loads((ds / "run_meta_infer.json").read_text())
        assert meta["n_windows"] > 3
        assert meta["n_members_nonfinite"] == meta["n_windows"]
        assert meta["n_windows_clamped"] == 1


def test_oracle_runs_at_the_rate_of_its_ground_truth(tmp_path):
    """``infer`` resamples to the estimator's rate, here the 100 Hz of the
    ground truth that the oracle reads; ``sim.sample_rate_hz`` only sets
    the simulator, so a default infer frames the recording as it was made."""
    ds = tmp_path / "ds"
    assert run("simulate", "--out", ds, "--seed", 1, "--set", "sim.sample_rate_hz=100") == 0
    assert run("infer", "--dataset", ds) == 0
    assert run("eval", "--dataset", ds) == 0
    report = json.loads((ds / "eval_grid_1.0.json").read_text())
    assert report["rte_metric"] < 1e-3
    assert report["coverage"] == 1.0


@pytest.fixture(scope="module")
def world_ds(tmp_path_factory):
    """A seed-1 dataset, and beside it a dense network's weights."""
    root = tmp_path_factory.mktemp("world")
    assert run("simulate", "--out", root / "ds", "--seed", 1, *SMALL_ROOM) == 0
    est_mod.save_weights(est_mod.make_random_bundle(tau=64, seed=1), root / "weights.json")
    return root


def _world_scores(ds, estimator, weights):
    """``infer``, ``eval`` and ``map`` on ``ds``: eval's rte, rte_metric
    and rre, and the map's errors."""
    assert run("infer", "--dataset", ds, "--estimator", estimator,
               "--set", f"estimator.weights={weights}") == 0
    assert run("eval", "--dataset", ds) == 0
    assert run("map", "--dataset", ds) == 0
    report = json.loads((ds / "eval_grid_1.0.json").read_text())
    map_eval = json.loads((ds / "map_eval.json").read_text())
    return ({key: report[key] for key in ("rte", "rte_metric", "rre")},
            {"mean_error": map_eval["mean_error"], "std_error": map_eval["std_error"],
             **map_eval["per_item"]})


@pytest.mark.parametrize("estimator", ["oracle", "network"])
@pytest.mark.parametrize("beta", [0.7, np.pi, -np.pi / 2])
def test_a_turned_and_shifted_world_scores_the_same(world_ds, tmp_path, estimator, beta):
    """The device senses and sees nothing of where the world frame is, so
    turning the ground truth (trajectory and items) by ``beta`` and
    shifting it moves no score: every estimate is in the heading-anchored
    frame, which the alignment maps onto the world."""
    from sweepnav import object_map

    weights = world_ds / "weights.json"
    scores = []
    for turned in (False, True):
        ds = tmp_path / f"ds_{turned}"
        shutil.copytree(world_ds / "ds", ds)
        if turned:
            gt = trajectory.load_trajectory(ds / "gt_trajectory.csv")
            trajectory.save_trajectory(trajectory.Trajectory(
                gt.t, rotate_xy(gt.xy, beta) + (3.0, -2.0), gt.yaw + beta, gt.frame_rate),
                ds / "gt_trajectory.csv")
            items = object_map.load_items_csv(ds / "items.csv")
            object_map.save_items_csv({name: np.array([*rotate_xy(xyz[:2], beta) + (3.0, -2.0),
                                                       xyz[2]]) for name, xyz in items.items()},
                                      ds / "items.csv")
        scores.append(_world_scores(ds, estimator, weights))
    (report, map_errors), (turned_report, turned_map_errors) = scores
    assert map_errors and set(turned_map_errors) == set(map_errors)
    for name in report:
        assert turned_report[name] == pytest.approx(report[name], rel=0, abs=1e-9), name
    for name in map_errors:
        assert turned_map_errors[name] == pytest.approx(map_errors[name], rel=0, abs=1e-9), name


class TestRefineRunMeta:
    def test_buckets(self, pipeline):
        buckets = json.loads((pipeline / "run_meta_refine.json").read_text())["elapsed_s"]
        assert sorted(buckets) == ["fit", "load", "total", "write"]
        assert all(v >= 0.0 for v in buckets.values())
        assert sum(buckets.values()) - buckets["total"] <= buckets["total"]


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


def _chain(ds):
    """The six commands, in order, on a small noisy dataset at ``ds``."""
    return [
        ["simulate", "--out", ds, "--seed", 7, *SMALL_ROOM, *NOISY],
        ["infer", "--dataset", ds],
        ["refine", "--dataset", ds, "--epochs", 5],
        ["eval", "--dataset", ds],
        ["map", "--dataset", ds, "--trajectory", "gt"],
        ["plot", "--dataset", ds],
    ]


class TestDeterminism:
    def _run_chain(self, ds):
        for argv in _chain(ds):
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


# ---------------------------------------------------------------------------
# The console entry: ``python -m sweepnav.cli`` ends with ``os._exit``


def _left_behind(*argv) -> list[str]:
    """Run one command in process and return what the process would still
    hold when the console entry exits: files that no one closed (found
    as ResourceWarnings by a collection) and threads besides the main one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(*argv) == 0
        gc.collect()
    left = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    return left + [repr(t) for t in threading.enumerate() if t is not threading.main_thread()]


@pytest.fixture(scope="module")
def guarded_chain(tmp_path_factory):
    """The chain run in process: its dataset, and what each command left behind."""
    ds = tmp_path_factory.mktemp("guarded") / "ds"
    return ds, {argv[0]: _left_behind(*argv) for argv in _chain(ds)}


@pytest.fixture(scope="module")
def console_chain(tmp_path_factory):
    """The chain run as one process per command: its dataset, and each
    command's finished process."""
    ds = tmp_path_factory.mktemp("console") / "ds"
    return ds, {argv[0]: _console(*argv) for argv in _chain(ds)}


class TestConsoleEntry:
    def test_each_command_exits_0_and_prints_its_summary(self, console_chain):
        """Standard output is block-buffered here: the summary shows only
        if the entry flushed it before ending the process."""
        _, procs = console_chain
        for command, proc in procs.items():
            assert proc.returncode == 0, proc.stderr
            assert re.fullmatch(rf"{command}\W.*\n", proc.stdout), proc.stdout
            assert proc.stderr == ""

    def test_outputs_equal_the_in_process_chain(self, console_chain, guarded_chain):
        (ds, _), (ref, _) = console_chain, guarded_chain
        assert TestDeterminism._tree_bytes(ds) == TestDeterminism._tree_bytes(ref)
        assert {p.name for p in ds.glob("run_meta_*")} == {f"run_meta_{c}.json"
                                                          for c in COMMANDS}

    def test_refused_set_exits_2(self, console_chain):
        ds, _ = console_chain
        proc = _console("eval", "--dataset", ds, "--set", "eval.trajectory=bogus")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: eval.trajectory: ")
        assert proc.stdout == ""


class TestWhatTheExitSkips:
    """The console entry skips the interpreter's teardown, so nothing may
    be left for it: every command closes its files and joins its threads
    before ``main`` returns."""

    def test_no_command_leaves_a_file_or_a_thread(self, guarded_chain):
        _, left = guarded_chain
        assert left == {command: [] for command in COMMANDS}

    def test_http_captioner_leaves_no_file_or_thread(self, guarded_chain, tmp_path,
                                                     monkeypatch):
        ds = tmp_path / "ds"
        shutil.copytree(guarded_chain[0], ds)
        monkeypatch.setattr("time.sleep", lambda s: None)
        monkeypatch.setattr("requests.post", lambda url, json=None, headers=None, timeout=None:
                            SimpleNamespace(status_code=200, json=lambda: {"items": ["milk"]}))
        assert _left_behind("map", "--dataset", ds,
                            "--set", "caption.endpoint=http://caption.test/v1") == []
        meta = json.loads((ds / "run_meta_map.json").read_text())
        assert meta["n_captions"] > 0 and meta["n_captions_failed"] == 0


class TestEntrypoint:
    """``entrypoint`` with ``os._exit`` replaced by a recorder."""

    class Stream:
        def __init__(self, events, name, fails=False):
            self.events, self.name, self.fails = events, name, fails

        def write(self, text):
            return len(text)

        def flush(self):
            self.events.append(self.name)
            if self.fails:
                raise OSError(32, "Broken pipe")

    class Handler(logging.Handler):
        def __init__(self, events):
            super().__init__()
            self.events = events

        def emit(self, record):
            pass

        def flush(self):
            self.events.append("log")

    @pytest.fixture
    def events(self, monkeypatch):
        """Flushes and exits in the order they happen.  ``logging.shutdown``
        runs on a handler of the test's own, not on the test runner's."""
        events = []
        handler = self.Handler(events)
        monkeypatch.setattr(logging, "shutdown",
                            functools.partial(logging.shutdown, [weakref.ref(handler)]))
        monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))
        yield events
        assert handler  # alive until here, so its weak reference holds

    def _entry(self, monkeypatch, events, main_fn, stdout_fails=False):
        """Run ``entrypoint`` over ``main_fn``.  The streams are replaced
        here, in the test's call, since the runner's output capture sets
        them again after the fixtures run."""
        monkeypatch.setattr(cli, "main", main_fn)
        monkeypatch.setattr(sys, "stdout", self.Stream(events, "stdout", stdout_fails))
        monkeypatch.setattr(sys, "stderr", self.Stream(events, "stderr"))
        cli.entrypoint()

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_code_passes_through_after_every_flush(self, events, monkeypatch, code):
        self._entry(monkeypatch, events, lambda: code)
        assert events == ["log", "stdout", "stderr", ("exit", code)]

    def test_failed_flush_exits_120(self, events, monkeypatch):
        self._entry(monkeypatch, events, lambda: 0, stdout_fails=True)
        assert events == ["log", "stdout", "stderr", ("exit", 120)]

    def test_an_escaping_exception_exits_the_normal_way(self, events, monkeypatch):
        with pytest.raises(SystemExit):
            self._entry(monkeypatch, events, functools.partial(main, []))
        assert events == []
