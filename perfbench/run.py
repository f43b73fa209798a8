"""sweepnav benchmark: the user-facing CLI chain, end to end and per layer.

Usage (from the root of a source checkout; the program is taken from ./src):

    python3 perfbench/run.py --workload sweep60 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each run builds its dataset with ``sweepnav simulate`` (set-up, repeated
and timed), then runs ``infer -> refine -> eval -> map -> plot`` on a
fresh copy of it, again and again until ``--seconds`` have passed.  Every
command is its own process, the way a user runs the CLI, so interpreter
start and ``import sweepnav`` count.  Outputs are checked: each command
must exit 0 and write the artifacts its manifest names, and every rep's
outputs must be byte-identical to the first rep's (``run_meta_*``
excepted).  A failed check is counted, the result reads
``"correct": false`` and the run exits 1.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; their
times are CPU times of the command processes, calibrated against a fixed
kernel run on the same core just before and after each (see CAL_REF_S).
``--trace 1`` alternates untraced reps with reps whose commands run
under ``traced_cli.py`` and reports the per-layer metrics, the tracing
overhead, and how each command's wall time splits into import, layer
self times and an unattributed remainder.  The last line of standard
output is the JSON result; everything before it is the readable report.
See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

_NOISE = {"sim.acc_noise": 0.05, "sim.gyro_noise": 0.002, "oracle.bias": [0.05, 0.02]}
_ROOM60 = {"sim.room_width": 6.5, "sim.room_height": 2.0}
# Config of each workload; the workload seed is added as sim.seed.
#   sweep60: the 60 s reference recording (3072 frames, 47 windows).  Refine
#     and the orientation filter dominate; RAE does little work, so this is
#     the bypass case for RAE changes, and refine's (T, hidden) activations
#     fit in L2.
#   rae_stride1: the same recording through the dense network at stride 1
#     (3008 windows x K=5 passes), which puts RAE and the estimator at about
#     half the pipeline.  Its weights are random: its accuracy is meaningless.
#   long_sweep: a ~350 s sweep of a 20 m x 6 m room (17 501 frames).
#     Per-frame layers scale ~5.7x and refine's activations exceed L2.
WORKLOADS = {
    "sweep60": {**_NOISE, **_ROOM60},
    "rae_stride1": {**_NOISE, **_ROOM60, "estimator.kind": "network", "hacf.stride": 1},
    "long_sweep": {**_NOISE, "sim.room_width": 20.0, "sim.room_height": 6.0,
                   "sim.n_items": 15},
}
PIPELINE = ("infer", "refine", "eval", "map", "plot")
POST = ("eval", "map", "plot")
# Manifest keys each command must add; every manifest entry must exist.
PRODUCES = {
    "simulate": ("imu", "gt_trajectory", "orientations", "items", "captions",
                 "gt_captures", "rasters_dir"),
    "infer": ("est_trajectory", "velocities", "captures"),
    "refine": ("refined_trajectory", "corrections", "loss_history"),
    "eval": ("eval_grid_1.0", "residuals_grid_1.0"),
    "map": ("item_map", "map_eval"),
    "plot": ("plot",),
}
SETUP_REPS = 5
# Untraced reps per run, at least, so that long_sweep (~16 s a rep) still
# takes a median of three.
MIN_REPS = 3
# One BLAS thread in every child and in the benchmark itself, on every
# commit: steadier timings on a small shared machine, never more threads
# than cores, and the calibration kernel runs on one thread like the CLI.
BLAS_THREADS = 1
# On a shared machine each core's speed swings by up to ~1.7x, for seconds
# and for minutes.  So an end-to-end time is a command's CPU time (rusage)
# over the mean CPU time of a fixed calibration kernel run just before and
# just after it on the same core, median over reps, times CAL_REF_S: the
# kernel's best time on the 2-core Xeon KVM guest in NOTES.md, so that the
# values read as CPU seconds on that host at its best speed.
CAL_REF_S = 0.078
# A command that runs this long has hung; killing it keeps a run under 180 s.
COMMAND_TIMEOUT_S = 60
WORK_DIR = ".bench_work"


class Calibration:
    """The calibration helper process (calibrate.py): it times a fixed
    kernel, in CPU seconds, whenever asked."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        self.info = json.loads(self.proc.stdout.readline())

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Rep:
    """One pass of the pipeline: per-command wall and CPU times, peak RSS, spans."""

    def __init__(self):
        self.walls: dict[str, float] = {}
        self.cpus: dict[str, float] = {}
        self.cals: list[float] = []  # before each command, and after the last
        self.rss_mb = 0.0
        self.traces: dict[str, dict] = {}

    def ratio(self, cmd: str) -> float:
        """CPU time of ``cmd`` over the mean of the calibrations just before
        and just after it, on the same core."""
        i = PIPELINE.index(cmd)
        return self.cpus[cmd] / ((self.cals[i] + self.cals[i + 1]) / 2)

    @property
    def pipeline_s(self) -> float:
        return sum(self.walls.values())

    @property
    def calibrated_s(self) -> float:
        return CAL_REF_S * sum(self.ratio(c) for c in PIPELINE)


def tree_digest(path: Path) -> dict[str, str]:
    """sha256 of every file below ``path`` except the run_meta timing sidecars."""
    out = {}
    for f in sorted(path.rglob("*")):
        if f.is_file() and not f.name.startswith("run_meta_"):
            out[str(f.relative_to(path))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def xy_rows(path: Path) -> list[tuple[float, float]]:
    """The (x, y) columns of a t,x,y,yaw trajectory CSV."""
    with open(path, newline="") as fh:
        return [(float(row[1]), float(row[2])) for row in list(csv.reader(fh))[1:]]


def digest_diff(a: dict, b: dict) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def environment(seed: int, calibration: Calibration) -> dict:
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
        for line in conf.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": calibration.info["numpy"],
        "blas": calibration.info["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes_per_core": caches.get("LEVEL2_CACHE_SIZE"),
        "l3_bytes": caches.get("LEVEL3_CACHE_SIZE"),
        "seed": seed,
    }


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, env_info: dict,
                 calibration: Calibration):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.info = env_info
        self.network = WORKLOADS[workload].get("estimator.kind") == "network"
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None
        self.accuracy: dict[str, float] = {}
        self.frames = 0
        self.calibration = calibration
        self.cal: list[float] = []
        self.cores = sorted(os.sched_getaffinity(0))
        self.reps = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        work.mkdir(parents=True)
        cfg = dict(WORKLOADS[workload], **{"sim.seed": seed})
        if self.network:
            cfg["estimator.weights"] = str(self.weights(0))
        self.config = work / "config.json"
        self.config.write_text(json.dumps(cfg, sort_keys=True))

    # -- checks and processes ------------------------------------------------

    def pin(self, k: int) -> None:
        """Run the k-th set-up or rep, and its calibrations, on core k mod nproc.
        Each core of a shared machine is slowed by its own neighbours, so a
        calibration only tracks the command it brackets on the same core."""
        core = {self.cores[k % len(self.cores)]}
        os.sched_setaffinity(0, core)  # inherited by the commands started next
        os.sched_setaffinity(self.calibration.proc.pid, core)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float, float]:
        """Run the calibration kernel, then one process to its end: exit code,
        wall seconds, CPU seconds (user + system), max RSS in MB."""
        self.cal.append(self.calibration())
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                watchdog.join()
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            print("\n".join(tail), file=sys.stderr)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss * 1024 / 1e6)

    def weights(self, i: int) -> Path:
        return self.work / f"setup{i}.weights.json"

    def command(self, cmd: str, dataset: Path, trace_out: Path | None = None):
        """Run one CLI command on ``dataset``; return (ok, wall_s, cpu_s, rss_mb)."""
        args = [cmd, "--out" if cmd == "simulate" else "--dataset", str(dataset),
                "--config", str(self.config)]
        if trace_out is None:
            argv = [sys.executable, "-m", "sweepnav.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_out), *args]
        code, wall, cpu, rss = self.spawn(argv, self.work / f"{dataset.name}.{cmd}.log")
        ok = self.check(code == 0, f"{dataset.name}: {cmd} exited {code}")
        if ok:
            try:
                manifest = json.loads((dataset / "manifest.json").read_text())
            except (OSError, ValueError):
                manifest = {}
            missing = [k for k in PRODUCES[cmd] if k not in manifest]
            missing += [v for v in manifest.values() if not (dataset / v).exists()]
            ok = self.check(not missing,
                            f"{dataset.name}: {cmd} left manifest artifacts missing: {missing}")
        return ok, wall, cpu, rss

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> list[float]:
        """Build the dataset SETUP_REPS times; return each build's CPU time
        over the mean of the calibrations before, between and after its
        processes."""
        ratios = []
        reference = None
        for i in range(SETUP_REPS):
            self.pin(i)
            first_cal = len(self.cal)
            cpu = 0.0
            if self.network:
                code, _, c, _ = self.spawn(
                    [sys.executable, str(HERE / "make_weights.py"), str(self.weights(i)),
                     str(self.seed)], self.work / f"setup{i}.weights.log")
                if not self.check(code == 0, f"setup{i}: make_weights exited {code}"):
                    return ratios
                cpu += c
            dataset = self.work / f"setup{i}"
            ok, _, c, _ = self.command("simulate", dataset)
            if not ok:
                return ratios
            self.cal.append(self.calibration())
            cals = self.cal[first_cal:]
            ratios.append((cpu + c) / (sum(cals) / len(cals)))
            digest = tree_digest(dataset)
            if self.network:
                digest["weights"] = hashlib.sha256(self.weights(i).read_bytes()).hexdigest()
            if reference is None:
                reference = digest
            else:
                self.check(digest == reference,
                           f"setup{i} differs from setup0: {digest_diff(digest, reference)}")
        return ratios

    def traced_simulate(self) -> dict | None:
        dataset = self.work / "traced_setup"
        trace_out = self.work / "traced_setup.trace.json"
        ok, _, _, _ = self.command("simulate", dataset, trace_out)
        if not ok:
            return None
        diff = digest_diff(tree_digest(dataset), tree_digest(self.work / "setup0"))
        self.check(not diff, f"traced simulate differs from setup0: {diff}")
        return json.loads(trace_out.read_text())

    # -- the pipeline ------------------------------------------------------------

    def chain(self, tag: str, traced: bool = False) -> Rep | None:
        dataset = self.work / tag
        shutil.copytree(self.work / "setup0", dataset)
        rep = Rep()
        self.pin(self.reps)
        self.reps += 1
        first_cal = len(self.cal)
        for cmd in PIPELINE:
            trace_out = self.work / f"{tag}.{cmd}.trace.json" if traced else None
            ok, rep.walls[cmd], rep.cpus[cmd], rss = self.command(cmd, dataset, trace_out)
            rep.rss_mb = max(rep.rss_mb, rss)
            if not ok:
                return None
            if traced:
                rep.traces[cmd] = json.loads(trace_out.read_text())
        self.cal.append(self.calibration())
        rep.cals = self.cal[first_cal:]
        digest = tree_digest(dataset)
        if self.reference is None:
            self.reference = digest
            self.read_accuracy(dataset)
        else:
            diff = digest_diff(digest, self.reference)
            self.check(not diff, f"{tag}: outputs differ from the first rep: {diff}")
        shutil.rmtree(dataset)
        return rep

    def read_accuracy(self, dataset: Path) -> None:
        """Accuracy from the artifacts themselves, never from run_meta_*.json."""
        try:
            report = json.loads((dataset / "eval_grid_1.0.json").read_text())
            map_eval = json.loads((dataset / "map_eval.json").read_text())
            est = xy_rows(dataset / "est_trajectory.csv")
            refined = xy_rows(dataset / "refined_trajectory.csv")
            n_gt = map_eval["n_matched"] + len(map_eval["unmatched_gt"])
            acc = {
                "rte_metric_m": float(report["rte_metric"]),
                "closure_gap_m": math.dist(refined[-1], est[0]),
                "map_error_m": float(map_eval["mean_error"]),
                "map_matched_frac": map_eval["n_matched"] / n_gt,
            }
        except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            self.check(False, f"accuracy artifacts unreadable: {exc!r}")
            return
        if self.check(all(math.isfinite(v) for v in acc.values()),
                      f"non-finite accuracy: {acc}"):
            self.accuracy = acc
            self.frames = len(est)

    def measure(self, seconds: float, trace: bool) -> tuple[list[Rep], list[Rep]]:
        """Untraced reps until ``seconds`` have passed and at least MIN_REPS
        ran; with ``trace``, a traced rep after each untraced one, until
        ``seconds`` have passed (at least one pair)."""
        plain: list[Rep] = []
        traced: list[Rep] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(plain) < (1 if trace else MIN_REPS):
            rep = self.chain(f"rep{len(plain)}")
            if rep is None:
                break
            plain.append(rep)
            if trace:
                rep = self.chain(f"traced{len(traced)}", traced=True)
                if rep is None:
                    break
                traced.append(rep)
        return plain, traced

    @property
    def failed(self) -> int:
        return len(self.failures)


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"median of n={n}; a tail percentile needs >= 20 reps"
    p = math.floor(100 * (n - 10) / n)
    q = quantiles(values, n=100, method="inclusive")[p - 1]
    return f"median of n={n}; p{p} {q:.4f} s"


def end_to_end(bench: Bench, setup_ratios: list[float], reps: list[Rep]) -> dict:
    def calibrated(cmds: tuple[str, ...]) -> float:
        """Each command's median calibrated CPU time over the reps, summed."""
        return CAL_REF_S * sum(median(r.ratio(c) for r in reps) for c in cmds)

    pipeline = calibrated(PIPELINE)
    values = {
        "setup_s": CAL_REF_S * median(setup_ratios),
        "pipeline_s": pipeline,
        "infer_s": calibrated(("infer",)),
        "refine_s": calibrated(("refine",)),
        "post_s": calibrated(POST),
        "frames_per_s": bench.frames / pipeline,
        "peak_rss_mb": max(r.rss_mb for r in reps),
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
        "rte_metric_m": bench.accuracy["rte_metric_m"],
    }
    print("  per-layer accuracy and failures: " + ", ".join(
        f"{k} {v:.6g}" for k, v in [*bench.accuracy.items(),
                                     ("failed_frac", bench.failed / bench.attempted)]))
    cal = bench.cal
    print(f"  calibration kernel CPU s, n={len(cal)}: min {min(cal):.4f}, "
          f"median {median(cal):.4f}, max {max(cal):.4f}")
    per_rep = [r.calibrated_s for r in reps]
    print(f"  pipeline calibrated s, {tail_note(per_rep)}: "
          + " ".join(f"{x:.3f}" for x in per_rep))
    print("  pipeline wall s per rep: " + " ".join(f"{r.pipeline_s:.3f}" for r in reps))
    for cmds in (PIPELINE, ("infer",), ("refine",), POST):
        print(f"  {'+'.join(cmds)} CPU s per rep: "
              + " ".join(f"{sum(r.cpus[c] for c in cmds):.3f}" for r in reps))
    print(f"  setup_s: median of n={len(setup_ratios)} builds; CPU over calibration: "
          + " ".join(f"{x:.3f}" for x in setup_ratios))
    return values


def layer_values(rep: Rep, l2_bytes: int | None) -> dict:
    """Per-layer metrics of one traced rep."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for doc in rep.traces.values():
        for name, agg in doc["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for k, v in doc["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def s(name: str, field: str = "total_s") -> float:
        return spans.get(name, {}).get(field, 0)

    def c(key: str) -> float:
        return counts.get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {"cli.import_s": median([doc["import_s"] for doc in rep.traces.values()]),
         "cli._render_svg.s": s("cli._render_svg")}
    for cmd in PIPELINE:
        doc = rep.traces[cmd]
        root = doc["spans"][f"cli.{cmd}"]
        m[f"cli.{cmd}.self_s"] = root["self_s"]
        m[f"cli.{cmd}.unattributed_s"] = rep.walls[cmd] - doc["import_s"] - root["total_s"]

    samples = c("orientation.samples")
    m["orientation.estimate_orientation.s"] = s("orientation.estimate_orientation")
    m["orientation.estimate_orientation.samples"] = samples
    m["orientation.us_per_sample"] = ratio(1e6 * s("orientation.estimate_orientation"), samples)
    m["orientation.relative_yaw.s"] = s("orientation.relative_yaw")

    m["imu.load_imu.s"] = s("imu.load_imu")
    m["imu.load_imu.rows"] = c("imu.load_imu.rows")
    m["imu.to_hacf.s"] = s("imu.to_hacf")
    m["imu.make_windows.s"] = s("imu.make_windows")
    m["imu.make_windows.windows"] = c("imu.make_windows.windows")

    ev_calls = s("estimator.estimate_velocity", "calls")
    # computed: each pass through the dense net costs sum(2 * rows * cols)
    net_mflop = ev_calls * c("estimator.flop_per_pass") / 1e6
    m["estimator.estimate_velocity.calls"] = ev_calls
    m["estimator.estimate_velocity.s"] = s("estimator.estimate_velocity")
    m["estimator.nonfinite"] = c("estimator.nonfinite")
    m["estimator.clamped"] = c("estimator.clamped")
    m["estimator.load_weights.s"] = s("estimator.load_weights")
    m["estimator.net_mflop"] = net_mflop
    m["estimator.net_gflops"] = ratio(net_mflop / 1e3,
                                      s("estimator.estimate_velocity", "self_s"))

    m["rae.rae_estimate.calls"] = s("rae.rae_estimate", "calls")
    m["rae.rae_estimate.self_s"] = s("rae.rae_estimate", "self_s")
    m["rae.members_kept_ratio"] = ratio(c("estimator.returned"), ev_calls)

    m["trajectory.integrate.self_s"] = s("trajectory.integrate", "self_s")
    m["trajectory.held_velocities.s"] = s("trajectory.held_velocities")
    m["trajectory.capture_schedule.s"] = s("trajectory.capture_schedule")
    m["trajectory.capture_schedule.captures"] = c("trajectory.captures")
    m["trajectory.load_trajectory.calls"] = s("trajectory.load_trajectory", "calls")
    m["trajectory.load_trajectory.s"] = s("trajectory.load_trajectory")
    m["trajectory.load_trajectory.rows"] = c("trajectory.load_trajectory.rows")
    m["trajectory.save_trajectory.s"] = s("trajectory.save_trajectory")

    frames, hidden = c("loop_closure.frames"), c("loop_closure.hidden")
    epochs = s("loop_closure.loss_and_gradients", "calls")
    # computed: dense matmul FLOPs of one forward + backward pass of the
    # 1 -> hidden -> hidden -> 3 correction MLP over T frames
    epoch_mflop = (6 * frames * hidden ** 2 + 22 * frames * hidden) / 1e6
    activation_bytes = 8 * frames * hidden  # one float64 (T, hidden) array
    m["loop_closure.refine.s"] = s("loop_closure.refine")
    m["loop_closure.refine.self_s"] = s("loop_closure.refine", "self_s")
    m["loop_closure.loss_and_gradients.calls"] = epochs
    m["loop_closure.epoch_ms"] = ratio(1e3 * s("loop_closure.refine"), epochs)
    m["loop_closure.epoch_mflop"] = epoch_mflop
    m["loop_closure.gflops"] = ratio(epoch_mflop * epochs / 1e3,
                                     s("loop_closure.loss_and_gradients", "self_s"))
    m["loop_closure.activation_mb"] = activation_bytes / 2 ** 20
    m["loop_closure.activation_l2_ratio"] = ratio(activation_bytes, l2_bytes or 0)
    m["loop_closure.best_epoch_ratio"] = ratio(c("loop_closure.best_epoch"),
                                               c("loop_closure.epochs"))
    m["loop_closure.identity_fallback"] = c("loop_closure.identity_fallback")
    m["loop_closure.save_corrections.s"] = s("loop_closure.save_corrections")

    m["metrics.evaluate.s"] = s("metrics.evaluate")
    m["metrics.inlier_ratio"] = ratio(c("metrics.inliers"), c("metrics.pairs"))

    m["object_map.load_raster.calls"] = s("object_map.load_raster", "calls")
    m["object_map.load_raster.s"] = s("object_map.load_raster")
    m["object_map.observe_items.s"] = s("object_map.observe_items")
    m["object_map.observations"] = c("object_map.observations")
    m["object_map.cluster_items.s"] = s("object_map.cluster_items")
    m["object_map.captions_used_ratio"] = ratio(c("object_map.captions_observed"),
                                                c("object_map.captions"))

    m["share.rae_of_infer"] = ratio(s("rae.rae_estimate"), rep.walls["infer"])
    m["share.loop_closure_of_refine"] = ratio(s("loop_closure.refine"), rep.walls["refine"])
    return m


def per_layer(bench: Bench, sim_trace: dict, plain: list[Rep], traced: list[Rep]) -> dict:
    per_rep = [layer_values(r, bench.info["l2_bytes_per_core"]) for r in traced]
    values = {k: median([v[k] for v in per_rep]) for k in per_rep[0]}
    sim_spans = sim_trace["spans"]
    for name in ("sim.generate_trajectory", "sim.synthesize_imu", "sim.generate_scene",
                 "imu.save_imu"):
        values[f"{name}.s"] = sim_spans.get(name, {}).get("total_s", 0.0)
    untraced = median([r.calibrated_s for r in plain])
    values["trace.overhead_s"] = median([r.calibrated_s for r in traced]) - untraced
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced
    values.update(bench.accuracy)
    values["failed_frac"] = bench.failed / bench.attempted

    print("  wall time per command = import + layer self time + unattributed "
          "(median over traced reps, s):")
    for cmd in PIPELINE:
        wall = median([r.walls[cmd] for r in traced])
        print(f"    {cmd:7s} {wall:8.4f} = {values['cli.import_s']:.4f} import"
              f" + {wall - values['cli.import_s'] - values[f'cli.{cmd}.unattributed_s']:.4f}"
              f" layers + {values[f'cli.{cmd}.unattributed_s']:.4f} unattributed")
    print(f"  tracing overhead {values['trace.overhead_s']:+.4f} s on the pipeline "
          f"({values['trace.overhead_frac']:+.2%}); "
          f"{len(plain)} untraced and {len(traced)} traced reps")
    return values


# Per-layer values derived from shapes and formulas rather than timed.
COMPUTED = {"estimator.net_mflop", "loop_closure.epoch_mflop", "loop_closure.activation_mb",
            "loop_closure.activation_l2_ratio"}


def report(values: dict, specs: list[dict]) -> dict:
    metrics = {}
    for spec in specs:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        note = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:42s} {values[name]:14.6g} {spec['unit']}{note}")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
                 env_info: dict, calibration: Calibration, work: Path) -> tuple[Bench, dict]:
    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("env " + json.dumps(env_info, sort_keys=True))
    bench = Bench(workload, seed, work, env_info, calibration)
    setup_ratios = bench.setup()
    if len(setup_ratios) < SETUP_REPS:
        return bench, {}
    sim_trace = bench.traced_simulate() if trace else None
    plain, traced = bench.measure(seconds, trace)
    if not plain or not bench.accuracy or (trace and (not traced or sim_trace is None)):
        return bench, {}
    if trace:
        values = per_layer(bench, sim_trace, plain, traced)
        return bench, report(values, spec["per_layer"])
    values = end_to_end(bench, setup_ratios, plain)
    return bench, report(values, spec["end_to_end"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "sweepnav" / "cli.py").is_file():
        print(f"error: no sweepnav source under {ROOT / 'src'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # inherited by every child
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / WORK_DIR
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    complete = True
    calibration = Calibration()
    try:
        env_info = environment(args.seed, calibration)
        for workload in workloads:
            work = work_root / f"{workload}-{args.seed}-{os.getpid()}"
            try:
                bench, result = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), spec, env_info, calibration,
                                             work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            attempted += bench.attempted
            failed += bench.failed
            complete = complete and bool(result)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in result.items()})
    finally:
        calibration.close()
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    if not complete:
        print("error: the run stopped before every metric was measured", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
