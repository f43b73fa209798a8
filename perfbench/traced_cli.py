"""Run one sweepnav CLI command with a span around every layer call.

Usage: python3 traced_cli.py SPANS_JSON CLI_ARG...

The program is not changed.  Before ``sweepnav.cli.main`` runs, each
public function the pipeline calls is replaced, from outside, by a
wrapper that records a span (name, start, end, parent) and, for some
layers, a count taken from its arguments, its result or the exception
passing through it.  The wrapper is installed on the name the caller
looks up: names imported into ``sweepnav.cli`` are wrapped there, and
module globals reached by internal calls (``trajectory.held_velocities``
from ``integrate``, ``loop_closure.loss_and_gradients`` from ``refine``,
``rae.estimate_velocity`` from ``rae_estimate``) are wrapped in their
module, so that those calls nest as child spans.

Spans stay in memory; when the command ends, their totals and self
times (span minus the spans it caused) are written to SPANS_JSON with
the counts and the time ``import sweepnav.cli`` took.
"""

from __future__ import annotations

import functools
import json
import sys
import time

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, module, attr: str, name: str, on_return=None, on_raise=None) -> None:
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                spans[idx][2] = perf()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out


def install(tracer: Tracer, cli) -> None:
    import numpy as np

    from sweepnav import estimator, loop_closure, metrics, object_map, rae, sim, trajectory

    count = tracer.count
    wrap = tracer.wrap

    def count_len(key):
        return lambda args, kwargs, result: count(key, len(result))

    for cmd in ("simulate", "infer", "refine", "eval", "map", "plot"):
        wrap(cli, f"cmd_{cmd}", f"cli.{cmd}")
    wrap(cli, "_render_svg", "cli._render_svg")
    wrap(cli, "_load_velocities", "cli._load_velocities")
    wrap(cli, "load_manifest", "cli.load_manifest")
    wrap(cli, "save_manifest", "cli.save_manifest")

    wrap(cli, "load_imu", "imu.load_imu", count_len("imu.load_imu.rows"))
    wrap(cli, "resample", "imu.resample")
    wrap(cli, "save_imu", "imu.save_imu")
    wrap(cli, "to_hacf", "imu.to_hacf")
    wrap(cli, "make_windows", "imu.make_windows", count_len("imu.make_windows.windows"))

    wrap(cli, "estimate_orientation", "orientation.estimate_orientation",
         lambda args, kwargs, result: count("orientation.samples", len(args[0])))
    wrap(cli, "relative_yaw", "orientation.relative_yaw")
    wrap(cli, "save_orientations", "orientation.save_orientations")

    def on_weights(args, kwargs, bundle):
        count("estimator.flop_per_pass",
              sum(2 * layer.rows * layer.cols for layer in bundle.layers
                  if layer.kind == "dense"))

    wrap(estimator, "load_weights", "estimator.load_weights", on_weights)

    def on_estimate(args, kwargs, est):
        count("estimator.returned")
        if est.clamped:
            count("estimator.clamped")

    def on_estimate_raise(exc):
        if isinstance(exc, estimator.NonFiniteEstimateError):
            count("estimator.nonfinite")

    wrap(rae, "rae_estimate", "rae.rae_estimate")
    wrap(rae, "estimate_velocity", "estimator.estimate_velocity",
         on_estimate, on_estimate_raise)

    wrap(trajectory, "held_velocities", "trajectory.held_velocities")
    wrap(trajectory, "integrate", "trajectory.integrate")
    wrap(trajectory, "capture_schedule", "trajectory.capture_schedule",
         count_len("trajectory.captures"))
    wrap(trajectory, "load_trajectory", "trajectory.load_trajectory",
         count_len("trajectory.load_trajectory.rows"))
    wrap(trajectory, "save_trajectory", "trajectory.save_trajectory")
    wrap(trajectory, "save_captures", "trajectory.save_captures")

    def on_refine(args, kwargs, result):
        traj = args[0]
        cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or loop_closure.RefineConfig()
        _, corrections, history = result
        count("loop_closure.frames", len(traj))
        count("loop_closure.hidden", cfg.hidden)
        count("loop_closure.epochs", cfg.epochs)
        # refine keeps the first epoch whose loss is strictly below every
        # earlier one, so the returned corrections come from argmin(history);
        # it returns all-zero corrections when no epoch beat the input
        count("loop_closure.best_epoch", int(np.argmin([h.total for h in history])))
        count("loop_closure.identity_fallback",
              int(not np.any(corrections.r) and not np.any(corrections.l)))

    wrap(loop_closure, "refine", "loop_closure.refine", on_refine)
    wrap(loop_closure, "loss_and_gradients", "loop_closure.loss_and_gradients")
    wrap(loop_closure, "refinement_loss", "loop_closure.refinement_loss")
    wrap(loop_closure, "save_corrections", "loop_closure.save_corrections")
    wrap(loop_closure, "save_loss_history", "loop_closure.save_loss_history")

    def on_evaluate(args, kwargs, result):
        inliers = result[1].inliers
        count("metrics.inliers", int(inliers.sum()))
        count("metrics.pairs", int(inliers.size))

    wrap(metrics, "evaluate", "metrics.evaluate", on_evaluate)
    wrap(metrics, "save_report", "metrics.save_report")
    wrap(metrics, "save_residuals", "metrics.save_residuals")

    def on_observe(args, kwargs, result):
        count("object_map.observations", len(result))
        count("object_map.captions_observed", int(len(result) > 0))

    wrap(object_map, "load_captions", "object_map.load_captions",
         count_len("object_map.captions"))
    wrap(object_map, "load_raster", "object_map.load_raster")
    wrap(object_map, "observe_items", "object_map.observe_items", on_observe)
    wrap(object_map, "cluster_items", "object_map.cluster_items")
    wrap(object_map, "evaluate_map", "object_map.evaluate_map")
    wrap(object_map, "load_items_csv", "object_map.load_items_csv")
    wrap(object_map, "save_map", "object_map.save_map")
    wrap(object_map, "save_raster", "object_map.save_raster")

    wrap(sim, "generate_trajectory", "sim.generate_trajectory")
    wrap(sim, "synthesize_imu", "sim.synthesize_imu")
    wrap(sim, "true_orientations", "sim.true_orientations")
    wrap(sim, "default_items", "sim.default_items")
    wrap(sim, "generate_scene", "sim.generate_scene")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    t0 = perf()
    import sweepnav.cli as cli
    import_s = perf() - t0
    tracer = Tracer()
    install(tracer, cli)
    try:
        return cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.summary(),
                       "counts": tracer.counts}, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
