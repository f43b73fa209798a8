"""IMU-only indoor navigation and object mapping for coverage robots.

A smartphone strapped to a cleaning robot records IMU data; this
package turns that stream into a trajectory (learned velocity
regression wrapped in a rotation-augmented ensemble, Kalman
integration), tightens it with start-equals-end loop closure, schedules
image captures along the path, and geo-localizes captioned items via
depth unprojection and per-name clustering.  A simulator generates
closed coverage runs with synthetic IMU and scenes for testing all of
it end to end.

The names below are imported from their modules on first use (PEP 562),
so ``import sweepnav`` or a single command loads only what it touches.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "config": ("KalmanConfig", "MapConfig", "RaeConfig", "RefineConfig", "SceneConfig",
               "SimConfig"),
    "estimator": ("DenseVelocityNetwork", "NonFiniteEstimateError", "OracleConfig",
                  "OracleVelocityEstimator", "WeightsBundle", "estimate_velocity",
                  "load_weights", "make_random_bundle", "save_weights"),
    "geometry": ("GRAVITY", "rot2", "rotate_xy", "wrap_angle"),
    "imu": ("ImuSequence", "load_imu", "make_windows", "resample", "save_imu", "to_hacf"),
    "loop_closure": ("CorrectionParams", "LossBreakdown", "apply_corrections", "refine",
                     "refinement_loss"),
    "metrics": ("AlignmentResult", "EvalReport", "align_similarity", "apply_alignment",
                "evaluate"),
    "object_map": ("CaptionRecord", "DepthRaster", "HttpCaptioner", "ItemCluster",
                   "ItemObservation", "cluster_items", "evaluate_map", "fetch_captions",
                   "load_raster", "normalize_name", "observe_items", "save_raster"),
    "orientation": ("OrientationSequence", "estimate_orientation", "load_orientations",
                    "relative_yaw", "save_orientations"),
    "rae": ("ensemble_angles", "rae_estimate"),
    "sim": ("generate_scene", "generate_trajectory", "synthesize_imu", "true_orientations"),
    "trajectory": ("CaptureEvent", "Pose2", "Trajectory", "capture_schedule",
                   "held_velocities", "image_id_for_frame", "integrate", "load_trajectory",
                   "save_trajectory"),
}
# public name -> its module
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))
