"""IMU-only indoor navigation and object mapping for coverage robots.

A smartphone strapped to a cleaning robot records IMU data; this
package turns that stream into a trajectory (learned velocity
regression wrapped in a rotation-augmented ensemble, Kalman
integration), tightens it with start-equals-end loop closure, schedules
image captures along the path, and geo-localizes captioned items via
depth unprojection and per-name clustering.  A simulator generates
closed coverage runs with synthetic IMU and scenes for testing all of
it end to end.
"""

from .estimator import (
    DenseVelocityNetwork,
    NonFiniteEstimateError,
    OracleConfig,
    OracleVelocityEstimator,
    WeightsBundle,
    estimate_velocity,
    load_weights,
    make_random_bundle,
    save_weights,
)
from .geometry import GRAVITY, rot2, rotate_xy, wrap_angle
from .imu import (
    ImuSequence,
    load_imu,
    make_windows,
    resample,
    save_imu,
    to_hacf,
)
from .loop_closure import (
    CorrectionParams,
    LossBreakdown,
    RefineConfig,
    apply_corrections,
    refine,
    refinement_loss,
)
from .metrics import (
    AlignmentResult,
    EvalReport,
    align_similarity,
    apply_alignment,
    evaluate,
)
from .object_map import (
    CaptionRecord,
    DepthRaster,
    HttpCaptioner,
    ItemCluster,
    ItemObservation,
    MapConfig,
    cluster_items,
    evaluate_map,
    fetch_captions,
    load_raster,
    normalize_name,
    observe_items,
    save_raster,
)
from .orientation import (
    OrientationSequence,
    estimate_orientation,
    load_orientations,
    relative_yaw,
    save_orientations,
)
from .rae import RaeConfig, ensemble_angles, rae_estimate
from .sim import (
    SceneConfig,
    SimConfig,
    generate_scene,
    generate_trajectory,
    synthesize_imu,
    true_orientations,
)
from .trajectory import (
    CaptureEvent,
    KalmanConfig,
    Pose2,
    Trajectory,
    capture_schedule,
    held_velocities,
    image_id_for_frame,
    integrate,
    load_trajectory,
    save_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "GRAVITY",
    "AlignmentResult",
    "CaptionRecord",
    "CaptureEvent",
    "CorrectionParams",
    "DenseVelocityNetwork",
    "DepthRaster",
    "EvalReport",
    "HttpCaptioner",
    "ImuSequence",
    "ItemCluster",
    "ItemObservation",
    "KalmanConfig",
    "LossBreakdown",
    "MapConfig",
    "NonFiniteEstimateError",
    "OracleConfig",
    "OracleVelocityEstimator",
    "OrientationSequence",
    "Pose2",
    "RaeConfig",
    "RefineConfig",
    "SceneConfig",
    "SimConfig",
    "Trajectory",
    "WeightsBundle",
    "align_similarity",
    "apply_alignment",
    "apply_corrections",
    "capture_schedule",
    "cluster_items",
    "ensemble_angles",
    "estimate_orientation",
    "estimate_velocity",
    "evaluate",
    "evaluate_map",
    "fetch_captions",
    "generate_scene",
    "generate_trajectory",
    "held_velocities",
    "image_id_for_frame",
    "integrate",
    "load_imu",
    "load_orientations",
    "load_raster",
    "load_trajectory",
    "load_weights",
    "make_random_bundle",
    "make_windows",
    "normalize_name",
    "observe_items",
    "rae_estimate",
    "refine",
    "refinement_loss",
    "relative_yaw",
    "resample",
    "rot2",
    "rotate_xy",
    "save_imu",
    "save_orientations",
    "save_raster",
    "save_trajectory",
    "save_weights",
    "synthesize_imu",
    "to_hacf",
    "true_orientations",
    "wrap_angle",
]
