"""Deterministic core of a monocular BEV 3D-lane-detection pipeline.

Submodules:

  camera_geometry  pinhole projection, virtual-camera averaging, homographies
  lane_grid        BEV grid geometry and key-points ground-truth encoding
  losses           training-loss numerics with analytic gradients
  view_transform   front-view to BEV linear operators and their fitting
  postproc         confidence gating, embedding clustering, curve fitting
  metrics          lane-level F-Score and lateral/height error protocol
  synth            seeded synthetic scenes and ground-pattern rendering
  data_io          .npy tensors, JSON schemas, OpenLane frames, PGM/PPM
  cli              batch command-line front end
"""

from .camera_geometry import (
    CameraRig,
    Extrinsics,
    Homography,
    Intrinsics,
    compute_homography,
    mean_virtual_camera,
    project_ground_point,
    warp_image,
)
from .lane_grid import GridSpec, GridTensors, Lane3D, encode_lanes, ideal_prediction
from .losses import (
    LossWeights,
    PredictionBatch,
    conf_loss,
    embed_loss,
    height_loss,
    offset_loss,
    seg_loss_2d,
    total_loss,
)
from .metrics import EvalConfig, EvalResult, evaluate, evaluate_frames, match_lanes, resample_lane
from .postproc import DecodeParams, FittedLane, LaneInstance, decode_grid, decode_lanes, fit_lanes
from .synth import SceneParams, SceneRecord, canonical_rig, generate_scene, render_ground_pattern
from .view_transform import (
    FeatureTensor,
    PyramidSpec,
    ViewRelationMap,
    apply_pyramid,
    apply_vrm,
    build_ipm_sampling_map,
    fit_vrm_least_squares,
)

__version__ = "0.1.0"

__all__ = [
    "CameraRig",
    "DecodeParams",
    "EvalConfig",
    "EvalResult",
    "Extrinsics",
    "FeatureTensor",
    "FittedLane",
    "GridSpec",
    "GridTensors",
    "Homography",
    "Intrinsics",
    "Lane3D",
    "LaneInstance",
    "LossWeights",
    "PredictionBatch",
    "PyramidSpec",
    "SceneParams",
    "SceneRecord",
    "ViewRelationMap",
    "apply_pyramid",
    "apply_vrm",
    "build_ipm_sampling_map",
    "canonical_rig",
    "compute_homography",
    "conf_loss",
    "decode_grid",
    "decode_lanes",
    "embed_loss",
    "encode_lanes",
    "evaluate",
    "evaluate_frames",
    "fit_lanes",
    "fit_vrm_least_squares",
    "generate_scene",
    "height_loss",
    "ideal_prediction",
    "match_lanes",
    "mean_virtual_camera",
    "offset_loss",
    "project_ground_point",
    "render_ground_pattern",
    "resample_lane",
    "seg_loss_2d",
    "total_loss",
    "warp_image",
]
