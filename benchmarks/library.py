"""The library entry points the workloads call, wrapped by a tracer.

Every workload reaches lanebev through the namespace library_api returns,
so a traced run records one span per call and an untraced run calls the
functions themselves.
"""

from __future__ import annotations

from types import SimpleNamespace

import lanebev
from lanebev import data_io
from lanebev.losses import PredictionBatch
from lanebev.synth import checkerboard, jittered_rig

# One attribute each on the namespace; the span name is "<module>.<function>".
_ENTRY_POINTS = {
    "generate_scene": lanebev.generate_scene,
    "jittered_rig": jittered_rig,
    "checkerboard": checkerboard,
    "render_ground_pattern": lanebev.render_ground_pattern,
    "mean_virtual_camera": lanebev.mean_virtual_camera,
    "compute_homography": lanebev.compute_homography,
    "warp_image": lanebev.warp_image,
    "encode_lanes": lanebev.encode_lanes,
    "ideal_prediction": lanebev.ideal_prediction,
    "Lane3D": lanebev.Lane3D,
    "GridTensors": lanebev.GridTensors,
    "PredictionBatch": PredictionBatch,
    "activate": PredictionBatch.activate,
    "total_loss": lanebev.total_loss,
    "build_ipm_sampling_map": lanebev.build_ipm_sampling_map,
    "FeatureTensor": lanebev.FeatureTensor,
    "apply_pyramid": lanebev.apply_pyramid,
    "decode_grid": lanebev.decode_grid,
    "fit_lanes": lanebev.fit_lanes,
    "evaluate": lanebev.evaluate,
    "evaluate_frames": lanebev.evaluate_frames,
    "write_tensor": data_io.write_tensor,
    "read_tensor": data_io.read_tensor,
    "save_lanes": data_io.save_lanes,
    "load_lanes": data_io.load_lanes,
}


def library_api(tracer) -> SimpleNamespace:
    """The library entry points, wrapped by `tracer` (a spans.Tracer or spans.NoTracer)."""
    return SimpleNamespace(**{key: tracer.wrap(fn) for key, fn in _ENTRY_POINTS.items()})
