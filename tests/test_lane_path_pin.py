"""Pinned outputs of the lane path on 24 seeded frames.

The SHA-256 of the `encode_lanes` tensors and the `evaluate_frames` report
text were recorded with the per-cell encoder and the pairwise matcher
(`reference_encode_lanes` and `reference_match_lanes` in the tests).  A
refactor of the lane path that moves one bit of either fails here.
"""

import hashlib
import json

import numpy as np

from lanebev.lane_grid import Lane3D, encode_lanes
from lanebev.metrics import evaluate_frames
from lanebev.synth import SceneParams, generate_scene

ENCODE_SHA256 = "5cbcc2324c741a6508e894bd0c9cb429ca17b9cbf451ea7aa70cf585ce64f694"
EVALUATE_FRAMES_JSON = (
    '{"f_score": 0.5957446808510638, "precision": 0.5957446808510638, "recall": 0.5957446808510638, '
    '"x_err_near": 0.608166385763193, "x_err_far": 0.6069122188002364, "z_err_near": 0.03713144423609984, '
    '"z_err_far": 0.040092693265189175, "tp": 56, "n_pred": 94, "n_gt": 94}'
)


def pin_frames() -> list[tuple[list[Lane3D], list[Lane3D]]]:
    """(preds, gts) of 24 scenes with 2-6 lanes.  The predictions move each
    lane laterally (a per-lane bias plus per-point noise) and in height, drop
    one lane and add one spurious lane."""
    frames = []
    for i in range(24):
        rng = np.random.default_rng([2210, i])
        params = SceneParams(
            n_lanes=2 + i % 5,
            curvature=(-1e-4, 1e-4),
            hill_amplitude=float(rng.uniform(0.0, 2.0)),
            seed=int(rng.integers(2**31)),
        )
        gts = generate_scene(params).lanes
        dropped = int(rng.integers(len(gts)))
        preds = []
        for k, lane in enumerate(gts):
            if k == dropped:
                continue
            pts = lane.points.copy()
            pts[:, 1] += rng.normal(0.0, 0.6) + rng.normal(0.0, 0.15, len(pts))
            pts[:, 2] += rng.normal(0.0, 0.05, len(pts))
            preds.append(Lane3D(points=pts, id=lane.id))
        x0, x1 = rng.uniform(3.0, 40.0), rng.uniform(50.0, 103.0)
        y = rng.uniform(-9.0, 9.0)
        preds.append(Lane3D(points=np.array([[x0, y, 0.0], [x1, y + rng.normal(0.0, 1.0), 0.0]]), id=len(gts) + 1))
        frames.append((preds, gts))
    return frames


def test_encode_lanes_tensors_are_pinned():
    digest = hashlib.sha256()
    for preds, gts in pin_frames():
        for lanes in (gts, preds):
            gt = encode_lanes(lanes)
            for arr in (gt.confidence, gt.offset, gt.height):
                digest.update(arr.astype("<f8").tobytes())
            digest.update(gt.instance.astype("<i8").tobytes())
    assert digest.hexdigest() == ENCODE_SHA256


def test_evaluate_frames_report_is_pinned():
    assert json.dumps(evaluate_frames(pin_frames()).to_dict()) == EVALUATE_FRAMES_JSON
