"""The benchmark's frame workloads: seeded inputs, one frame, its checks and counts.

Every workload draws its inputs from the run's seed and the frame index
only, so the same seed gives the same frames in every process.  A workload
object is built once per process (its set-up), then `frame(i)` runs frame
i through the library, `check` lists what is wrong with its output,
`counts` gives the exact per-frame counts that must repeat bit-for-bit,
and `finish` does the run-level work over the scored frames.

All library calls go through `api` (see library.library_api), so a traced
run records one span per call.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np
from scipy import sparse

from lanebev import DecodeParams, GridSpec, PyramidSpec, SceneParams, render_ground_pattern, warp_image
from lanebev.losses import LossWeights

# generate_scene warns whenever curvature could make neighbouring lanes
# meet; the per-scene curvature cap below keeps them apart on the grid.
warnings.filterwarnings("ignore", message="lane_spacing may not guarantee")

SPEC = GridSpec()
DECODE = DecodeParams()
EMBED_DIM = 8
LANE_SPACING = 3.5
MAX_CURVATURE = 3e-4  # 1/m
MAX_HILL = 2.0  # m
RIG_JITTER = (2.0, 0.2)  # degrees, meters


def frame_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def scene_params(rng: np.random.Generator, i: int) -> SceneParams:
    """Scene of frame i: 1-6 lanes, |curvature| <= 3e-4 /m, hills 0-2 m,
    rig jitter 2 deg / 0.2 m.

    The lane count cycles with the frame index, so every run holds the same
    mix of light and heavy frames and seeds differ only in the rest.  The
    curvature cap also keeps the outermost lane inside the 20 m wide grid,
    as in the acceptance oracle, so the ideal roundtrip is exact.
    """
    n_lanes = 1 + i % 6
    outer = (n_lanes - 1) / 2.0 * LANE_SPACING
    c_max = min(MAX_CURVATURE, (SPEC.y_max - SPEC.cell - outer) / SPEC.x_max**2)
    return SceneParams(
        n_lanes=n_lanes,
        lane_spacing=LANE_SPACING,
        curvature=(-c_max, c_max),
        hill_amplitude=float(rng.uniform(0.0, MAX_HILL)),
        camera_jitter=RIG_JITTER,
        seed=int(rng.integers(2**31)),
    )


def stack_prediction(pred) -> np.ndarray:
    """The CLI's stacked prediction layout: [confidence, embedding..., offset, height]."""
    return np.concatenate(
        [pred.confidence[:, :, None], pred.embedding, pred.offset[:, :, None], pred.height[:, :, None]],
        axis=2,
    )


def unstack_prediction(api, stack: np.ndarray):
    """Inverse of stack_prediction, read the way `lanebev decode --pred` reads it."""
    return api.GridTensors(
        confidence=np.clip(stack[:, :, 0], 0.0, 1.0),
        embedding=stack[:, :, 1:-2],
        offset=stack[:, :, -2],
        height=stack[:, :, -1],
    )


class LaneFrames:
    """Scene -> grid truth -> prediction -> stored tensor -> decode -> fit ->
    stored lanes -> evaluation, one seeded scene per frame."""

    scored_frames = 36  # frames whose counts and F-Score must repeat exactly (about 1 s)

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        self.seed = seed
        self.workdir = workdir

    def stored_frame(self, i: int) -> tuple[Path, Path]:
        """Tensor and lanes files of frame i.  Frame 0 keeps its own pair so
        the CLI decode can be compared with it after the run."""
        stem = "frame0" if i == 0 else "frame"
        return self.workdir / f"{stem}.bldt", self.workdir / f"{stem}.json"

    def predict(self, rng, gt):
        """Prediction-side grid tensors for ground truth `gt`, and the loss (or None)."""
        raise NotImplementedError

    def frame(self, i: int) -> dict:
        api = self.api
        rng = frame_rng(self.seed, i)
        scene = api.generate_scene(scene_params(rng, i))
        gt = api.encode_lanes(scene.lanes, SPEC)
        pred, loss = self.predict(rng, gt)
        tensor_path, lanes_path = self.stored_frame(i)
        api.write_tensor(stack_prediction(pred), tensor_path)
        stored = unstack_prediction(api, api.read_tensor(tensor_path).astype(float))
        instances = api.decode_grid(stored, SPEC, DECODE)
        fits = api.fit_lanes(instances, DECODE)
        lanes = [api.Lane3D(points=inst.points, id=inst.cluster_id + 1) for inst in instances]
        api.save_lanes(lanes, lanes_path, fits)
        preds = api.load_lanes(lanes_path)
        result = api.evaluate(preds, scene.lanes)
        return {
            "gts": scene.lanes,
            "stored": stored,
            "instances": instances,
            "lanes": lanes,
            "preds": preds,
            "result": result,
            "loss": loss,
            "files": (tensor_path, lanes_path),
        }

    def check(self, out: dict) -> list[str]:
        raise NotImplementedError

    def counts(self, out: dict) -> dict:
        kept_points = sum(len(inst.points) for inst in out["instances"])
        result = out["result"]
        return {
            "confident_cells": int((out["stored"].confidence >= DECODE.s_threshold).sum()),
            "instances_kept": len(out["instances"]),
            "points_kept": kept_points,
            "points_deduped": kept_points - sum(len(lane.points) for lane in out["lanes"]),
            "pairs_costed": len(out["preds"]) * len(out["gts"]),
            "bytes_written": sum(path.stat().st_size for path in out["files"]),
            "tp": result.tp,
            "n_pred": result.n_pred,
            "n_gt": result.n_gt,
        }

    def finish(self, scored: list[dict]) -> dict:
        """Micro-averaged evaluation over the scored frames."""
        result = self.api.evaluate_frames([(out["preds"], out["gts"]) for out in scored])
        return {"f_score": result.f_score, "precision": result.precision, "recall": result.recall}


class OracleFrames(LaneFrames):
    """Ideal predictions (D = 8): the oracle roundtrip must be exact."""

    def predict(self, rng, gt):
        return self.api.ideal_prediction(gt, SPEC, embed_dim=EMBED_DIM), None

    def check(self, out: dict) -> list[str]:
        r = out["result"]
        problems = []
        if r.f_score != 1.0:
            problems.append(f"F-Score {r.f_score} != 1")
        for name, err, limit in (
            ("x_err_near", r.x_err_near, 0.01),
            ("x_err_far", r.x_err_far, 0.01),
            ("z_err_near", r.z_err_near, 0.05),
            ("z_err_far", r.z_err_far, 0.05),
        ):
            if err is None or not err < limit:
                problems.append(f"{name} {err} not below {limit} m")
        return problems


class NoisyFrames(LaneFrames):
    """Imperfect predictions: noisy embeddings, about 2% false-positive cells,
    small offset and height noise.  The 3D loss is computed first."""

    scored_frames = 18  # about 2.5 s

    EMBED_SIGMA = 0.4
    LANE_LOGIT = (2.0, 1.5)  # mean, sigma of confidence logits on lane cells
    BACKGROUND_LOGIT = (-3.0, 1.5)  # and elsewhere
    OFFSET_SIGMA = 0.05  # cells
    HEIGHT_SIGMA = 0.02  # m
    LOSS_WEIGHTS = LossWeights(w_seg2d=0.0, w_embed2d=0.0)  # 3D terms only

    def predict(self, rng, gt):
        api = self.api
        ideal = api.ideal_prediction(gt, SPEC, embed_dim=EMBED_DIM)
        lane = gt.instance > 0
        raw_conf = np.where(lane, rng.normal(*self.LANE_LOGIT, lane.shape), rng.normal(*self.BACKGROUND_LOGIT, lane.shape))
        embedding = ideal.embedding + rng.normal(0.0, self.EMBED_SIGMA, ideal.embedding.shape)
        offset = np.clip(gt.offset + rng.normal(0.0, self.OFFSET_SIGMA, lane.shape), -0.49, 0.49) + 0.5
        height = gt.height + rng.normal(0.0, self.HEIGHT_SIGMA, lane.shape)
        batch = api.PredictionBatch(
            raw_confidence=raw_conf,
            raw_offset=np.log(offset) - np.log1p(-offset),
            embedding=embedding,
            height=height,
        )
        loss = api.total_loss(batch, gt, weights=self.LOSS_WEIGHTS)
        return api.activate(batch), loss

    def check(self, out: dict) -> list[str]:
        problems = []
        if not math.isfinite(out["loss"]):
            problems.append(f"loss {out['loss']} is not finite")
        for inst in out["instances"]:
            x, y = inst.points[:, 0], inst.points[:, 1]
            if x.min() < SPEC.x_min or x.max() > SPEC.x_max or y.min() < SPEC.y_min or y.max() > SPEC.y_max:
                problems.append(f"cluster {inst.cluster_id} has points outside the grid extent")
        r = out["result"]
        if r.tp > min(r.n_pred, r.n_gt):
            problems.append(f"tp {r.tp} > min(n_pred {r.n_pred}, n_gt {r.n_gt})")
        return problems


class FleetViews:
    """Front-view path: render a fleet rig's view, warp it to the fleet's
    virtual camera, pool a feature pyramid and map it to BEV."""

    FLEET = 4
    IMAGE_SIZE = (1024, 576)  # width, height
    CHANNELS = 64
    PYRAMID = PyramidSpec(scales=(8, 16, 32), bev_shape=SPEC.shape)
    MAX_MAD = 2.0 / 255.0
    scored_frames = FLEET

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        rng = np.random.default_rng([seed])
        self.rigs = [api.jittered_rig(rng, *RIG_JITTER) for _ in range(self.FLEET)]
        self.virtual = api.mean_virtual_camera(self.rigs)
        width, height = self.IMAGE_SIZE
        self.maps = {
            s: api.build_ipm_sampling_map(self.virtual, (height // s, width // s), s, SPEC, SPEC.shape)
            for s in self.PYRAMID.scales
        }
        self.pattern = api.checkerboard(SPEC, square_x=20.0, square_y=4.0, px_per_cell=2)
        self.gains = rng.uniform(0.5, 1.5, self.CHANNELS)
        self._reference = None  # virtual-camera render and coverage, made at the first check
        self._rig_cover = {}

    def frame(self, i: int) -> dict:
        api = self.api
        rig = i % self.FLEET
        image = api.render_ground_pattern(self.rigs[rig], self.pattern, SPEC, self.IMAGE_SIZE)
        h = api.compute_homography(self.rigs[rig], self.virtual)
        warped = api.warp_image(image, h, self.IMAGE_SIZE)
        features = {s: api.FeatureTensor(self._block_mean(warped, s)[:, :, None] * self.gains, scale=s) for s in self.PYRAMID.scales}
        bev = api.apply_pyramid(self.maps, features, self.PYRAMID)
        return {"rig": rig, "h": h, "warped": warped, "bev": bev.data}

    @staticmethod
    def _block_mean(image: np.ndarray, s: int) -> np.ndarray:
        h, w = image.shape
        return image.reshape(h // s, s, w // s, s).mean(axis=(1, 3))

    def _interior(self, rig: int, h):
        """The virtual camera's own render, and the pixels fully covered by
        the ground pattern in both views (criterion 2).  Made from the
        library directly, so they neither add spans nor share a fault that
        a test injects into the frame's calls."""
        if self._reference is None:
            ones = np.ones_like(self.pattern)
            self._reference = (
                render_ground_pattern(self.virtual, self.pattern, SPEC, self.IMAGE_SIZE),
                render_ground_pattern(self.virtual, ones, SPEC, self.IMAGE_SIZE) > 0.999,
            )
        if rig not in self._rig_cover:
            cover = render_ground_pattern(self.rigs[rig], np.ones_like(self.pattern), SPEC, self.IMAGE_SIZE)
            self._rig_cover[rig] = warp_image(cover, h, self.IMAGE_SIZE) > 0.999
        return self._reference[0], self._reference[1] & self._rig_cover[rig]

    def interior_mad(self, out: dict) -> float:
        if "mad" not in out:
            reference, interior = self._interior(out["rig"], out["h"])
            out["mad"] = float(np.abs(out["warped"] - reference)[interior].mean())
        return out["mad"]

    def check(self, out: dict) -> list[str]:
        problems = []
        mad = self.interior_mad(out)
        if not mad < self.MAX_MAD:
            problems.append(f"interior MAD {mad:.5f} not below {self.MAX_MAD:.5f}")
        # Every channel is one pooled plane times a gain, and every map row
        # is a convex combination or zero, so per scale the BEV planes
        # divided by the gains must agree and lie in [0, 1].
        bev = out["bev"]
        for k, s in enumerate(self.PYRAMID.scales):
            planes = bev[:, :, k * self.CHANNELS : (k + 1) * self.CHANNELS] / self.gains
            if not np.allclose(planes, planes[:, :, :1], rtol=1e-9, atol=1e-12):
                problems.append(f"scale {s}: BEV channels disagree")
            if planes.min() < -1e-9 or planes.max() > 1.0 + 1e-9:
                problems.append(f"scale {s}: BEV values outside [0, 1]")
        return problems

    def counts(self, out: dict) -> dict:
        return {"rig": out["rig"], "interior_mad": self.interior_mad(out)}

    def finish(self, scored: list[dict]) -> dict:
        stats = [_operator_stats(m.matrix) for m in self.maps.values()]
        nnz = sum(s[1] for s in stats)
        performed = sum(s[2] for s in stats)
        return {
            "map_bytes": sum(s[0] for s in stats),
            "map_nnz": nnz,
            "map_density": nnz / performed,
            "apply_flops": 2 * performed * self.CHANNELS,
        }


def _operator_stats(matrix) -> tuple[int, int, int]:
    """(bytes held, non-zeros, multiplies per channel) of a map's operator.

    A dense matrix multiplies every entry; a scipy.sparse one only the
    entries it stores.
    """
    if sparse.issparse(matrix):
        csr = sparse.csr_array(matrix)
        held = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        return held, int(csr.count_nonzero()), int(csr.nnz)
    return matrix.nbytes, int(np.count_nonzero(matrix)), int(matrix.size)


WORKLOADS = {
    "oracle_frames": OracleFrames,
    "noisy_frames": NoisyFrames,
    "fleet_views": FleetViews,
}
