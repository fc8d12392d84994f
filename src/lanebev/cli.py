"""Batch command-line front end.

Exit codes: 0 success, 1 domain error (single-line JSON on stderr),
2 usage error.  Outputs contain no timestamps, so a fixed config and seed
reproduce byte-identical files.  Every subcommand prints its input/output
schema with --schema.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data_io
from .camera_geometry import compute_homography, warp_image
from .errors import LaneBevError
from .lane_grid import GridSpec, GridTensors, Lane3D, encode_lanes, ideal_prediction
from .losses import run_gradient_suite
from .metrics import EvalConfig, evaluate, evaluate_frames
from .postproc import DecodeParams, decode_grid, fit_lanes
from .synth import SceneParams, generate_scene
from .view_transform import FeatureTensor, fit_vrm_least_squares

DATA_DIR_ENV = "LANEBEV_DATA_DIR"

_GRID_JSON = "grid JSON: {x_min,x_max,y_min,y_max,cell}"

_SCHEMAS = {
    "homography": {
        "inputs": {
            "--src/--dst": "camera JSON: {intrinsics:{fx,fy,cx,cy,skew}, extrinsics:{rotation:3x3, translation:[3]}, image_size:[w,h]}",
            "--points": "'default' or JSON file [[x,y],...] of ground anchors (meters)",
        },
        "outputs": {"--out or stdout": '{"matrix": [[3x3]]} mapping src pixels to dst pixels'},
    },
    "warp": {
        "inputs": {
            "--image": "binary PGM/PPM",
            "--h": 'homography JSON {"matrix": [[3x3]]}',
            "--size": "output WxH (default: input size)",
        },
        "outputs": {"--out": "binary PGM/PPM, inverse-warped with zero border"},
    },
    "encode": {
        "inputs": {
            "--scene": "scene JSON: {camera:{...}, lanes:[{id,points:[[x,y,z],...]}], scene_tag}",
            "--spec": _GRID_JSON,
        },
        "outputs": {
            "--out-dir": "confidence.bldt, offset.bldt, height.bldt, instance.bldt (s1 x s2 tensors)",
            "--ideal-pred": "optional stacked prediction tensor (s1, s2, 3+D): [confidence, embedding..., offset, height]",
        },
    },
    "decode": {
        "inputs": {
            "--pred": "stacked prediction tensor (s1, s2, 3+D): [confidence, embedding..., offset, height]",
            "--spec": _GRID_JSON,
            "--params": "decode JSON: {s_threshold,d_gap,min_points,fit_degree}",
        },
        "outputs": {
            "--out": '{"lanes":[{"id",points:[[x,y,z],...],"fit":{y_coeffs,z_coeffs,x_range}}]}'
        },
    },
    "eval": {
        "inputs": {
            "--pred/--gt": "lanes JSON (or two directories of matching filenames)",
            "--config": "eval JSON: {sample_xs,match_threshold,match_ratio,near_limit}",
        },
        "outputs": {
            "--report or stdout": "{f_score,precision,recall,x_err_near,x_err_far,z_err_near,z_err_far,tp,n_pred,n_gt}"
        },
    },
    "synth": {
        "inputs": {
            "--params": "scene params JSON: {n_lanes,lane_spacing,curvature:[lo,hi],hill_amplitude,hill_wavelength,camera_jitter:[deg,m],seed}",
            "--seed": "overrides the seed from --params",
        },
        "outputs": {"--out": "scene JSON (see encode --scene)"},
    },
    "fit-vrm": {
        "inputs": {
            "--samples": "directory of paired tensors fv_NNN.bldt / bev_NNN.bldt, each (H, W, C)",
            "--ridge": "Tikhonov weight (0 requires a determined system)",
            "--scale": "downsample factor tag recorded in the sidecar (default 32)",
        },
        "outputs": {"--out": "dense map tensor (HW_bev, HW_fv) plus JSON sidecar with shapes and scale"},
    },
    "losscheck": {
        "inputs": {"--seed/--batches": "gradient-suite RNG seed and batch count"},
        "outputs": {"stdout": "per-loss max relative error vs finite differences; exit 1 if any >= 1e-5"},
    },
    "plot": {
        "inputs": {"--lanes": "lanes JSON", "--spec": _GRID_JSON},
        "outputs": {"--out": "static SVG, one polyline per lane in BEV axes"},
    },
    "pipeline": {
        "inputs": {
            "--seed/--n-lanes/--curvature/--hill/--jitter-deg/--jitter-m/--embed-dim": "scene and oracle parameters",
            "--spec": _GRID_JSON,
        },
        "outputs": {"--out or stdout": "eval report JSON of the synth -> encode -> ideal -> decode -> eval roundtrip"},
    },
}


def _fail_usage(parser, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    parser.print_usage(sys.stderr)
    return 2


def _need(args, *names) -> bool:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            return False
    return True


def _resolve(path: str) -> Path:
    """Paths resolve against LANEBEV_DATA_DIR when set and the path is relative."""
    p = Path(path)
    root = os.environ.get(DATA_DIR_ENV)
    if root and not p.is_absolute() and not p.exists():
        candidate = Path(root) / p
        if candidate.exists():
            return candidate
    return p


def _load_config(cls, path: str | None):
    """`cls()` when no path is given, else the config JSON file read by data_io.from_dict."""
    if not path:
        return cls()
    return data_io.from_dict(cls, json.loads(_resolve(path).read_text()))


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers ---

def _cmd_homography(args, parser) -> int:
    if not _need(args, "src", "dst"):
        return _fail_usage(parser, "homography requires --src and --dst")
    src = data_io.load_rig(_resolve(args.src))
    dst = data_io.load_rig(_resolve(args.dst))
    points = None
    if args.points and args.points != "default":
        points = data_io.load_ground_points(_resolve(args.points))
    h = compute_homography(src, dst, points)
    _emit({"matrix": h.matrix.tolist()}, args.out)
    return 0


def _cmd_warp(args, parser) -> int:
    if not _need(args, "image", "h", "out"):
        return _fail_usage(parser, "warp requires --image, --h and --out")
    out_size = None
    if args.size:
        w, s, hgt = args.size.partition("x")
        if not (s and w.isdecimal() and hgt.isdecimal() and int(w) > 0 and int(hgt) > 0):
            return _fail_usage(parser, f"--size must be two positive integers like 1024x576, got {args.size!r}")
        out_size = (int(w), int(hgt))
    img = data_io.read_pnm(_resolve(args.image))
    h = data_io.load_homography(_resolve(args.h))
    data_io.write_pnm(warp_image(img, h, out_size or (img.shape[1], img.shape[0])), args.out)
    return 0


def _stack_prediction(pred: GridTensors) -> np.ndarray:
    return np.concatenate(
        [
            pred.confidence[:, :, None],
            pred.embedding,
            pred.offset[:, :, None],
            pred.height[:, :, None],
        ],
        axis=2,
    )


def _unstack_prediction(stack: np.ndarray) -> GridTensors:
    if stack.ndim != 3 or stack.shape[2] < 4:
        raise LaneBevError(f"stacked prediction must be (s1, s2, 3+D), got {stack.shape}")
    return GridTensors(
        confidence=np.clip(stack[:, :, 0], 0.0, 1.0),
        embedding=stack[:, :, 1:-2],
        offset=stack[:, :, -2],
        height=stack[:, :, -1],
    )


def _cmd_encode(args, parser) -> int:
    if not _need(args, "scene", "out_dir"):
        return _fail_usage(parser, "encode requires --scene and --out-dir")
    scene = data_io.load_scene(_resolve(args.scene))
    spec = _load_config(GridSpec, args.spec)
    gt = encode_lanes(scene.lanes, spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_io.write_tensor(gt.confidence, out / "confidence.bldt")
    data_io.write_tensor(gt.offset, out / "offset.bldt")
    data_io.write_tensor(gt.height, out / "height.bldt")
    data_io.write_tensor(gt.instance.astype(float), out / "instance.bldt")
    if args.ideal_pred:
        ideal = ideal_prediction(gt, spec, embed_dim=args.embed_dim)
        data_io.write_tensor(_stack_prediction(ideal), args.ideal_pred)
    return 0


def _cmd_decode(args, parser) -> int:
    if not _need(args, "pred", "out"):
        return _fail_usage(parser, "decode requires --pred and --out")
    stack = data_io.read_tensor(_resolve(args.pred)).astype(float)
    pred = _unstack_prediction(stack)
    spec = _load_config(GridSpec, args.spec)
    params = _load_config(DecodeParams, args.params)
    instances = decode_grid(pred, spec, params)
    fits = fit_lanes(instances, params)
    lanes = [Lane3D(points=inst.points, id=inst.cluster_id + 1) for inst in instances]
    data_io.save_lanes(lanes, args.out, fits)
    return 0


def _load_lane_frames(pred_path: Path, gt_path: Path):
    if pred_path.is_dir() != gt_path.is_dir():
        raise LaneBevError("eval --pred and --gt must both be files or both directories")
    if not pred_path.is_dir():
        return [(data_io.load_lanes(pred_path), data_io.load_lanes(gt_path))]
    frames = []
    for gt_file in sorted(gt_path.glob("*.json")):
        pred_file = pred_path / gt_file.name
        preds = data_io.load_lanes(pred_file) if pred_file.exists() else []
        frames.append((preds, data_io.load_lanes(gt_file)))
    if not frames:
        raise LaneBevError(f"no *.json ground-truth frames under {gt_path}")
    return frames


def _cmd_eval(args, parser) -> int:
    if not _need(args, "pred", "gt"):
        return _fail_usage(parser, "eval requires --pred and --gt")
    cfg = _load_config(EvalConfig, args.config)
    frames = _load_lane_frames(_resolve(args.pred), _resolve(args.gt))
    result = evaluate_frames(frames, cfg)
    _emit(result.to_dict(), args.report)
    return 0


def _cmd_synth(args, parser) -> int:
    if not _need(args, "out"):
        return _fail_usage(parser, "synth requires --out")
    params = _load_config(SceneParams, args.params)
    if args.seed is not None:
        params = dataclasses.replace(params, seed=args.seed)
    scene = generate_scene(params)
    data_io.save_scene(scene, args.out)
    return 0


def _cmd_fit_vrm(args, parser) -> int:
    if not _need(args, "samples", "out"):
        return _fail_usage(parser, "fit-vrm requires --samples and --out")
    root = _resolve(args.samples)
    fv_files = sorted(Path(root).glob("fv_*.bldt"))
    if not fv_files:
        raise LaneBevError(f"no fv_*.bldt samples under {root}")
    samples = []
    for fv_file in fv_files:
        bev_file = fv_file.with_name(fv_file.name.replace("fv_", "bev_", 1))
        if not bev_file.exists():
            raise LaneBevError(f"missing BEV pair for {fv_file.name}")
        samples.append(
            (
                FeatureTensor(data_io.read_tensor(fv_file).astype(float), scale=args.scale),
                FeatureTensor(data_io.read_tensor(bev_file).astype(float), scale=args.scale),
            )
        )
    vrm = fit_vrm_least_squares(samples, ridge=args.ridge)
    data_io.write_tensor(vrm.matrix, args.out)
    sidecar = Path(args.out).with_suffix(".json")
    sidecar.write_text(
        json.dumps(
            {"fv_shape": list(vrm.fv_shape), "bev_shape": list(vrm.bev_shape), "scale": args.scale},
            indent=2,
        )
        + "\n"
    )
    return 0


def _cmd_losscheck(args, parser) -> int:
    worst = run_gradient_suite(seed=args.seed, batches=args.batches)
    payload = {"max_rel_error": worst, "tolerance": 1e-5, "passed": all(v < 1e-5 for v in worst.values())}
    _emit(payload, None)
    return 0 if payload["passed"] else 1


def _svg_plot(lanes: list[Lane3D], spec: GridSpec) -> str:
    # BEV axes: forward x up, lateral y left; 4 px per meter
    px = 4.0
    width = (spec.y_max - spec.y_min) * px
    height = (spec.x_max - spec.x_min) * px

    def to_svg(x, y):
        return (spec.y_max - y) * px, (spec.x_max - x) * px

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white" stroke="black"/>',
    ]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    for i, lane in enumerate(lanes):
        pts = " ".join("{:.2f},{:.2f}".format(*to_svg(x, y)) for x, y in zip(lane.x, lane.y))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_plot(args, parser) -> int:
    if not _need(args, "lanes", "out"):
        return _fail_usage(parser, "plot requires --lanes and --out")
    lanes = data_io.load_lanes(_resolve(args.lanes))
    Path(args.out).write_text(_svg_plot(lanes, _load_config(GridSpec, args.spec)))
    return 0


def _cmd_pipeline(args, parser) -> int:
    params = SceneParams(
        n_lanes=args.n_lanes,
        lane_spacing=args.lane_spacing,
        curvature=(-args.curvature, args.curvature),
        hill_amplitude=args.hill,
        hill_wavelength=args.hill_wavelength,
        camera_jitter=(args.jitter_deg, args.jitter_m),
        seed=args.seed,
    )
    scene = generate_scene(params)
    spec = _load_config(GridSpec, args.spec)
    gt = encode_lanes(scene.lanes, spec)
    ideal = ideal_prediction(gt, spec, embed_dim=args.embed_dim)
    instances = decode_grid(ideal, spec, DecodeParams())
    preds = [Lane3D(points=inst.points, id=inst.cluster_id + 1) for inst in instances]
    result = evaluate(preds, scene.lanes)
    _emit(result.to_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lanebev", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler):
        p = sub.add_parser(name)
        p.add_argument("--schema", action="store_true", help="print the JSON schema of this subcommand")
        p.set_defaults(handler=handler, subparser=p)
        return p

    p = add("homography", _cmd_homography)
    p.add_argument("--src")
    p.add_argument("--dst")
    p.add_argument("--points", default="default")
    p.add_argument("--out")

    p = add("warp", _cmd_warp)
    p.add_argument("--image")
    p.add_argument("--h")
    p.add_argument("--out")
    p.add_argument("--size")

    p = add("encode", _cmd_encode)
    p.add_argument("--scene")
    p.add_argument("--spec")
    p.add_argument("--out-dir")
    p.add_argument("--ideal-pred")
    p.add_argument("--embed-dim", type=int, default=4)

    p = add("decode", _cmd_decode)
    p.add_argument("--pred")
    p.add_argument("--spec")
    p.add_argument("--params")
    p.add_argument("--out")

    p = add("eval", _cmd_eval)
    p.add_argument("--pred")
    p.add_argument("--gt")
    p.add_argument("--config")
    p.add_argument("--report")

    p = add("synth", _cmd_synth)
    p.add_argument("--params")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("fit-vrm", _cmd_fit_vrm)
    p.add_argument("--samples")
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--scale", type=int, default=32)
    p.add_argument("--out")

    p = add("losscheck", _cmd_losscheck)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batches", type=int, default=20)

    p = add("plot", _cmd_plot)
    p.add_argument("--lanes")
    p.add_argument("--spec")
    p.add_argument("--out")

    p = add("pipeline", _cmd_pipeline)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-lanes", type=int, default=4)
    p.add_argument("--lane-spacing", type=float, default=3.5)
    p.add_argument("--curvature", type=float, default=0.0)
    p.add_argument("--hill", type=float, default=0.0)
    p.add_argument("--hill-wavelength", type=float, default=60.0)
    p.add_argument("--jitter-deg", type=float, default=0.0)
    p.add_argument("--jitter-m", type=float, default=0.0)
    p.add_argument("--embed-dim", type=int, default=8)
    p.add_argument("--spec")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        sys.stdout.write(json.dumps(_SCHEMAS[args.command], indent=2) + "\n")
        return 0
    try:
        return args.handler(args, args.subparser)
    except (LaneBevError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
