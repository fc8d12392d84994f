"""Batch command-line front end.

Exit codes: 0 success, 1 domain error (single-line JSON on stderr),
2 usage error.  Outputs contain no timestamps, so a fixed config and seed
reproduce byte-identical files.  Every subcommand prints its
input/output schema with --schema.

`_COMMANDS` declares every subcommand once: its handler and its flags.  A
flag holds its name, whether it names an input or an output, whether it is
required, its schema text and its argparse type and default.  The parser,
each subcommand's --schema (one key per flag, plus "stdout" for a command
that always prints there) and the required-flag check that runs before the
handler are all read from that table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import data_io
from .camera_geometry import compute_homography, warp_image
from .errors import EmptyInput, LaneBevError, MissingField, ShapeMismatch
from .lane_grid import GridSpec, GridTensors, Lane3D, encode_lanes, ideal_prediction
from .losses import run_gradient_suite
from .metrics import EvalConfig, evaluate, evaluate_frames
from .postproc import DecodeParams, decode_lanes
from .synth import SceneParams, generate_scene
from .view_transform import FeatureTensor, fit_vrm_least_squares

DATA_DIR_ENV = "LANEBEV_DATA_DIR"

_GRID_JSON = "grid JSON: {x_min,x_max,y_min,y_max,cell}"
_STACK = "stacked prediction tensor (s1, s2, 3+D): [confidence, embedding..., offset, height]"
_CAMERA_JSON = (
    "camera JSON: {intrinsics:{fx,fy,cx,cy,skew}, extrinsics:{rotation:3x3, translation:[3]}, image_size:[w,h]}"
)
_SCENE_PARAMS = (
    "scene params JSON: "
    "{n_lanes,lane_spacing,curvature:[lo,hi],hill_amplitude,hill_wavelength,camera_jitter:[deg,m],seed}"
)
_REPORT = "eval report JSON: {f_score,precision,recall,x_err_near,x_err_far,z_err_near,z_err_far,tp,n_pred,n_gt}"


@dataclasses.dataclass(frozen=True)
class _Flag:
    """One option of a subcommand, declared once for argparse, --schema and the required check."""

    name: str
    text: str
    output: bool = False
    required: bool = False
    type: Callable[[str], object] | None = None
    default: object = None


@dataclasses.dataclass(frozen=True)
class _Command:
    handler: Callable[[argparse.Namespace, argparse.ArgumentParser], int]
    flags: tuple[_Flag, ...]
    stdout: str | None = None  # what the command always prints, with no flag naming it


def _fail_usage(parser, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    parser.print_usage(sys.stderr)
    return 2


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
    return data_io.from_dict(cls, data_io._read_json(_resolve(path)))


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        data_io._write_file(out_path, text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers ---

def _cmd_homography(args, parser) -> int:
    src = data_io.load_rig(_resolve(args.src))
    dst = data_io.load_rig(_resolve(args.dst))
    h = compute_homography(src, dst)
    _emit({"matrix": h.matrix.tolist()}, args.out)
    return 0


def _cmd_warp(args, parser) -> int:
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
        raise ShapeMismatch(f"stacked prediction must be (s1, s2, 3+D), got {stack.shape}")
    return GridTensors(
        confidence=np.clip(stack[:, :, 0], 0.0, 1.0),
        embedding=stack[:, :, 1:-2],
        offset=stack[:, :, -2],
        height=stack[:, :, -1],
    )


def _cmd_encode(args, parser) -> int:
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
    stack = data_io.read_tensor(_resolve(args.pred)).astype(float)
    pred = _unstack_prediction(stack)
    spec = _load_config(GridSpec, args.spec)
    params = _load_config(DecodeParams, args.params)
    lanes, fits = decode_lanes(pred, spec, params)
    data_io.save_lanes(lanes, args.out, fits)
    return 0


def _load_lane_frames(pred_path: Path, gt_path: Path):
    if pred_path.is_dir() != gt_path.is_dir():
        raise ShapeMismatch("eval --pred and --gt must both be files or both directories")
    if not pred_path.is_dir():
        return [(data_io.load_lanes(pred_path), data_io.load_lanes(gt_path))]
    frames = []
    for gt_file in sorted(gt_path.glob("*.json")):
        pred_file = pred_path / gt_file.name
        preds = data_io.load_lanes(pred_file) if pred_file.exists() else []
        frames.append((preds, data_io.load_lanes(gt_file)))
    if not frames:
        raise EmptyInput(f"no *.json ground-truth frames under {gt_path}")
    return frames


def _cmd_eval(args, parser) -> int:
    cfg = _load_config(EvalConfig, args.config)
    frames = _load_lane_frames(_resolve(args.pred), _resolve(args.gt))
    result = evaluate_frames(frames, cfg)
    _emit(result.to_dict(), args.report)
    return 0


def _scene_params(args) -> SceneParams:
    """The --params scene file of synth and pipeline, with --seed, when given, in place of its seed."""
    params = _load_config(SceneParams, args.params)
    return params if args.seed is None else dataclasses.replace(params, seed=args.seed)


def _cmd_synth(args, parser) -> int:
    data_io.save_scene(generate_scene(_scene_params(args)), args.out)
    return 0


def _cmd_fit_vrm(args, parser) -> int:
    root = _resolve(args.samples)
    fv_files = sorted(Path(root).glob("fv_*.bldt"))
    if not fv_files:
        raise EmptyInput(f"no fv_*.bldt samples under {root}")
    samples = []
    for fv_file in fv_files:
        bev_file = fv_file.with_name(fv_file.name.replace("fv_", "bev_", 1))
        if not bev_file.exists():
            raise MissingField(f"missing BEV pair for {fv_file.name}")
        samples.append(
            (
                FeatureTensor(data_io.read_tensor(fv_file).astype(float), scale=args.scale),
                FeatureTensor(data_io.read_tensor(bev_file).astype(float), scale=args.scale),
            )
        )
    vrm = fit_vrm_least_squares(samples, ridge=args.ridge)
    data_io.write_tensor(vrm.matrix, args.out)
    sidecar = {"fv_shape": list(vrm.fv_shape), "bev_shape": list(vrm.bev_shape), "scale": args.scale}
    _emit(sidecar, str(Path(args.out).with_suffix(".json")))
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
    lanes = data_io.load_lanes(_resolve(args.lanes))
    data_io._write_file(args.out, _svg_plot(lanes, _load_config(GridSpec, args.spec)))
    return 0


def _cmd_pipeline(args, parser) -> int:
    scene = generate_scene(_scene_params(args))
    spec = _load_config(GridSpec, args.spec)
    gt = encode_lanes(scene.lanes, spec)
    ideal = ideal_prediction(gt, spec, embed_dim=args.embed_dim)
    preds, _ = decode_lanes(ideal, spec)
    result = evaluate(preds, scene.lanes)
    _emit(result.to_dict(), args.out)
    return 0


_COMMANDS = {
    "homography": _Command(_cmd_homography, (
        _Flag("--src", f"source {_CAMERA_JSON}", required=True),
        _Flag("--dst", f"destination {_CAMERA_JSON}", required=True),
        _Flag("--out", '{"matrix": [[3x3]]} mapping src pixels to dst pixels; stdout when absent', output=True),
    )),
    "warp": _Command(_cmd_warp, (
        _Flag("--image", "binary PGM/PPM", required=True),
        _Flag("--h", 'homography JSON {"matrix": [[3x3]]}', required=True),
        _Flag("--out", "binary PGM/PPM, inverse-warped with zero border", output=True, required=True),
        _Flag("--size", "output WxH such as 1024x576; the input size when absent"),
    )),
    "encode": _Command(_cmd_encode, (
        _Flag("--scene", "scene JSON: {camera:{...}, lanes:[{id,points:[[x,y,z],...]}], scene_tag}", required=True),
        _Flag("--spec", _GRID_JSON),
        _Flag("--out-dir", "confidence, offset, height and instance .bldt (s1 x s2)", output=True, required=True),
        _Flag("--ideal-pred", f"optional {_STACK}", output=True),
        _Flag("--embed-dim", "embedding width D of --ideal-pred", type=int, default=4),
    )),
    "decode": _Command(_cmd_decode, (
        _Flag("--pred", _STACK, required=True),
        _Flag("--spec", _GRID_JSON),
        _Flag("--params", "decode JSON: {s_threshold,d_gap,min_points,fit_degree}"),
        _Flag("--out", "lanes JSON: {lanes:[{id,points:[[x,y,z],...],fit:{y_coeffs,z_coeffs,x_range}}]}", output=True,
              required=True),
    )),
    "eval": _Command(_cmd_eval, (
        _Flag("--pred", "predicted lanes JSON, or a directory of them named as in --gt", required=True),
        _Flag("--gt", "ground-truth lanes JSON, or a directory of *.json frames", required=True),
        _Flag("--config", "eval JSON: {sample_xs,match_threshold,match_ratio,near_limit}"),
        _Flag("--report", f"{_REPORT}; stdout when absent", output=True),
    )),
    "synth": _Command(_cmd_synth, (
        _Flag("--params", _SCENE_PARAMS),
        _Flag("--seed", "overrides the seed from --params", type=int),
        _Flag("--out", "scene JSON (see encode --scene)", output=True, required=True),
    )),
    "fit-vrm": _Command(_cmd_fit_vrm, (
        _Flag("--samples", "directory of paired tensors fv_NNN.bldt / bev_NNN.bldt, each (H, W, C)", required=True),
        _Flag("--ridge", "Tikhonov weight (0 requires a determined system)", type=float, default=0.0),
        _Flag("--scale", "downsample factor tag recorded in the sidecar", type=int, default=32),
        _Flag("--out", "dense map tensor (HW_bev, HW_fv), and its shapes and scale in a .json sidecar", output=True,
              required=True),
    )),
    "losscheck": _Command(_cmd_losscheck, (
        _Flag("--seed", "gradient-suite RNG seed", type=int, default=0),
        _Flag("--batches", "number of random batches, at least 1", type=int, default=20),
    ), stdout="per-loss max relative error vs finite differences; exit 1 if any >= 1e-5"),
    "plot": _Command(_cmd_plot, (
        _Flag("--lanes", "lanes JSON", required=True),
        _Flag("--spec", _GRID_JSON),
        _Flag("--out", "static SVG, one polyline per lane in BEV axes", output=True, required=True),
    )),
    "pipeline": _Command(_cmd_pipeline, (
        _Flag("--params", _SCENE_PARAMS),
        _Flag("--seed", "overrides the seed from --params", type=int),
        _Flag("--embed-dim", "embedding width D of the oracle prediction", type=int, default=8),
        _Flag("--spec", _GRID_JSON),
        _Flag("--out", f"{_REPORT} for the synth -> encode -> ideal -> decode -> eval roundtrip; stdout when absent",
              output=True),
    )),
}


def _schema(command: _Command) -> dict:
    schema = {"inputs": {}, "outputs": {}}
    for flag in command.flags:
        note = "; required" if flag.required else "" if flag.default is None else f"; default {flag.default!r}"
        schema["outputs" if flag.output else "inputs"][flag.name] = flag.text + note
    if command.stdout:
        schema["outputs"]["stdout"] = command.stdout
    return schema


def _missing_required(name: str, command: _Command, args) -> str | None:
    """The usage message when a required flag is absent: it names every required flag."""
    required = [flag.name for flag in command.flags if flag.required]
    if all(getattr(args, flag[2:].replace("-", "_")) is not None for flag in required):
        return None
    listed = required[0] if len(required) == 1 else ", ".join(required[:-1]) + " and " + required[-1]
    return f"{name} requires {listed}"


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring up to its notes on the table
    parser = argparse.ArgumentParser(prog="lanebev", description=__doc__.partition("\n\n`_COMMANDS`")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--schema", action="store_true", help="print the JSON schema of this subcommand")
        for flag in command.flags:
            p.add_argument(flag.name, type=flag.type, default=flag.default)
        p.set_defaults(subparser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.command]
    if args.schema:
        _emit(_schema(command), None)
        return 0
    missing = _missing_required(args.command, command, args)
    if missing:
        return _fail_usage(args.subparser, missing)
    try:
        return command.handler(args, args.subparser)
    except (LaneBevError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
