"""File formats: binary tensors, JSON schemas, OpenLane frames, PGM/PPM.

Binary tensor layout (extension .bldt), all multi-byte integers little-endian:

    bytes 0-3   magic "BLDT"
    bytes 4-5   version, uint16 (currently 1)
    byte  6     ndim, uint8, 1..4
    next 4*ndim dims, uint32 each
    payload     float32 little-endian, row-major, 4 * prod(dims) bytes

JSON schemas for cameras, lanes, scenes and homographies live here so
every CLI subcommand shares one source of truth; the config files (grid,
decode, eval and scene parameters) are read by `from_dict`, whose keys and
defaults are the dataclass fields.  OpenLane-style frame annotations are
parsed into road-frame scene records; the frame's 4x4 extrinsic maps
camera coordinates to the road frame and lane points are stored
camera-frame as 3xN arrays, matching the public per-frame layout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from .camera_geometry import CameraRig, Extrinsics, Homography, Intrinsics, _nearest_rotation
from .errors import (
    BadMagic,
    ConfigError,
    ImageFormatError,
    MalformedJson,
    MissingField,
    NonFiniteInput,
    NonOrthonormalRotation,
    TruncatedPayload,
    UnsupportedVersion,
)
from .lane_grid import Lane3D
from .postproc import FittedLane
from .synth import SceneRecord

MAGIC = b"BLDT"
VERSION = 1


# --- binary tensors ---

def write_tensor(array: np.ndarray, path: str | Path) -> None:
    arr = np.ascontiguousarray(array, dtype="<f4")
    if not 1 <= arr.ndim <= 4:
        raise ValueError(f"tensor rank must be 1..4, got {arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<B", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes(order="C"))


def read_tensor(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise BadMagic(f"{path}: magic {blob[:4]!r} != {MAGIC!r}")
    if len(blob) < 7:
        raise TruncatedPayload(f"{path}: header cut short at {len(blob)} bytes")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != VERSION:
        raise UnsupportedVersion(f"{path}: version {version}, expected {VERSION}")
    ndim = blob[6]
    if not 1 <= ndim <= 4:
        raise TruncatedPayload(f"{path}: invalid rank {ndim}")
    header_end = 7 + 4 * ndim
    if len(blob) < header_end:
        raise TruncatedPayload(f"{path}: dims cut short")
    dims = struct.unpack_from(f"<{ndim}I", blob, 7)
    expected = 4 * math.prod(dims)
    payload = blob[header_end:]
    if len(payload) != expected:
        raise TruncatedPayload(f"{path}: payload {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


# --- camera / homography JSON ---

def rig_to_dict(rig: CameraRig) -> dict:
    return {
        "intrinsics": {
            "fx": rig.intrinsics.fx,
            "fy": rig.intrinsics.fy,
            "cx": rig.intrinsics.cx,
            "cy": rig.intrinsics.cy,
            "skew": rig.intrinsics.skew,
        },
        "extrinsics": {
            "rotation": rig.extrinsics.rotation.tolist(),
            "translation": rig.extrinsics.translation.tolist(),
        },
        "image_size": list(rig.image_size),
    }


def rig_from_dict(data: dict) -> CameraRig:
    intr = data["intrinsics"]
    extr = data["extrinsics"]
    return CameraRig(
        intrinsics=Intrinsics(
            fx=intr["fx"], fy=intr["fy"], cx=intr["cx"], cy=intr["cy"], skew=intr.get("skew", 0.0)
        ),
        extrinsics=Extrinsics(
            rotation=np.asarray(extr["rotation"], dtype=float),
            translation=np.asarray(extr["translation"], dtype=float),
        ),
        image_size=tuple(data["image_size"]),
    )


def load_rig(path: str | Path) -> CameraRig:
    return rig_from_dict(json.loads(Path(path).read_text()))


def save_rig(rig: CameraRig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(rig_to_dict(rig), indent=2) + "\n")


def save_homography(h: Homography, path: str | Path) -> None:
    Path(path).write_text(json.dumps({"matrix": h.matrix.tolist()}, indent=2) + "\n")


def load_homography(path: str | Path) -> Homography:
    return Homography(np.asarray(json.loads(Path(path).read_text())["matrix"], dtype=float))


# --- config dataclasses (GridSpec, DecodeParams, EvalConfig, SceneParams) ---

def _finite_number(value) -> bool:
    """True for an int or float (not bool) within the float range; NaN and inf fail."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def from_dict(cls, data):
    """Build the config dataclass `cls` from a parsed JSON object, strictly.

    The keys are the field names of `cls`; a missing key takes the field's
    default.  Where the default is a float the value must be a finite int
    or float, and where it is an int, an int within the float range (bool
    is refused for both); where it is a tuple, a list (or tuple) of finite
    numbers, which becomes a tuple.  Other values pass through.  The
    class's own checks run in `cls(**kwargs)`.  Raises ConfigError naming
    the class and the key.
    """
    name = cls.__name__
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {type(data).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in defaults:
            raise ConfigError(f"{name}: unknown key {key!r}")
        default = defaults[key]
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)) or not all(map(_finite_number, value)):
                raise ConfigError(f"{name}.{key}: expected a list of finite numbers, got {value!r}")
            value = tuple(value)
        elif _finite_number(default) and not _finite_number(value):
            raise ConfigError(f"{name}.{key}: expected a finite number, got {value!r}")
        elif type(default) is int and isinstance(value, float):
            raise ConfigError(f"{name}.{key}: expected an integer, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


# --- lanes JSON ---

def lanes_to_dict(lanes: list[Lane3D], fits: list[FittedLane] | None = None) -> dict:
    out = []
    for i, lane in enumerate(lanes):
        entry = {"id": int(lane.id), "points": lane.points.tolist()}
        if fits is not None:
            entry["fit"] = {
                "y_coeffs": fits[i].y_coeffs.tolist(),
                "z_coeffs": fits[i].z_coeffs.tolist(),
                "x_range": list(fits[i].x_range),
            }
        out.append(entry)
    return {"lanes": out}


def lanes_from_dict(data: dict) -> list[Lane3D]:
    return [
        Lane3D(points=np.asarray(entry["points"], dtype=float), id=int(entry.get("id", i + 1)))
        for i, entry in enumerate(data["lanes"])
    ]


def load_lanes(path: str | Path) -> list[Lane3D]:
    return lanes_from_dict(json.loads(Path(path).read_text()))


def _layout(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Encoded JSON `items` as json.dumps(..., indent=2) lays out a list (or object) `depth` spaces in."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 2)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


def _numbers(values: list) -> list[str]:
    """Each number as json.dumps writes it, from one call to the C encoder."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def save_lanes(lanes: list[Lane3D], path: str | Path, fits: list[FittedLane] | None = None) -> None:
    """Write the lanes JSON: byte-identical to json.dumps(lanes_to_dict(lanes, fits), indent=2) + "\n".

    With `indent`, json.dumps runs CPython's pure-Python encoder; here each
    lane's numbers go through the C encoder and only the fixed schema's
    newlines and indents are written in Python.
    """
    entries = []
    for i, lane in enumerate(lanes):
        nums = _numbers(lane.points.ravel().tolist())
        rows = [_layout(nums[j : j + 3], 8) for j in range(0, len(nums), 3)]
        fields = [f'"id": {int(lane.id)}', '"points": ' + _layout(rows, 6)]
        if fits is not None:
            fit = fits[i]
            coeffs = {"y_coeffs": fit.y_coeffs.tolist(), "z_coeffs": fit.z_coeffs.tolist(), "x_range": list(fit.x_range)}
            fields.append('"fit": ' + _layout([f'"{key}": ' + _layout(_numbers(v), 8) for key, v in coeffs.items()], 6, "{}"))
        entries.append(_layout(fields, 4, "{}"))
    Path(path).write_text('{\n  "lanes": ' + _layout(entries, 2) + "\n}\n")


# --- scene records ---

def scene_to_dict(scene: SceneRecord) -> dict:
    return {
        "camera": rig_to_dict(scene.rig),
        "lanes": lanes_to_dict(scene.lanes)["lanes"],
        "scene_tag": scene.scene_tag,
    }


def scene_from_dict(data: dict) -> SceneRecord:
    return SceneRecord(
        rig=rig_from_dict(data["camera"]),
        lanes=lanes_from_dict({"lanes": data["lanes"]}),
        scene_tag=data.get("scene_tag", ""),
    )


def load_scene(path: str | Path) -> SceneRecord:
    return scene_from_dict(json.loads(Path(path).read_text()))


def save_scene(scene: SceneRecord, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2) + "\n")


# --- OpenLane-style frames ---

def _float_array(value, name: str) -> np.ndarray:
    """`value` as a finite float array; raises MissingField or NonFiniteInput naming `name`."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MissingField(f"{name} is not numeric: {exc}") from exc
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} holds NaN or infinite values")
    return arr


def parse_openlane_frame(json_text: str) -> SceneRecord:
    """Parse one OpenLane-layout frame annotation into a road-frame scene.

    Required fields: "intrinsic" (3x3), "extrinsic" (4x4, camera to road),
    "lane_lines" (list of {"xyz": 3xN camera-frame points, optional
    "visibility", "category"}); optional "image_size" (two positive ints).
    Points keep their full extent; clipping to the grid is the encoder's
    job.  Visibility flags are preserved on the parse result but not
    interpreted here.  Every bad input raises a LaneBevError naming the
    field; a lane needs 2 points with distinct x.
    """
    try:
        data = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(str(exc)) from exc
    if not isinstance(data, dict):
        raise MissingField(f"frame must be a JSON object, got {type(data).__name__}")

    for key in ("intrinsic", "extrinsic", "lane_lines"):
        if key not in data:
            raise MissingField(f"frame is missing '{key}'")

    intrinsic = _float_array(data["intrinsic"], "intrinsic")
    extrinsic = _float_array(data["extrinsic"], "extrinsic")
    if intrinsic.shape != (3, 3):
        raise MissingField(f"intrinsic must be 3x3, got {intrinsic.shape}")
    if abs(np.linalg.det(intrinsic)) < 1e-12:
        raise MissingField("intrinsic matrix is not invertible")
    if extrinsic.shape != (4, 4):
        raise MissingField(f"extrinsic must be 4x4, got {extrinsic.shape}")
    rot_c2r = extrinsic[:3, :3]
    if np.max(np.abs(rot_c2r.T @ rot_c2r - np.eye(3))) > 1e-6:
        raise NonOrthonormalRotation("extrinsic rotation fails orthonormality within 1e-6")
    size = data.get("image_size", [1024, 576])
    if not (isinstance(size, list) and len(size) == 2 and all(type(v) is int and v > 0 for v in size)):
        raise MissingField(f"image_size must be two positive integers, got {size!r}")
    if not isinstance(data["lane_lines"], list):
        raise MissingField(f"lane_lines must be a list, got {type(data['lane_lines']).__name__}")

    # road->camera rig from the camera->road extrinsic.  A rotation written
    # to 7 digits is orthonormal only to about 1e-7, so the rig takes the
    # nearest rotation; a reflection is left for Extrinsics to refuse.
    rotation = rot_c2r.T
    if np.linalg.det(rotation) > 0:
        rotation = _nearest_rotation(rotation)
    translation = -rotation @ extrinsic[:3, 3]
    try:
        intrinsics = Intrinsics(
            fx=intrinsic[0, 0], fy=intrinsic[1, 1], cx=intrinsic[0, 2], cy=intrinsic[1, 2], skew=intrinsic[0, 1]
        )
        rig = CameraRig(intrinsics, Extrinsics(rotation=rotation, translation=translation), tuple(size))
    except ValueError as exc:  # a focal length <= 0, or a rotation off by more than 1e-9 or with det -1
        raise MissingField(f"intrinsic or extrinsic: {exc}") from exc

    lanes = []
    for i, entry in enumerate(data["lane_lines"]):
        if not isinstance(entry, dict) or "xyz" not in entry:
            raise MissingField(f"lane_lines[{i}] must be an object with 'xyz'")
        xyz = _float_array(entry["xyz"], f"lane_lines[{i}].xyz")
        if xyz.ndim != 2 or xyz.shape[0] != 3:
            raise MissingField(f"lane_lines[{i}].xyz must be 3xN, got {xyz.shape}")
        p_road = (extrinsic[:3, :3] @ xyz + extrinsic[:3, 3:4]).T
        try:
            lanes.append(Lane3D(points=p_road, id=i + 1))
        except ValueError as exc:  # fewer than 2 distinct x
            raise MissingField(f"lane_lines[{i}]: {exc}") from exc
    return SceneRecord(rig=rig, lanes=lanes, scene_tag=str(data.get("file_path", "")))


def export_openlane_frame(scene: SceneRecord, file_path: str = "") -> str:
    """Serialize a scene in the OpenLane per-frame layout (inverse of parse)."""
    rig = scene.rig
    rot = rig.extrinsics.rotation
    extrinsic = np.eye(4)
    extrinsic[:3, :3] = rot.T
    extrinsic[:3, 3] = rig.extrinsics.camera_center
    lane_lines = []
    for lane in scene.lanes:
        p_cam = (lane.points @ rot.T + rig.extrinsics.translation).T
        lane_lines.append(
            {
                "xyz": p_cam.tolist(),
                "visibility": [1.0] * lane.points.shape[0],
                "category": int(lane.id),
            }
        )
    frame = {
        "intrinsic": rig.intrinsics.matrix.tolist(),
        "extrinsic": extrinsic.tolist(),
        "lane_lines": lane_lines,
        "image_size": list(rig.image_size),
        "file_path": file_path or scene.scene_tag,
    }
    return json.dumps(frame)


# --- PGM / PPM images ---

def write_pnm(image: np.ndarray, path: str | Path) -> None:
    """Write a [0, 1] float image as binary PGM (2-D) or PPM (3-D, 3 channels)."""
    img = np.asarray(image, dtype=float)
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    if data.ndim == 2:
        header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n"
    elif data.ndim == 3 and data.shape[2] == 3:
        header = f"P6\n{data.shape[1]} {data.shape[0]}\n255\n"
    else:
        raise ValueError(f"image must be HxW or HxWx3, got {data.shape}")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data.tobytes())


def read_pnm(path: str | Path) -> np.ndarray:
    """Read binary PGM/PPM (8- or 16-bit samples) into a [0, 1] float array.

    Raises ImageFormatError naming the file on a bad magic number, a
    missing or non-numeric header field, a maxval outside 1..65535 and
    truncated pixel data.
    """
    blob = Path(path).read_bytes()
    if blob[:2] not in (b"P5", b"P6"):
        raise ImageFormatError(f"{path}: only binary PGM (P5) / PPM (P6) supported")
    fields = []
    pos = 2
    for name in ("width", "height", "maxval"):
        while True:
            while pos < len(blob) and blob[pos : pos + 1].isspace():
                pos += 1
            if blob[pos : pos + 1] != b"#":
                break
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if not (token.isdigit() and len(token) <= 20):
            raise ImageFormatError(f"{path}: header {name} {token[:20]!r} is not an integer of 1 to 20 digits")
        fields.append(int(token))
    if pos == len(blob):
        raise ImageFormatError(f"{path}: header truncated, no whitespace after maxval")
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if not 1 <= maxval <= 65535:
        raise ImageFormatError(f"{path}: maxval {maxval} outside 1..65535")
    channels = 3 if blob[:2] == b"P6" else 1
    # Samples above 255 take two bytes, most significant first (Netpbm).
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    count = width * height * channels
    if len(blob) - pos < count * dtype.itemsize:
        raise ImageFormatError(f"{path}: pixel data truncated, {count * dtype.itemsize} bytes expected, {len(blob) - pos} found")
    raw = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
    img = raw.reshape((height, width, channels)).astype(float) / float(maxval)
    return img[:, :, 0] if channels == 1 else img
