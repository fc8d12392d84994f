"""File formats: binary tensors, JSON schemas, OpenLane frames, PGM/PPM.

Binary tensor layout (extension .bldt), all multi-byte integers little-endian:

    bytes 0-3   magic "BLDT"
    bytes 4-5   version, uint16 (currently 1)
    byte  6     ndim, uint8, 1..4
    next 4*ndim dims, uint32 each
    payload     float32 little-endian, row-major, 4 * prod(dims) bytes

JSON schemas for cameras, lanes, scenes and homographies live here so
every CLI subcommand shares one source of truth; the config files (grid,
decode, eval and scene parameters) are read by `from_dict`,
whose keys and defaults are the dataclass fields.  Every JSON file is read
by one reader (`_read_json`): UTF-8 text holding one JSON value, or
MalformedJson naming the file.  Every file follows one number rule
(`_json_number_type`): a number is a JSON int or float, and a string,
boolean or null is refused.  OpenLane-style frame annotations are
parsed into road-frame scene records; the frame's 4x4 extrinsic maps
camera coordinates to the road frame and lane points are stored
camera-frame as 3xN arrays, matching the public per-frame layout.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import stat
import struct
import sys
from contextlib import contextmanager
from itertools import chain
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
    ShapeMismatch,
    TruncatedPayload,
    UnsupportedVersion,
)
from .lane_grid import Lane3D
from .postproc import FittedLane
from .synth import SceneRecord

MAGIC = b"BLDT"
VERSION = 1


# --- one writer ---

def _write_file(path: str | Path, *chunks) -> None:
    """Write `chunks` (str as UTF-8, or any bytes-like object) to `path`, as
    open(path, "wb") would, but overwrite an existing file in place.

    The file is opened without O_TRUNC and, once written, cut to the bytes
    written.  Truncating to zero on open frees an existing file's blocks and
    the write then allocates new ones; overwriting keeps them.  A new file
    gets mode 0o666 & ~umask; an existing one keeps its inode and mode.  A
    file that is not regular (/dev/null, /dev/stdout) is only written to.
    Every chunk becomes a flat byte view before the open, so a chunk that is
    not one (a non-C-contiguous array, say) raises with the file untouched.
    When a write raises part-way, the file is cut to 0 bytes before the
    error propagates, so old bytes never follow new ones.
    """
    views = [memoryview(c.encode("utf-8") if isinstance(c, str) else c) for c in chunks]
    views = [view.cast("B") if view.nbytes else view for view in views]  # cast refuses zeros in the shape
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            for view in views:
                while view.nbytes:  # os.write may write less than asked
                    view = view[os.write(fd, view):]
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, sum(view.nbytes for view in views))
    finally:
        os.close(fd)


# --- binary tensors ---

def write_tensor(array: np.ndarray, path: str | Path) -> None:
    """Store `array` as little-endian float32, overwriting `path` in place
    (see _write_file).  Raises ShapeMismatch naming the file unless the rank
    is 1..4, and NonFiniteInput when a finite value lies beyond the float32
    range; either way it writes nothing."""
    src = np.asarray(array)
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(src, dtype="<f4")
    if not 1 <= arr.ndim <= 4:
        raise ShapeMismatch(f"{path}: tensor rank must be 1..4, got {arr.ndim}")
    overflowed = int(np.isfinite(src[np.isinf(arr)]).sum())
    if overflowed:
        raise NonFiniteInput(f"{path}: {overflowed} finite value(s) beyond the float32 range")
    _write_file(path, MAGIC + struct.pack(f"<HB{arr.ndim}I", VERSION, arr.ndim, *arr.shape), arr.data)


def read_tensor(path: str | Path) -> np.ndarray:
    """The float32 array stored at `path`.

    For a regular file the header is checked against the file's size before
    anything is allocated, and the payload is read straight into the
    returned array; a pipe (such as /dev/stdin) is read whole first, since
    its size is known only then.  Raises BadMagic, UnsupportedVersion, and
    TruncatedPayload for a header, rank or dims cut short or a payload of
    another size than the dims say.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            size = st.st_size
        else:
            data = fh.read()
            size, fh = len(data), io.BytesIO(data)
        head = fh.read(7)
        if head[:4] != MAGIC:
            raise BadMagic(f"{path}: magic {head[:4]!r} != {MAGIC!r}")
        if len(head) < 7:
            raise TruncatedPayload(f"{path}: header cut short at {len(head)} bytes")
        (version,) = struct.unpack_from("<H", head, 4)
        if version != VERSION:
            raise UnsupportedVersion(f"{path}: version {version}, expected {VERSION}")
        ndim = head[6]
        if not 1 <= ndim <= 4:
            raise TruncatedPayload(f"{path}: invalid rank {ndim}")
        raw_dims = fh.read(4 * ndim)
        if len(raw_dims) < 4 * ndim:
            raise TruncatedPayload(f"{path}: dims cut short")
        dims = struct.unpack(f"<{ndim}I", raw_dims)
        expected = 4 * math.prod(dims)
        payload = size - 7 - 4 * ndim
        if payload != expected:
            raise TruncatedPayload(f"{path}: payload {payload} bytes, expected {expected}")
        out = np.empty(dims, dtype="<f4")
        if fh.readinto(out) != expected:
            raise TruncatedPayload(f"{path}: file changed size while read")
    return out


# --- JSON values: one reader, one number rule, one array reader ---

def _parse_json(text: str | bytes, name: str):
    """The JSON value of `text`, or of UTF-8 bytes.  Raises MalformedJson naming
    `name` on bytes that are not UTF-8, text that is not JSON and nesting too
    deep for the parser."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MalformedJson(f"{name}: {exc}") from exc


def _read_json(path: str | Path):
    """The JSON value of the UTF-8 file at `path` (see _parse_json)."""
    return _parse_json(Path(path).read_bytes(), str(path))


def _json_number_type(t: type) -> bool:
    """The one rule for a number in any file lanebev reads: an int or a
    float.  bool is refused although it is an int; so are str and None."""
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _floats(value, name: str, shape: tuple[int | None, ...] = ()) -> np.ndarray:
    """A parsed JSON value as a finite float array of `shape` (None matches any length).

    Raises MissingField naming `name` when the value is missing or null, is
    not a rectangular nest of lists, holds a leaf that is not a JSON number
    or has another shape; NonFiniteInput on NaN or infinite numbers.
    """
    if value is None:
        raise MissingField(f"{name} is missing or null")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MissingField(f"{name} is not a rectangular array of numbers: {exc}") from exc
    # asarray reads "3" as 3.0, true as 1.0 and null as NaN, and a float
    # array does not tell a bool from a number; so check the leaves' types,
    # one C-level pass over the value nested arr.ndim deep.
    leaves = [value]
    for _ in range(arr.ndim):
        leaves = chain.from_iterable(leaves)
    bad = [t.__name__ for t in set(map(type, leaves)) if not _json_number_type(t)]
    if bad:
        raise MissingField(f"{name} must hold only JSON numbers, got {', '.join(sorted(bad))}")
    if len(arr.shape) != len(shape) or any(n not in (None, got) for got, n in zip(arr.shape, shape)):
        want = ", ".join("N" if n is None else str(n) for n in shape)
        raise MissingField(f"{name} must have shape ({want}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} holds NaN or infinite values")
    return arr


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise MissingField(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


@contextmanager
def _naming(name: str):
    """Raise a constructor's own ValueError (a focal length <= 0, a
    reflection, fewer than 2 distinct x) as MissingField naming `name`."""
    try:
        yield
    except ValueError as exc:
        raise MissingField(f"{name}: {exc}") from exc


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
    """The rig of a parsed camera JSON object.

    Raises MissingField naming the field (such as intrinsics.fx) when it is
    absent or unusable, and NonFiniteInput on NaN or infinite values.
    """
    return _rig_at(data, "")


def _rig_at(data, at: str) -> CameraRig:
    """rig_from_dict, naming each field after the key path `at` (such as "camera.")."""
    data = _json_object(data, at[:-1] or "camera JSON")
    intr = {"skew": 0.0, **_json_object(data.get("intrinsics"), at + "intrinsics")}
    k = {key: float(_floats(intr.get(key), f"{at}intrinsics.{key}")) for key in ("fx", "fy", "cx", "cy", "skew")}
    extr = _json_object(data.get("extrinsics"), at + "extrinsics")
    rotation = _floats(extr.get("rotation"), f"{at}extrinsics.rotation", (3, 3))
    translation = _floats(extr.get("translation"), f"{at}extrinsics.translation", (3,))
    size = _image_size(data.get("image_size"), at + "image_size")
    with _naming(f"{at}intrinsics or extrinsics"):
        return CameraRig(Intrinsics(**k), Extrinsics(rotation=rotation, translation=translation), size)


def load_rig(path: str | Path) -> CameraRig:
    return rig_from_dict(_read_json(path))


def save_rig(rig: CameraRig, path: str | Path) -> None:
    _write_file(path, json.dumps(rig_to_dict(rig), indent=2) + "\n")


def load_homography(path: str | Path) -> Homography:
    """The homography of a JSON file {"matrix": 3x3 numbers}.

    Raises MissingField naming the field when it is absent or unusable, and
    NonFiniteInput or SingularHomography on a matrix that is not one.
    """
    data = _json_object(_read_json(path), "homography JSON")
    return Homography(_floats(data.get("matrix"), "matrix", (3, 3)))


def _image_size(value, name: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int and v > 0 for v in value)):
        raise MissingField(f"{name} must be two positive integers, got {value!r}")
    return tuple(value)


# --- config dataclasses (GridSpec, DecodeParams, EvalConfig, SceneParams) ---

def _finite_number(value) -> bool:
    """True for a JSON number (see _json_number_type) within the float range; NaN and inf fail."""
    return _json_number_type(type(value)) and abs(value) <= sys.float_info.max


def from_dict(cls, data):
    """Build the config dataclass `cls` from a parsed JSON object, strictly.

    The keys are the field names of `cls`; a missing key takes the field's
    default.  Where the default is a float the value must be a finite int
    or float, and where it is an int, an int within the float range (bool
    is refused for both); where it is a tuple, a list (or tuple) of finite
    numbers, which becomes a tuple.  Other values pass through.  The
    class's own checks run in `cls(**kwargs)`; their ValueError, whose
    message names the key, is raised as ConfigError too.  Raises
    ConfigError naming the class and the key.
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
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# --- lanes JSON ---

def _check_fits(lanes: list[Lane3D], fits: list[FittedLane] | None) -> None:
    if fits is not None and len(fits) != len(lanes):
        raise ShapeMismatch(f"{len(fits)} fit(s) for {len(lanes)} lane(s)")


def lanes_to_dict(lanes: list[Lane3D], fits: list[FittedLane] | None = None) -> dict:
    """The lanes JSON object; `fits`, when given, holds one fit per lane (else ShapeMismatch)."""
    _check_fits(lanes, fits)
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
    """Lanes from a parsed lanes JSON object; a lane without an id takes its 1-based position.

    Raises MissingField naming the field (such as lanes[2].id) when the
    layout or a value is unusable, and NonFiniteInput on NaN or infinite
    points.
    """
    _json_object(data, "lanes JSON")
    if not isinstance(data.get("lanes"), list):
        raise MissingField(f"lanes must be a list, got {type(data.get('lanes')).__name__}")
    lanes = []
    for i, entry in enumerate(data["lanes"]):
        entry = _json_object(entry, f"lanes[{i}]")
        lane_id = entry.get("id", i + 1)
        if type(lane_id) is not int or not -(2**63) <= lane_id < 2**63:
            raise MissingField(f"lanes[{i}].id must be a 64-bit integer, got {lane_id!r}")
        points = _floats(entry.get("points"), f"lanes[{i}].points", (None, 3))
        with _naming(f"lanes[{i}].points"):
            lanes.append(Lane3D(points=points, id=lane_id))
    return lanes


def load_lanes(path: str | Path) -> list[Lane3D]:
    return lanes_from_dict(_read_json(path))


def _layout(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Encoded JSON `items` as json.dumps(..., indent=2) lays out a list (or object) `depth` spaces in."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 2)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


def _numbers(values: list) -> list[str]:
    """Each number as json.dumps writes it, from one call to the C encoder."""
    return json.dumps(values)[1:-1].split(", ") if values else []


# One point row of the lanes file; json.dumps writes a finite float as its repr.
_POINT_ROW = _layout(["%r"] * 3, 8)


def save_lanes(lanes: list[Lane3D], path: str | Path, fits: list[FittedLane] | None = None) -> None:
    """Write the lanes JSON: byte-identical to json.dumps(lanes_to_dict(lanes, fits), indent=2) + "\n",
    overwriting `path` in place (see _write_file).

    With `indent`, json.dumps runs CPython's pure-Python encoder; here each
    lane's points are written by one %-format of a row template, the fit
    coefficients by the C encoder, and only the fixed schema's newlines and
    indents in Python.  Raises ShapeMismatch, and writes nothing, unless
    `fits` is None or holds one fit per lane, or when a lane's points are
    not (N, 3); NonFiniteInput, naming the lane, on NaN or infinite points
    (json.dumps would write NaN or Infinity, which load_lanes refuses).
    """
    _check_fits(lanes, fits)
    entries = []
    for i, lane in enumerate(lanes):
        pts = lane.points
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ShapeMismatch(f"lanes[{i}].points must be (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise NonFiniteInput(f"lanes[{i}].points holds NaN or infinite values")
        points = _layout([_POINT_ROW] * len(pts), 6) % tuple(pts.ravel().tolist())
        fields = [f'"id": {int(lane.id)}', '"points": ' + points]
        if fits is not None:
            fit = fits[i]
            coeffs = {"y_coeffs": fit.y_coeffs.tolist(), "z_coeffs": fit.z_coeffs.tolist(), "x_range": list(fit.x_range)}
            fields.append('"fit": ' + _layout([f'"{key}": ' + _layout(_numbers(v), 8) for key, v in coeffs.items()], 6, "{}"))
        entries.append(_layout(fields, 4, "{}"))
    _write_file(path, '{\n  "lanes": ' + _layout(entries, 2) + "\n}\n")


# --- scene records ---

def scene_to_dict(scene: SceneRecord) -> dict:
    return {
        "camera": rig_to_dict(scene.rig),
        "lanes": lanes_to_dict(scene.lanes)["lanes"],
        "scene_tag": scene.scene_tag,
    }


def scene_from_dict(data: dict) -> SceneRecord:
    """The scene of a parsed scene JSON object; raises MissingField naming the field."""
    _json_object(data, "scene JSON")
    rig = _rig_at(data.get("camera"), "camera.")
    scene_tag = data.get("scene_tag", "")
    if not isinstance(scene_tag, str):
        raise MissingField(f"scene_tag must be a string, got {type(scene_tag).__name__}")
    return SceneRecord(rig=rig, lanes=lanes_from_dict({"lanes": data.get("lanes")}), scene_tag=scene_tag)


def load_scene(path: str | Path) -> SceneRecord:
    return scene_from_dict(_read_json(path))


def save_scene(scene: SceneRecord, path: str | Path) -> None:
    _write_file(path, json.dumps(scene_to_dict(scene), indent=2) + "\n")


# --- OpenLane-style frames ---

def parse_openlane_frame(json_text: str) -> SceneRecord:
    """Parse one OpenLane-layout frame annotation into a road-frame scene.

    Required fields: "intrinsic" (3x3), "extrinsic" (4x4, camera to road),
    "lane_lines" (list of {"xyz": 3xN camera-frame points, optional
    "visibility", "category"}); optional "image_size" (two positive ints).
    Points keep their full extent; clipping to the grid is the encoder's
    job.  Every bad input raises a LaneBevError naming the field; a lane
    needs 2 points with distinct x.
    """
    data = _json_object(_parse_json(json_text, "frame"), "frame")
    intrinsic = _floats(data.get("intrinsic"), "intrinsic", (3, 3))
    extrinsic = _floats(data.get("extrinsic"), "extrinsic", (4, 4))
    rot_c2r = extrinsic[:3, :3]
    # Huge entries overflow to inf or NaN here, and both checks refuse those.
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(intrinsic)
        off = np.max(np.abs(rot_c2r.T @ rot_c2r - np.eye(3)))
    if not abs(det) >= 1e-12:
        raise MissingField("intrinsic matrix is not invertible")
    if not off <= 1e-6:
        raise NonOrthonormalRotation("extrinsic rotation fails orthonormality within 1e-6")
    size = _image_size(data.get("image_size", [1024, 576]), "image_size")
    lane_lines = data.get("lane_lines")
    if not isinstance(lane_lines, list):
        raise MissingField(f"lane_lines must be a list, got {type(lane_lines).__name__}")

    # road->camera rig from the camera->road extrinsic.  A rotation written
    # to 7 digits is orthonormal only to about 1e-7, so the rig takes the
    # nearest rotation; a reflection is left for Extrinsics to refuse.
    rotation = rot_c2r.T
    if np.linalg.det(rotation) > 0:
        rotation = _nearest_rotation(rotation)
    translation = -rotation @ extrinsic[:3, 3]
    with _naming("intrinsic or extrinsic"):
        intrinsics = Intrinsics(
            fx=intrinsic[0, 0], fy=intrinsic[1, 1], cx=intrinsic[0, 2], cy=intrinsic[1, 2], skew=intrinsic[0, 1]
        )
        rig = CameraRig(intrinsics, Extrinsics(rotation=rotation, translation=translation), size)

    lanes = []
    for i, entry in enumerate(lane_lines):
        xyz = _floats(_json_object(entry, f"lane_lines[{i}]").get("xyz"), f"lane_lines[{i}].xyz", (3, None))
        p_road = (extrinsic[:3, :3] @ xyz + extrinsic[:3, 3:4]).T
        with _naming(f"lane_lines[{i}]"):
            lanes.append(Lane3D(points=p_road, id=i + 1))
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
    """Write a [0, 1] float image as binary PGM (2-D) or PPM (3-D, 3 channels),
    overwriting `path` in place (see _write_file).  Raises ShapeMismatch for
    any other shape and NonFiniteInput on NaN or infinity, naming the file;
    either way it writes nothing."""
    img = np.asarray(image, dtype=float)
    if not (img.ndim == 2 or (img.ndim == 3 and img.shape[2] == 3)):
        raise ShapeMismatch(f"{path}: image must be HxW or HxWx3, got {img.shape}")
    if not np.isfinite(img).all():
        raise NonFiniteInput(f"{path}: image holds NaN or infinite values")
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8, order="C")
    header = f"P{5 if data.ndim == 2 else 6}\n{data.shape[1]} {data.shape[0]}\n255\n"
    _write_file(path, header, data.data)


def read_pnm(path: str | Path) -> np.ndarray:
    """Read binary PGM/PPM (8- or 16-bit samples) into a [0, 1] float array.

    Raises ImageFormatError naming the file on a bad magic number, a
    missing or non-numeric header field, a maxval outside 1..65535,
    truncated pixel data and a sample above maxval.
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
    if count and raw.max() > maxval:
        raise ImageFormatError(f"{path}: sample above maxval {maxval}: {raw.max()}")
    img = raw.reshape((height, width, channels)).astype(float) / float(maxval)
    return img[:, :, 0] if channels == 1 else img
