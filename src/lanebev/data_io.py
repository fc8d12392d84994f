"""File formats: .npy tensors, JSON schemas, OpenLane frames, PGM/PPM.

Tensors are numpy's .npy files, so the network side reads and writes them
with `np.load` and `np.save`.  JSON schemas for cameras, lanes, scenes and
homographies live here so every CLI subcommand shares one source of truth;
the config files (grid, decode, eval and scene parameters) are read by
`from_dict`, whose keys and defaults are the dataclass fields.  Every JSON
file is read by one reader (`_read_json`): UTF-8 text holding one JSON
value, or MalformedJson naming the file.  Every file, configs included,
follows one object rule (`_json_object`: an object, whose unknown keys are
refused everywhere but in an OpenLane frame), and its numbers are read by
`_floats` by the constructors' rule (errors._array_field): a number is a
JSON int or float, and a string, boolean or null is MissingField, a wrong
shape ShapeMismatch and NaN or infinity NonFiniteInput, each naming the
key path.  Every JSON text lanebev writes is one `json.dumps` line and a
newline (`_json_text`); the reader takes any layout, so indented files
written by earlier versions still load.  OpenLane-style frame annotations
are parsed into road-frame scene records; the frame's 4x4 extrinsic maps
camera coordinates to the road frame and lane points are stored
camera-frame as 3xN arrays, matching the public per-frame layout.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import re
import stat
from itertools import chain
from pathlib import Path

import numpy as np
import numpy.lib.format as npy

from .camera_geometry import CameraRig, Extrinsics, Homography, Intrinsics, _nearest_rotation
from .errors import (
    ImageFormatError,
    InvalidValue,
    MalformedJson,
    MissingField,
    NonFiniteInput,
    ShapeMismatch,
    TensorFormatError,
    _array_field,
    _declarations,
    _number_type,
    _numbers,
    _object_field,
    _object_list,
)
from .lane_grid import Lane3D
from .postproc import FittedLane
from .synth import SceneRecord


# --- one writer, one JSON text ---

def _json_text(obj) -> str:
    """`obj` as the text of every JSON file lanebev writes: one json.dumps
    line (default separators, a finite float as its repr) and a newline.
    Its values are built afresh from arrays and numbers, so they hold no
    cycle; skipping the encoder's cycle check saves about a tenth of the
    time of a lanes file, one check per point row."""
    return json.dumps(obj, check_circular=False) + "\n"


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


# --- .npy tensors ---

def write_tensor(array: np.ndarray, path: str | Path) -> None:
    """Store `array` as an .npy file of little-endian float32 in C order,
    its header byte-equal to np.save's, overwriting `path` in place (see
    _write_file).  Raises ShapeMismatch naming the file unless the rank is
    1..4, and NonFiniteInput when a finite value lies beyond the float32
    range; either way it writes nothing."""
    src = _numbers("write_tensor.array", array)
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(src, dtype="<f4")
    if not 1 <= src.ndim <= 4:  # ascontiguousarray makes a scalar 1-D
        raise ShapeMismatch(f"{path}: tensor rank must be 1..4, got {src.ndim}")
    overflowed = int(np.isfinite(src[np.isinf(arr)]).sum())
    if overflowed:
        raise NonFiniteInput(f"{path}: {overflowed} finite value(s) beyond the float32 range")
    header = io.BytesIO()
    npy.write_array_header_1_0(header, npy.header_data_from_array_1_0(arr))
    _write_file(path, header.getvalue(), arr.data)


def read_tensor(path: str | Path) -> np.ndarray:
    """The array in the .npy file at `path`, of a real float dtype and rank
    1..4, as stored: byte order kept, a Fortran-order file as a transpose.

    numpy's format 1.0 and 2.0 header readers parse the header, and for a
    regular file the payload size it gives is checked against the file's
    size before anything is allocated; the payload is read straight into
    the returned array.  A pipe (such as /dev/stdin) is read whole first.
    Raises TensorFormatError naming the file on another magic (an old .bldt
    file, an .npz, a pickle), version, dtype or rank, a dim that is not a
    non-negative int, a header numpy cannot parse or one written by Python
    2 (which numpy would reread with a warning), a payload of another size,
    and a size change while it reads.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            size = st.st_size
        else:
            data = fh.read()
            size, fh = len(data), io.BytesIO(data)
        # numpy refuses a header over 10,000 bytes, but asks for the length a
        # header states in one read, which a file object allocates up front
        blob = fh.read(12 + 10_000)
        head = io.BytesIO(blob)
        try:
            version = npy.read_magic(head)
            if version in ((1, 0), (2, 0)):
                start = head.tell() + 2 * version[0]  # the header's length takes 2 bytes in 1.0, 4 in 2.0
                # numpy rereads a Python 2 header, such as (2L,), without each L after a number, and warns
                if re.search(rb"[\w.]\s*L\b", blob[start : start + int.from_bytes(blob[head.tell() : start], "little")]):
                    raise TensorFormatError("header written by Python 2, an integer with an L suffix")
                header = (npy.read_array_header_1_0 if version == (1, 0) else npy.read_array_header_2_0)(head)
        # numpy's ValueError, or a TypeError, SyntaxError, RecursionError or
        # tokenize.TokenError from the Python literal parser it runs on the header
        except Exception as exc:
            raise TensorFormatError(f"{path}: {exc}") from exc
        if version not in ((1, 0), (2, 0)):
            raise TensorFormatError(f"{path}: .npy version {version[0]}.{version[1]}, expected 1.0 or 2.0")
        shape, fortran, dtype = header
        if dtype.kind != "f" or not 1 <= len(shape) <= 4 or not all(type(n) is int and n >= 0 for n in shape):
            raise TensorFormatError(f"{path}: {dtype} of shape {shape}, expected a real float type of rank 1..4")
        expected = math.prod(shape) * dtype.itemsize
        payload = size - head.tell()
        if payload != expected:
            raise TensorFormatError(f"{path}: payload {payload} bytes, expected {expected}")
        fh.seek(head.tell())
        out = np.empty(shape[::-1] if fortran else shape, dtype=dtype)
        if fh.readinto(out) != expected:
            raise TensorFormatError(f"{path}: file changed size while read")
    return out.T if fortran else out


# --- JSON values: one reader, one array reader ---

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


def _floats(value, name: str, shape: tuple[int | None, ...] = ()) -> np.ndarray:
    """A parsed JSON value as a float array: the array field `name` of
    `shape` (see errors._array_field), except that a value that is missing,
    null or not numbers (a string or boolean leaf, a ragged nest) raises
    MissingField naming `name`."""
    if value is None:
        raise MissingField(f"{name}: missing or null")
    try:
        return _array_field(name, value, shape)
    except InvalidValue as exc:
        raise MissingField(str(exc)) from exc


def _json_object(value, name: str, keys: tuple[str, ...] | None = None) -> dict:
    """`value`, a JSON object whose keys, when `keys` is given, are among
    them; else MissingField naming `name` and the first unknown key."""
    if not isinstance(value, dict):
        raise MissingField(f"{name}: must be a JSON object, got {type(value).__name__}")
    unknown = value.keys() - keys if keys is not None else ()
    if unknown:
        raise MissingField(f"{name}: unknown key {min(unknown)!r}, expected one of {', '.join(keys)}")
    return value


# --- dataclass JSON objects, read by their field declarations ---

def _from_json(cls, data, name: str, at: str):
    """The dataclass `cls` from the parsed JSON object `data`, named `name`,
    by its field declarations (errors._Rule): the keys are the fields, an
    unknown one is refused (see _json_object) and one left out takes its
    default, if any.  An object field is read from a nested object, any
    other by _floats, named `at` and the key, and a number for a float field
    becomes a float.  A value the class refuses, such as 2.5 for an integer,
    raises its error."""
    fields = dataclasses.fields(cls)
    data = _json_object(data, name, tuple(f.name for f in fields))
    kwargs = {}
    for f in fields:
        rule, path, value = f.metadata["rule"], at + f.name, data.get(f.name)
        if f.name not in data and (f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING):
            continue
        if rule.kind == "object":
            kwargs[f.name] = _from_json(rule.cls, value, path, path + ".")
        else:
            number = _floats(value, path, () if rule.kind == "scalar" else rule.shape)
            kwargs[f.name] = float(number) if rule.kind == "scalar" and not rule.integer else value
    return cls(**kwargs)


def _layout(cls, **extra: str) -> str:
    """`{field,...}` of the dataclass `cls` for --schema, by its field
    declarations: numbers as `name:[dims]` (or their items), an object as
    its own layout; `extra` adds keys with their layouts."""
    layouts = {
        name: _layout(rule.cls) if rule.kind == "object" else None if rule.kind == "scalar"
        else f"[{rule.items or 'x'.join('n' if n is None else str(n) for n in rule.shape)}]"
        for name, _, rule in _declarations(cls)
    }
    return "{" + ",".join(k if v is None else f"{k}:{v}" for k, v in {**layouts, **extra}.items()) + "}"


# --- camera / homography JSON ---

def rig_to_dict(rig: CameraRig) -> dict:
    _object_field("rig_to_dict.rig", rig, CameraRig)
    return {
        "intrinsics": dataclasses.asdict(rig.intrinsics),
        "extrinsics": {k: v.tolist() for k, v in vars(rig.extrinsics).items()},
        "image_size": list(rig.image_size),
    }


def rig_from_dict(data: dict) -> CameraRig:
    """The rig of a parsed camera JSON object.

    Raises MissingField naming the field (such as intrinsics.fx) when it is
    absent, unknown or unusable, ShapeMismatch on a wrong shape,
    NonFiniteInput on NaN or infinite values, and InvalidValue naming the
    class field (such as Intrinsics.fx or CameraRig.image_size) on a value
    the rig refuses.
    """
    return _from_json(CameraRig, data, "camera JSON", "")


def load_rig(path: str | Path) -> CameraRig:
    return rig_from_dict(_read_json(path))


def save_rig(rig: CameraRig, path: str | Path) -> None:
    _object_field("save_rig.rig", rig, CameraRig)
    _write_file(path, _json_text(rig_to_dict(rig)))


def load_homography(path: str | Path) -> Homography:
    """The homography of a JSON file {"matrix": 3x3 numbers}.

    Raises MissingField naming the field when it is absent, unknown or
    unusable, ShapeMismatch on a wrong shape, and NonFiniteInput or
    SingularHomography on a matrix that is not one.
    """
    data = _json_object(_read_json(path), "homography JSON", ("matrix",))
    return Homography(_floats(data.get("matrix"), "matrix", (3, 3)))


# --- config dataclasses (GridSpec, DecodeParams, EvalConfig, SceneParams) ---

def from_dict(cls, data):
    """Build the config dataclass `cls` from a parsed JSON object, strictly,
    by the rules of every other file lanebev reads (see _from_json), each
    value named `Class.key`."""
    return _from_json(cls, data, cls.__name__, cls.__name__ + ".")


# --- lanes JSON ---

def lanes_to_dict(lanes: list[Lane3D], fits: list[FittedLane] | None = None) -> dict:
    """The lanes JSON object, checked as load_lanes checks it.

    Raises ShapeMismatch unless `fits` is None or holds one fit per lane,
    or when a lane's points are not (N, 3), and NonFiniteInput on NaN or
    infinite points or fit values, each naming the key path (such as
    lanes[1].points or lanes[1].fit.y_coeffs), which JSON cannot hold.
    The points are checked again because Lane3D.points can be reassigned;
    FittedLane leaves them unchecked for NaN, as the decoder makes one per lane.
    """
    _object_list("lanes_to_dict.lanes", lanes, Lane3D)
    if fits is not None:
        _object_list("lanes_to_dict.fits", fits, FittedLane)
    if fits is not None and len(fits) != len(lanes):
        raise ShapeMismatch(f"lanes_to_dict.fits: {len(fits)} fit(s) for {len(lanes)} lane(s)")
    out = []
    for i, lane in enumerate(lanes):
        points = _array_field(f"lanes[{i}].points", lane.points, (None, 3))
        entry = {"id": int(lane.id), "points": points.tolist()}
        if fits is not None:
            entry["fit"] = fit = {
                "y_coeffs": fits[i].y_coeffs.tolist(),
                "z_coeffs": fits[i].z_coeffs.tolist(),
                "x_range": list(fits[i].x_range),
            }
            if not all(map(math.isfinite, chain(*fit.values()))):
                key = next(key for key, values in fit.items() if not all(map(math.isfinite, values)))
                raise NonFiniteInput(f"lanes[{i}].fit.{key}: holds NaN or infinite values")
        out.append(entry)
    return {"lanes": out}


def lanes_from_dict(data: dict) -> list[Lane3D]:
    """Lanes from a parsed lanes JSON object; a lane without an id takes its 1-based position.

    Raises MissingField naming the field (such as lanes[2].id) when the
    layout, a key or a value is unusable, ShapeMismatch on points that are
    not (N, 3), NonFiniteInput on NaN or infinite points, and InvalidValue
    naming Lane3D.id on an id beyond 64 bits, or Lane3D.points and the lane
    id on a lane without 2 distinct x.
    """
    _json_object(data, "lanes JSON", ("lanes",))
    if not isinstance(data.get("lanes"), list):
        raise MissingField(f"lanes: must be a list, got {type(data.get('lanes')).__name__}")
    lanes = []
    for i, entry in enumerate(data["lanes"]):
        entry = _json_object(entry, f"lanes[{i}]", ("id", "points", "fit"))
        lane_id = entry.get("id", i + 1)
        if not _number_type(type(lane_id), integer=True):
            raise MissingField(f"lanes[{i}].id: must be a JSON integer, got {lane_id!r}")
        points = _floats(entry.get("points"), f"lanes[{i}].points", (None, 3))
        lanes.append(Lane3D(points=points, id=lane_id))
    return lanes


def load_lanes(path: str | Path) -> list[Lane3D]:
    return lanes_from_dict(_read_json(path))


def save_lanes(lanes: list[Lane3D], path: str | Path, fits: list[FittedLane] | None = None) -> None:
    """Write the lanes JSON (see lanes_to_dict), overwriting `path` in place (see _write_file)."""
    _object_list("save_lanes.lanes", lanes, Lane3D)
    if fits is not None:
        _object_list("save_lanes.fits", fits, FittedLane)
    _write_file(path, _json_text(lanes_to_dict(lanes, fits)))


# --- scene records ---

def scene_to_dict(scene: SceneRecord) -> dict:
    _object_field("scene_to_dict.scene", scene, SceneRecord)
    return {
        "camera": rig_to_dict(scene.rig),
        "lanes": lanes_to_dict(scene.lanes)["lanes"],
        "scene_tag": scene.scene_tag,
    }


def scene_from_dict(data: dict) -> SceneRecord:
    """The scene of a parsed scene JSON object; raises as rig_from_dict and lanes_from_dict do."""
    _json_object(data, "scene JSON", ("camera", "lanes", "scene_tag"))
    rig = _from_json(CameraRig, data.get("camera"), "camera", "camera.")
    scene_tag = data.get("scene_tag", "")
    if not isinstance(scene_tag, str):
        raise MissingField(f"scene_tag: must be a string, got {type(scene_tag).__name__}")
    return SceneRecord(rig=rig, lanes=lanes_from_dict({"lanes": data.get("lanes")}), scene_tag=scene_tag)


def load_scene(path: str | Path) -> SceneRecord:
    return scene_from_dict(_read_json(path))


def save_scene(scene: SceneRecord, path: str | Path) -> None:
    _object_field("save_scene.scene", scene, SceneRecord)
    _write_file(path, _json_text(scene_to_dict(scene)))


# --- OpenLane-style frames ---

def parse_openlane_frame(json_text: str) -> SceneRecord:
    """Parse one OpenLane-layout frame annotation into a road-frame scene.

    Required fields: "intrinsic" (3x3, upper triangular with [2][2] = 1),
    "extrinsic" (4x4, camera to road, bottom row [0, 0, 0, 1]),
    "lane_lines" (list of {"xyz": 3xN camera-frame points, optional
    "visibility", "category"}); optional "image_size" (two positive ints).
    Points keep their full extent; clipping to the grid is the encoder's
    job.  Every bad input raises a LaneBevError naming the field: a matrix
    entry the rig would drop, a singular intrinsic and a non-orthonormal
    rotation raise InvalidValue naming `frame.intrinsic` or
    `frame.extrinsic`; a lane needs 2 points with distinct x, and the image
    size is CameraRig's to refuse.
    """
    data = _json_object(_parse_json(json_text, "frame"), "frame")
    intrinsic = _floats(data.get("intrinsic"), "intrinsic", (3, 3))
    extrinsic = _floats(data.get("extrinsic"), "extrinsic", (4, 4))
    if intrinsic[1, 0] or intrinsic[2, 0] or intrinsic[2, 1] or intrinsic[2, 2] != 1:
        raise InvalidValue(f"frame.intrinsic: must hold 0 below the diagonal and 1 at [2][2], got {intrinsic.tolist()}")
    if extrinsic[3].tolist() != [0, 0, 0, 1]:
        raise InvalidValue(f"frame.extrinsic: bottom row must be [0, 0, 0, 1], got {extrinsic[3].tolist()}")
    rot_c2r = extrinsic[:3, :3]
    # Huge or subnormal entries give inf, NaN or 0 here, and both checks refuse those.
    with np.errstate(over="ignore", invalid="ignore"):
        det = intrinsic[0, 0] * intrinsic[1, 1]
        off = np.max(np.abs(rot_c2r.T @ rot_c2r - np.eye(3)))
    if not abs(det) >= 1e-12:
        raise InvalidValue("frame.intrinsic: matrix is not invertible")
    if not off <= 1e-6:
        raise InvalidValue("frame.extrinsic: rotation fails orthonormality within 1e-6")
    size = data.get("image_size", [1024, 576])
    _floats(size, "image_size", (2,))
    lane_lines = data.get("lane_lines")
    if not isinstance(lane_lines, list):
        raise MissingField(f"lane_lines: must be a list, got {type(lane_lines).__name__}")

    # road->camera rig from the camera->road extrinsic.  A rotation written
    # to 7 digits is orthonormal only to about 1e-7, so the rig takes the
    # nearest rotation; a reflection is left for Extrinsics to refuse.
    rotation = rot_c2r.T
    if np.linalg.det(rotation) > 0:
        rotation = _nearest_rotation(rotation)
    translation = -rotation @ extrinsic[:3, 3]
    intrinsics = Intrinsics(
        fx=intrinsic[0, 0], fy=intrinsic[1, 1], cx=intrinsic[0, 2], cy=intrinsic[1, 2], skew=intrinsic[0, 1]
    )
    rig = CameraRig(intrinsics, Extrinsics(rotation=rotation, translation=translation), size)

    lanes = []
    for i, entry in enumerate(lane_lines):
        xyz = _floats(_json_object(entry, f"lane_lines[{i}]").get("xyz"), f"lane_lines[{i}].xyz", (3, None))
        p_road = (extrinsic[:3, :3] @ xyz + extrinsic[:3, 3:4]).T
        lanes.append(Lane3D(points=p_road, id=i + 1))
    return SceneRecord(rig=rig, lanes=lanes, scene_tag=str(data.get("file_path", "")))


def export_openlane_frame(scene: SceneRecord, file_path: str = "") -> str:
    """A scene as JSON text in the OpenLane per-frame layout (inverse of parse; see _json_text)."""
    _object_field("export_openlane_frame.scene", scene, SceneRecord)
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
    return _json_text(frame)


# --- PGM / PPM images ---

def write_pnm(image: np.ndarray, path: str | Path) -> None:
    """Write a [0, 1] float image as binary PGM (2-D) or PPM (3-D, 3 channels),
    overwriting `path` in place (see _write_file).  Raises ShapeMismatch for
    any other shape and NonFiniteInput on NaN or infinity, naming the file;
    either way it writes nothing."""
    img = _numbers("write_pnm.image", image).astype(float, copy=False)
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
    # Each of width, height and maxval follows whitespace and "#" comments to
    # the end of their line, and runs to the next whitespace.
    header = re.match(rb"P[56]" + rb"(?:\s|#[^\n]*)*(\S*)" * 3, blob)
    for name, token in zip(("width", "height", "maxval"), header.groups()):
        if not (token.isdigit() and len(token) <= 20):
            raise ImageFormatError(f"{path}: header {name} {token[:20]!r} is not an integer of 1 to 20 digits")
    if header.end() == len(blob):
        raise ImageFormatError(f"{path}: header truncated, no whitespace after maxval")
    pos = header.end() + 1  # single whitespace after maxval
    width, height, maxval = map(int, header.groups())
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
