import dataclasses
import hashlib
import json
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanebev import cli, data_io
from lanebev.errors import (
    BadMagic,
    ConfigError,
    ImageFormatError,
    LaneBevError,
    MalformedJson,
    MissingField,
    NonFiniteInput,
    NonOrthonormalRotation,
    ShapeMismatch,
    SingularHomography,
    TruncatedPayload,
    UnsupportedVersion,
)
from lanebev.lane_grid import GridSpec, Lane3D, encode_lanes, ideal_prediction
from lanebev.metrics import EvalConfig
from lanebev.postproc import DecodeParams, FittedLane, LaneInstance, decode_lanes, fit_lanes
from lanebev.synth import SceneParams, canonical_rig, generate_scene

from test_lane_path_pin import pin_frames

LANES_FILE_SHA256 = "7f98575a71884fafe26da183a0c1f4cda78c14292e4aa86a61a2de16f402b59f"


class TestTensorFormat:
    def test_single_element_layout(self, tmp_path):
        # 4 magic + 2 version + 1 ndim + 4 dim + 4 payload = 15 bytes
        path = tmp_path / "one.bldt"
        data_io.write_tensor(np.array([0.0], dtype=np.float32), path)
        blob = path.read_bytes()
        assert len(blob) == 15
        assert blob[:4] == b"BLDT"
        assert struct.unpack("<H", blob[4:6])[0] == 1
        assert blob[6] == 1
        assert struct.unpack("<I", blob[7:11])[0] == 1
        assert struct.unpack("<f", blob[11:15])[0] == 0.0

    def test_grid_tensor_roundtrip_bit_exact(self, tmp_path, rng):
        arr = rng.random((200, 40)).astype(np.float32)
        path = tmp_path / "grid.bldt"
        data_io.write_tensor(arr, path)
        back = data_io.read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize("big", [1e39, -1e39])
    def test_finite_value_beyond_float32_range_raises(self, tmp_path, big):
        path = tmp_path / "big.bldt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match=re.escape(str(path))):
                data_io.write_tensor(np.array([1.0, big]), path)
        assert not path.exists()

    def test_float32_extremes_and_non_finite_values_keep_their_bytes(self, tmp_path):
        f32 = np.finfo(np.float32)
        arr = np.array([f32.max, -f32.max, f32.tiny, np.inf, -np.inf, np.nan], dtype=np.float32)
        path = tmp_path / "edge.bldt"
        data_io.write_tensor(arr.astype(float), path)
        assert path.read_bytes()[11:] == arr.astype("<f4").tobytes()

    def test_write_read_write_is_byte_identical(self, tmp_path, rng):
        arr = rng.normal(size=(7, 3, 2)).astype(np.float32)
        p1 = tmp_path / "a.bldt"
        p2 = tmp_path / "b.bldt"
        data_io.write_tensor(arr, p1)
        data_io.write_tensor(data_io.read_tensor(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(
        shape=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, shape, seed, tmp_path_factory):
        arr = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
        path = tmp_path_factory.mktemp("bldt") / "t.bldt"
        data_io.write_tensor(arr, path)
        assert np.array_equal(data_io.read_tensor(path), arr)

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (2, 1, 3, 2), (0,), (3, 0, 2)])
    def test_roundtrip_by_rank_and_short_payload(self, tmp_path, rng, shape):
        arr = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.bldt"
        data_io.write_tensor(arr, path)
        blob = path.read_bytes()
        assert blob == b"BLDT" + struct.pack(f"<HB{arr.ndim}I", 1, arr.ndim, *shape) + arr.astype("<f4").tobytes()
        back = data_io.read_tensor(path)
        assert back.dtype == np.float32 and back.shape == shape and back.flags.writeable
        assert np.array_equal(back, arr)
        if arr.size:
            path.write_bytes(blob[:-4])
            with pytest.raises(TruncatedPayload, match="expected"):
                data_io.read_tensor(path)

    @pytest.mark.parametrize("shape", [(5,), (200, 40, 11), (3, 0, 2)])
    def test_read_through_a_pipe(self, tmp_path, rng, shape):
        arr = rng.normal(size=shape).astype(np.float32)
        data_io.write_tensor(arr, tmp_path / "t.bldt")
        blob = (tmp_path / "t.bldt").read_bytes()
        assert np.array_equal(_read_tensor_from_pipe(blob), arr)
        if arr.size:
            with pytest.raises(TruncatedPayload, match=f"payload {len(blob) - 4 - 7 - 4 * arr.ndim} bytes, expected"):
                _read_tensor_from_pipe(blob[:-4])
        with pytest.raises(TruncatedPayload, match=f"payload {len(blob) + 1 - 7 - 4 * arr.ndim} bytes, expected"):
            _read_tensor_from_pipe(blob + b"\x00")
        with pytest.raises(BadMagic):
            _read_tensor_from_pipe(b"")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bldt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            data_io.read_tensor(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.bldt"
        path.write_bytes(b"BLDT" + struct.pack("<H", 2) + b"\x01" + struct.pack("<I", 1) + b"\x00" * 4)
        with pytest.raises(UnsupportedVersion):
            data_io.read_tensor(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "x.bldt"
        data_io.write_tensor(rng.random((4, 4)).astype(np.float32), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(TruncatedPayload):
            data_io.read_tensor(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(TruncatedPayload):
            data_io.read_tensor(path)

    def test_bad_rank_rejected(self, tmp_path):
        with pytest.raises(ShapeMismatch, match=re.escape(str(tmp_path / "x.bldt"))):
            data_io.write_tensor(np.zeros((2, 2, 2, 2, 2), dtype=np.float32), tmp_path / "x.bldt")
        assert not (tmp_path / "x.bldt").exists()
        path = tmp_path / "y.bldt"
        path.write_bytes(b"BLDT" + struct.pack("<H", 1) + b"\x05")
        with pytest.raises(TruncatedPayload):
            data_io.read_tensor(path)

    def test_dims_whose_product_wraps_int64(self, tmp_path):
        # 65536**4 = 2**64 wraps to 0 in int64 and would match an empty payload
        path = tmp_path / "x.bldt"
        path.write_bytes(b"BLDT" + struct.pack("<H", 1) + b"\x04" + struct.pack("<4I", *[65536] * 4))
        with pytest.raises(TruncatedPayload):
            data_io.read_tensor(path)

    @given(
        prefix=st.sampled_from([b"", b"BLDT", b"BLDT\x01\x00", b"BLDT\x01\x00\x01", b"BLDT\x01\x00\x02"]),
        tail=st.binary(max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_domain_errors(self, prefix, tail, tmp_path_factory):
        path = tmp_path_factory.mktemp("bldt") / "t.bldt"
        path.write_bytes(prefix + tail)
        try:
            arr = data_io.read_tensor(path)
        except LaneBevError:
            return
        assert arr.dtype == np.float32 and 1 <= arr.ndim <= 4


def _read_tensor_from_pipe(blob):
    """read_tensor of `blob` fed through a pipe by a writer thread."""
    r, w = os.pipe()

    def feed():
        try:
            with open(w, "wb") as fh:
                fh.write(blob)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return data_io.read_tensor(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join()


class TestWriteFile:
    @pytest.mark.parametrize("old_size, new_size", [(70000, 10), (10, 70000), (0, 7), (7, 0), (352000, 351999)])
    def test_overwrite_leaves_exactly_the_new_bytes_in_the_same_inode(self, tmp_path, old_size, new_size):
        path = tmp_path / "f"
        path.write_bytes(b"\xaa" * old_size)
        inode = path.stat().st_ino
        new = np.random.default_rng(new_size).bytes(new_size)
        data_io._write_file(path, new)
        assert path.read_bytes() == new
        assert path.stat().st_size == new_size and path.stat().st_ino == inode

    def test_chunks_are_utf8_text_bytes_and_buffers(self, tmp_path):
        path = tmp_path / "f"
        arr = np.arange(6, dtype="<f4").reshape(2, 3)
        data_io._write_file(path, "é\n", b"\x00", arr.data, np.zeros((3, 0, 2), "<f4").data, "")
        assert path.read_bytes() == "é\n".encode("utf-8") + b"\x00" + arr.tobytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
    def test_new_file_mode_is_that_of_open_wb(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "ref", "wb"):
                pass
            data_io._write_file(tmp_path / "new", b"x")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == stat.S_IMODE((tmp_path / "ref").stat().st_mode)

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old bytes")
        path.chmod(0o640)
        data_io._write_file(path, b"new")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640 and path.read_bytes() == b"new"

    def test_dev_null(self):
        data_io._write_file("/dev/null", "text", b"bytes", np.zeros(3, "<f4").data)

    def test_dev_stdout_of_a_pipe(self):
        code = "from lanebev import data_io; data_io._write_file('/dev/stdout', 'one\\n', b'two\\n')"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"one\ntwo\n"

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(data_io.os, "write", lambda fd, data: write(fd, data[:7]))
        path = tmp_path / "f"
        arr = np.arange(30, dtype="<f4").reshape(3, 10)
        data_io._write_file(path, "header\n", arr.data)
        assert path.read_bytes() == b"header\n" + arr.tobytes()

    def test_a_write_that_raises_leaves_an_empty_file(self, tmp_path, monkeypatch):
        write, calls = os.write, []

        def fail_second_write(fd, data):
            calls.append(len(data))
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return write(fd, data)

        monkeypatch.setattr(data_io.os, "write", fail_second_write)
        path = tmp_path / "f"
        path.write_bytes(b"old" * 1000)
        with pytest.raises(OSError, match="No space"):
            data_io._write_file(path, b"new bytes", b"more new bytes")
        assert calls == [9, 14] and path.read_bytes() == b""

    @pytest.mark.parametrize("bad", [object(), np.zeros((4, 3), "<f4").T.data, np.zeros((4, 6), "<f4")[:, ::2].data])
    def test_a_chunk_that_is_not_flat_bytes_leaves_the_file_untouched(self, tmp_path, bad):
        path = tmp_path / "f"
        path.write_bytes(b"old" * 1000)
        with pytest.raises(TypeError):
            data_io._write_file(path, b"new bytes", bad)
        assert path.read_bytes() == b"old" * 1000
        with pytest.raises(TypeError):
            data_io._write_file(tmp_path / "new", b"new bytes", bad)
        assert not (tmp_path / "new").exists()

    @given(writes=st.lists(st.tuples(st.integers(0, 70000), st.integers(0, 70000)), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_each_write_leaves_exactly_its_payload(self, writes, tmp_path_factory):
        path = tmp_path_factory.mktemp("write") / "f"
        for i, (size, cut) in enumerate(writes):
            payload = np.random.default_rng(i).bytes(size)
            data_io._write_file(path, payload[:cut], memoryview(payload)[cut:])
            assert path.read_bytes() == payload


def _pinned_scene():
    return generate_scene(SceneParams(n_lanes=3, curvature=(-1e-4, 1e-4), hill_amplitude=1.0, camera_jitter=(1.0, 0.1), seed=4))


def _write_decoded_lanes(path):
    lanes, fits = decode_lanes(ideal_prediction(encode_lanes(_pinned_scene().lanes), embed_dim=8))
    data_io.save_lanes(lanes, path, fits)


# Every writer, on fixed inputs, and the SHA-256 of the file it writes;
# recorded from the writers as they were before they overwrote in place.
WRITERS = {
    "write_tensor": lambda path: data_io.write_tensor(np.random.default_rng(1).normal(size=(5, 4, 3)), path),
    "save_lanes": _write_decoded_lanes,
    "save_rig": lambda path: data_io.save_rig(_pinned_scene().rig, path),
    "save_scene": lambda path: data_io.save_scene(_pinned_scene(), path),
    "write_pnm PGM": lambda path: data_io.write_pnm(np.random.default_rng(2).random((9, 13)), path),
    "write_pnm PPM": lambda path: data_io.write_pnm(np.random.default_rng(3).random((9, 13, 3)), path),
}
WRITER_SHA256 = {
    "write_tensor": "6962d9375c94b778067e7d7279eb2c2ec92dd537332d127f1bddf4d7c5beeb07",
    "save_lanes": "1081265cefcaf8715e2d6ff85bf082a5e8f4c54bcc46838143123c5fd4f90af9",
    "save_rig": "ffd94dc12482b5a5d62994509a09023c03f6fb047104173aeb6e77eea04d5417",
    "save_scene": "9ace8e4d64d1bc3a67c4b422f6e62b3f47b3b54d4ddb314b1fa9ff55c705afc7",
    "write_pnm PGM": "d3916fca02ec01d07dcc64657c1c00dd81095617c523d9663aa0a2c661a1ebdd",
    "write_pnm PPM": "4ab637747591434f588bc6c1b44789d314ce0f87017c3da823b922e9489c6393",
}


class TestWritersOverwriteInPlace:
    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_file_is_pinned_fresh_and_over_longer_and_shorter_files(self, tmp_path, writer):
        fresh = tmp_path / "fresh"
        WRITERS[writer](fresh)
        blob = fresh.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == WRITER_SHA256[writer]
        for old in (b"\xff" * (len(blob) + 4097), b"x"):
            path = tmp_path / f"old{len(old)}"
            path.write_bytes(old)
            inode = path.stat().st_ino
            WRITERS[writer](path)
            assert path.read_bytes() == blob and path.stat().st_ino == inode

    def test_json_files_are_json_dumps_indent_2(self, tmp_path):
        scene = _pinned_scene()
        data_io.save_rig(scene.rig, tmp_path / "rig.json")
        data_io.save_scene(scene, tmp_path / "scene.json")
        assert (tmp_path / "rig.json").read_text() == json.dumps(data_io.rig_to_dict(scene.rig), indent=2) + "\n"
        assert (tmp_path / "scene.json").read_text() == json.dumps(data_io.scene_to_dict(scene), indent=2) + "\n"

    @pytest.mark.parametrize("shape, magic", [((9, 13), b"P5"), ((9, 13, 3), b"P6")])
    def test_pnm_file_is_header_and_rounded_samples(self, tmp_path, shape, magic):
        img = np.random.default_rng(5).random(shape)
        data_io.write_pnm(img, tmp_path / "img")
        samples = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8).tobytes()
        assert (tmp_path / "img").read_bytes() == magic + b"\n13 9\n255\n" + samples

    @pytest.mark.parametrize(
        "layout",
        [
            lambda img: np.asfortranarray(img),
            lambda img: np.ascontiguousarray(img.T).T,
            lambda img: np.ascontiguousarray(np.moveaxis(img, -1, 0)).transpose(*range(1, img.ndim), 0),
            lambda img: np.repeat(img, 2, axis=1)[:, ::2],
        ],
        ids=["fortran", "transposed", "last-axis-first", "strided"],
    )
    @pytest.mark.parametrize("shape", [(9, 13), (9, 13, 3)])
    def test_pnm_bytes_do_not_depend_on_the_memory_layout(self, tmp_path, layout, shape):
        img = np.random.default_rng(6).random(shape)
        data_io.write_pnm(img, tmp_path / "c")
        view = layout(img)
        assert np.array_equal(view, img) and not view.flags.c_contiguous
        data_io.write_pnm(view, tmp_path / "other")
        assert (tmp_path / "other").read_bytes() == (tmp_path / "c").read_bytes()


CONFIG_CLASSES = [GridSpec, DecodeParams, EvalConfig, SceneParams]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


class TestConfigFromDict:
    @pytest.mark.parametrize("cls", CONFIG_CLASSES)
    def test_defaults_come_from_the_dataclass(self, cls):
        assert data_io.from_dict(cls, {}) == cls()
        assert data_io.from_dict(cls, dataclasses.asdict(cls())) == cls()
        assert data_io.from_dict(cls, json.loads(json.dumps(dataclasses.asdict(cls())))) == cls()

    def test_values_override_defaults(self):
        cfg = data_io.from_dict(EvalConfig, {"sample_xs": [5, 10.5], "near_limit": 20})
        assert cfg == EvalConfig(sample_xs=(5.0, 10.5), near_limit=20)
        assert data_io.from_dict(SceneParams, {"curvature": [-1e-4, 1e-4]}).curvature == (-1e-4, 1e-4)

    @pytest.mark.parametrize(
        "cls, data, key",
        [
            (DecodeParams, {"dgap": 0.1}, "dgap"),
            (GridSpec, {"cel": 1.0}, "cel"),
            (EvalConfig, {"match_treshold": 0.1}, "match_treshold"),
            (SceneParams, {"nlanes": 6}, "nlanes"),
            (DecodeParams, {"min_points": "4"}, "min_points"),
            (DecodeParams, {"d_gap": None}, "d_gap"),
            (DecodeParams, {"d_gap": float("nan")}, "d_gap"),
            (GridSpec, {"cell": "0.5"}, "cell"),
            (GridSpec, {"x_max": float("inf")}, "x_max"),
            (EvalConfig, {"sample_xs": 5}, "sample_xs"),
            (EvalConfig, {"sample_xs": [3.0, None]}, "sample_xs"),
            (SceneParams, {"curvature": 0.001}, "curvature"),
            (SceneParams, {"seed": True}, "seed"),
            (SceneParams, {"seed": 10**400}, "seed"),
            (SceneParams, {"n_lanes": 2.5}, "n_lanes"),
            (DecodeParams, {"fit_degree": 2.0}, "fit_degree"),
        ],
    )
    def test_unknown_key_or_wrong_type_names_the_key(self, cls, data, key):
        with pytest.raises(ConfigError, match=f"{cls.__name__}.*{key}"):
            data_io.from_dict(cls, data)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="SceneParams"):
            data_io.from_dict(SceneParams, [1, 2])

    def test_dataclass_checks_still_run(self):
        with pytest.raises(ConfigError, match="SceneParams: camera_jitter"):
            data_io.from_dict(SceneParams, {"camera_jitter": [1.0]})
        with pytest.raises(ConfigError, match="DecodeParams: s_threshold"):
            data_io.from_dict(DecodeParams, {"s_threshold": 1.5})

    @given(cls=st.sampled_from(CONFIG_CLASSES), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_raises_only_domain_errors(self, cls, data):
        keys = st.sampled_from([f.name for f in dataclasses.fields(cls)]) | st.text(max_size=4)
        value = data.draw(JSON_VALUES | st.dictionaries(keys, JSON_VALUES, max_size=4))
        try:
            cfg = data_io.from_dict(cls, value)
        except LaneBevError:
            return
        assert isinstance(cfg, cls)


DROP = object()  # a field removed from the JSON object


class TestCameraJson:
    def test_roundtrip(self, tmp_path):
        rig = canonical_rig()
        path = tmp_path / "cam.json"
        data_io.save_rig(rig, path)
        back = data_io.load_rig(path)
        assert back.intrinsics == rig.intrinsics
        assert np.array_equal(back.extrinsics.rotation, rig.extrinsics.rotation)
        assert np.array_equal(back.extrinsics.translation, rig.extrinsics.translation)
        assert back.image_size == rig.image_size

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "cam.json"
        data_io.save_rig(canonical_rig(), path)
        data = json.loads(path.read_text())
        assert set(data) == {"intrinsics", "extrinsics", "image_size"}
        assert set(data["intrinsics"]) == {"fx", "fy", "cx", "cy", "skew"}

    def test_skew_defaults_to_zero(self):
        data = data_io.rig_to_dict(canonical_rig())
        del data["intrinsics"]["skew"]
        assert data_io.rig_from_dict(data).intrinsics == canonical_rig().intrinsics

    @pytest.mark.parametrize(
        "path, value, named",
        [
            ((), [], "camera JSON"),
            (("intrinsics",), DROP, "intrinsics"),
            (("intrinsics",), [], "intrinsics"),
            (("intrinsics", "fx"), DROP, "intrinsics.fx"),
            (("intrinsics", "fx"), "wide", "intrinsics.fx"),
            (("intrinsics", "cy"), [288.0], "intrinsics.cy"),
            (("intrinsics", "fy"), -1.0, "intrinsics or extrinsics"),
            (("extrinsics", "rotation"), [[1.0, 0.0], [0.0, 1.0]], "extrinsics.rotation"),
            (("extrinsics", "rotation"), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], "row"], "extrinsics.rotation"),
            (("extrinsics", "rotation"), np.diag([1.0, 1.0, -1.0]).tolist(), "intrinsics or extrinsics"),
            (("extrinsics", "translation"), {"x": 0.0}, "extrinsics.translation"),
            (("image_size",), [1024], "image_size"),
            (("image_size",), [1024.0, 576.0], "image_size"),
            (("image_size",), [True, 576], "image_size"),
        ],
    )
    def test_bad_field_raises_missing_field_naming_it(self, path, value, named):
        data = data_io.rig_to_dict(canonical_rig())
        if not path:
            data = value
        else:
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        with pytest.raises(MissingField, match=re.escape(named)):
            data_io.rig_from_dict(data)

    @pytest.mark.parametrize(
        "value, error, named",
        [
            ([], MissingField, "homography JSON"),
            ({}, MissingField, "matrix"),
            ({"matrix": None}, MissingField, "matrix"),
            ({"matrix": "eye"}, MissingField, "matrix"),
            ({"matrix": [[1.0, 0.0], [0.0, 1.0]]}, MissingField, "matrix"),
            ({"matrix": [[1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-10]]}, NonFiniteInput, "overflows"),
            ({"matrix": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}, SingularHomography, "singular"),
        ],
    )
    def test_bad_homography_file_names_the_field(self, tmp_path, value, error, named):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(value))
        with pytest.raises(error, match=named):
            data_io.load_homography(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_raises_only_domain_errors(self, data):
        # Any JSON value, or a valid camera with one field replaced by one
        value = data_io.rig_to_dict(canonical_rig())
        section = data.draw(st.sampled_from([(), ("intrinsics",), ("extrinsics",)]))
        where = value[section[0]] if section else value
        where[data.draw(st.sampled_from(sorted(where)))] = data.draw(JSON_VALUES)
        value = data.draw(st.sampled_from([value, data.draw(JSON_VALUES)]))
        try:
            rig = data_io.rig_from_dict(value)
        except LaneBevError:
            return
        assert rig.image_size == tuple(value["image_size"])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_homography_json_raises_only_domain_errors(self, data, tmp_path_factory):
        # Any JSON value, alone or as the matrix, or a matrix with one entry replaced by one
        matrix = np.eye(3).tolist()
        matrix[data.draw(st.integers(0, 2))][data.draw(st.integers(0, 2))] = data.draw(JSON_VALUES)
        value = data.draw(JSON_VALUES)
        path = tmp_path_factory.mktemp("h") / "h.json"
        path.write_text(json.dumps(data.draw(st.sampled_from([value, {"matrix": value}, {"matrix": matrix}]))))
        try:
            h = data_io.load_homography(path)
        except LaneBevError:
            return
        assert h.matrix.shape == (3, 3) and np.isfinite(h.matrix).all()


class TestLanesJson:
    def test_roundtrip_with_fits(self, tmp_path):
        x = np.linspace(3.0, 60.0, 12)
        lanes = [Lane3D(points=np.column_stack([x, 0.05 * x, 0.01 * x]), id=1)]
        instances = [LaneInstance(cluster_id=0, points=lanes[0].points)]
        fits = fit_lanes(instances, DecodeParams())
        path = tmp_path / "lanes.json"
        data_io.save_lanes(lanes, path, fits)
        data = json.loads(path.read_text())
        assert data["lanes"][0]["id"] == 1
        assert "fit" in data["lanes"][0]
        assert set(data["lanes"][0]["fit"]) == {"y_coeffs", "z_coeffs", "x_range"}
        back = data_io.load_lanes(path)
        assert np.allclose(back[0].points, lanes[0].points)

    @pytest.mark.parametrize("n_fits", [0, 1, 3])
    def test_fits_must_pair_with_lanes(self, tmp_path, n_fits):
        x = np.linspace(3.0, 60.0, 12)
        lanes = [Lane3D(points=np.column_stack([x, 0.05 * x + k, 0.01 * x]), id=k + 1) for k in range(2)]
        fit = fit_lanes([LaneInstance(cluster_id=0, points=lanes[0].points)])[0]
        with pytest.raises(ShapeMismatch, match=f"{n_fits} fit"):
            data_io.lanes_to_dict(lanes, [fit] * n_fits)
        with pytest.raises(ShapeMismatch, match=f"{n_fits} fit"):
            data_io.save_lanes(lanes, tmp_path / "lanes.json", [fit] * n_fits)
        assert not (tmp_path / "lanes.json").exists()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_lanes=st.integers(0, 6),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        with_fits=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_file_text_is_json_dumps_indent_2(self, seed, n_lanes, scale, with_fits, tmp_path_factory):
        r = np.random.default_rng(seed)
        lanes, fits = [], []
        for _ in range(n_lanes):
            pts = r.normal(size=(int(r.integers(2, 40)), 3)) * scale
            pts[r.random(pts.shape) < 0.1] = -0.0
            pts[:, 0] = np.arange(len(pts)) * scale
            lanes.append(Lane3D(points=pts, id=int(r.integers(0, 301))))
            degree = int(r.integers(0, 4))
            fits.append(FittedLane(r.normal(size=degree + 1) * scale, r.normal(size=degree + 1), (0.0, float(pts[-1, 0]))))
        fits = fits if with_fits else None
        path = tmp_path_factory.mktemp("lanes") / "lanes.json"
        data_io.save_lanes(lanes, path, fits)
        assert path.read_text() == json.dumps(data_io.lanes_to_dict(lanes, fits), indent=2) + "\n"

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_lanes=st.integers(1, 4),
        scale=st.sampled_from([5e-324, 1e-300, 1e-05, 1e16, 1e300]),
    )
    @settings(max_examples=100, deadline=None)
    def test_file_text_is_json_dumps_at_extreme_magnitudes(self, seed, n_lanes, scale, tmp_path_factory):
        r = np.random.default_rng(seed)
        lanes, fits = [], []
        for _ in range(n_lanes):
            pts = r.normal(size=(int(r.integers(2, 20)), 3)) * scale
            pts[r.random(pts.shape) < 0.2] = -0.0
            pts[:, 0] = np.arange(1, len(pts) + 1) * scale
            lanes.append(Lane3D(points=pts, id=int(r.integers(0, 301))))
            # a user-built x_range may hold numpy floats
            fits.append(FittedLane(r.normal(size=3) * scale, r.normal(size=3) * scale, (np.float64(-0.0), pts[-1, 0])))
        path = tmp_path_factory.mktemp("lanes") / "lanes.json"
        data_io.save_lanes(lanes, path, fits)
        assert path.read_text() == json.dumps(data_io.lanes_to_dict(lanes, fits), indent=2) + "\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_refused_and_nothing_is_written(self, tmp_path, bad):
        x = np.linspace(3.0, 60.0, 5)
        lanes = [Lane3D(points=np.column_stack([x, 0.05 * x + k, 0.01 * x]), id=k + 1) for k in range(3)]
        lanes[1].points = lanes[1].points.copy()
        lanes[1].points[2, 1] = bad
        path = tmp_path / "lanes.json"
        with pytest.raises(NonFiniteInput, match=re.escape("lanes[1].points")):
            data_io.save_lanes(lanes, path)
        assert not path.exists()

    def test_points_that_are_not_n_by_3_are_refused(self, tmp_path):
        lanes = [Lane3D(points=np.array([[3.0, 0.0, 0.0], [5.0, 1.0, 0.0]]), id=1)]
        lanes[0].points = lanes[0].points[:, :2]
        path = tmp_path / "lanes.json"
        with pytest.raises(ShapeMismatch, match=re.escape("lanes[0].points")):
            data_io.save_lanes(lanes, path)
        assert not path.exists()

    def test_decoded_lanes_file_text_is_pinned(self, tmp_path):
        # SHA-256 of the save_lanes text, fits included, of the oracle decode
        # of every pinned frame's gts and preds (109 of the 188 decoded
        # instances reach Lane3D out of x order)
        digest = hashlib.sha256()
        path = tmp_path / "lanes.json"
        for preds, gts in pin_frames():
            for lanes in (gts, preds):
                decoded, fits = decode_lanes(ideal_prediction(encode_lanes(lanes), embed_dim=8))
                data_io.save_lanes(decoded, path, fits)
                digest.update(path.read_bytes())
        assert digest.hexdigest() == LANES_FILE_SHA256

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_raises_only_domain_errors(self, data):
        points = JSON_VALUES | st.lists(st.lists(st.floats() | st.integers(), max_size=4), max_size=4)
        entry = JSON_VALUES | st.fixed_dictionaries({"points": points}, optional={"id": JSON_VALUES})
        value = data.draw(JSON_VALUES | st.fixed_dictionaries({"lanes": JSON_VALUES | st.lists(entry, max_size=3)}))
        try:
            lanes = data_io.lanes_from_dict(json.loads(json.dumps(value)))
        except LaneBevError:
            return
        assert all(isinstance(lane, Lane3D) for lane in lanes)


class TestSceneJson:
    def test_roundtrip(self, tmp_path):
        scene = generate_scene(SceneParams(n_lanes=2, camera_jitter=(1.0, 0.1), seed=8))
        path = tmp_path / "scene.json"
        data_io.save_scene(scene, path)
        back = data_io.load_scene(path)
        assert back.scene_tag == scene.scene_tag
        assert len(back.lanes) == 2
        assert np.allclose(back.lanes[1].points, scene.lanes[1].points)
        assert np.allclose(back.rig.extrinsics.rotation, scene.rig.extrinsics.rotation)


class TestOpenLaneFrames:
    def make_frame_text(self, seed=5):
        scene = generate_scene(
            SceneParams(n_lanes=3, curvature=(1e-4, 1e-4), hill_amplitude=1.0, camera_jitter=(2.0, 0.3), seed=seed)
        )
        return scene, data_io.export_openlane_frame(scene, "frames/000.json")

    def test_minimal_frame(self):
        frame = {
            "intrinsic": canonical_rig().intrinsics.matrix.tolist(),
            "extrinsic": np.eye(4).tolist(),
            "lane_lines": [{"xyz": [[1.0, 2.0], [0.0, 0.1], [0.0, 0.0]]}],
        }
        scene = data_io.parse_openlane_frame(json.dumps(frame))
        assert len(scene.lanes) == 1
        assert scene.lanes[0].points.shape == (2, 3)

    def test_roundtrip_within_1e9(self):
        scene, text = self.make_frame_text()
        back = data_io.parse_openlane_frame(text)
        for got, want in zip(back.lanes, scene.lanes):
            assert np.abs(got.points - want.points).max() < 1e-9
        assert np.abs(back.rig.extrinsics.rotation - scene.rig.extrinsics.rotation).max() < 1e-9
        assert np.abs(back.rig.extrinsics.translation - scene.rig.extrinsics.translation).max() < 1e-9

    def test_rotation_written_to_7_digits_parses(self):
        scene, text = self.make_frame_text()
        frame = json.loads(text)
        frame["extrinsic"] = [[float(f"{v:.7g}") for v in row] for row in frame["extrinsic"]]
        rounded = np.array(frame["extrinsic"])[:3, :3]
        assert np.abs(rounded.T @ rounded - np.eye(3)).max() > 1e-9  # Extrinsics alone would refuse it
        back = data_io.parse_openlane_frame(json.dumps(frame))
        assert np.abs(back.rig.extrinsics.rotation - scene.rig.extrinsics.rotation).max() < 1e-6
        assert np.abs(back.rig.extrinsics.translation - scene.rig.extrinsics.translation).max() < 1e-6

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            data_io.parse_openlane_frame("{not json")

    def test_missing_field(self):
        with pytest.raises(MissingField):
            data_io.parse_openlane_frame(json.dumps({"intrinsic": np.eye(3).tolist()}))

    def test_noninvertible_intrinsic(self):
        frame = {
            "intrinsic": np.zeros((3, 3)).tolist(),
            "extrinsic": np.eye(4).tolist(),
            "lane_lines": [],
        }
        with pytest.raises(MissingField):
            data_io.parse_openlane_frame(json.dumps(frame))

    def test_non_orthonormal_rotation(self):
        bad = np.eye(4)
        bad[0, 0] = 1.5
        frame = {
            "intrinsic": canonical_rig().intrinsics.matrix.tolist(),
            "extrinsic": bad.tolist(),
            "lane_lines": [],
        }
        with pytest.raises(NonOrthonormalRotation):
            data_io.parse_openlane_frame(json.dumps(frame))

    def test_bad_lane_shape(self):
        frame = {
            "intrinsic": canonical_rig().intrinsics.matrix.tolist(),
            "extrinsic": np.eye(4).tolist(),
            "lane_lines": [{"xyz": [[1.0, 2.0], [0.0, 0.1]]}],
        }
        with pytest.raises(MissingField):
            data_io.parse_openlane_frame(json.dumps(frame))


def minimal_frame(**fields):
    frame = {
        "intrinsic": canonical_rig().intrinsics.matrix.tolist(),
        "extrinsic": np.eye(4).tolist(),
        "lane_lines": [{"xyz": [[1.0, 2.0], [0.0, 0.1], [0.0, 0.0]]}],
    }
    frame.update(fields)
    return frame


def square(n):
    row = st.lists(st.floats() | st.integers(), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


JSON_FILE_READERS = {
    "load_rig": data_io.load_rig,
    "load_homography": data_io.load_homography,
    "load_lanes": data_io.load_lanes,
    "load_scene": data_io.load_scene,
    "config": lambda path: cli._load_config(GridSpec, str(path)),
}
DEEP = "[" * 100_000 + "]" * 100_000


class TestOneJsonReader:
    @pytest.mark.parametrize("blob", [b"{", b'{"lanes": []}\xff', DEEP.encode()], ids=["cut", "latin-1", "deep"])
    @pytest.mark.parametrize("reader", list(JSON_FILE_READERS))
    def test_malformed_file_raises_malformed_json_naming_it(self, tmp_path, reader, blob):
        path = tmp_path / "bad.json"
        path.write_bytes(blob)
        with pytest.raises(MalformedJson, match=re.escape(str(path))):
            JSON_FILE_READERS[reader](path)

    def test_openlane_frame_nested_too_deep(self):
        with pytest.raises(MalformedJson, match="frame"):
            data_io.parse_openlane_frame(DEEP)


class TestOpenLaneFrameBoundary:
    @pytest.mark.parametrize(
        "frame, named",
        [
            (5, "frame"),
            (minimal_frame(lane_lines=5), "lane_lines"),
            (minimal_frame(lane_lines="xyz"), "lane_lines"),
            (minimal_frame(lane_lines=[5]), "lane_lines[0]"),
            (minimal_frame(lane_lines=["xyz"]), "lane_lines[0]"),
            (minimal_frame(intrinsic="K"), "intrinsic"),
            (minimal_frame(intrinsic={"fx": 1000.0}), "intrinsic"),
            (minimal_frame(extrinsic=[[1.0, 0.0], [0.0]]), "extrinsic"),
            (minimal_frame(extrinsic=[[10**400] * 4] * 4), "extrinsic"),
            (minimal_frame(lane_lines=[{"xyz": [["a", "b"], [0.0, 0.1], [0.0, 0.0]]}]), "lane_lines[0].xyz"),
            (minimal_frame(lane_lines=[{"xyz": [[1.0, 1.0], [0.0, 0.1], [0.0, 0.0]]}]), "lane_lines[0]"),
            (minimal_frame(lane_lines=[{"xyz": [[], [], []]}]), "lane_lines[0]"),
            (minimal_frame(image_size=5), "image_size"),
            (minimal_frame(image_size=[1024.5, 576]), "image_size"),
            (minimal_frame(intrinsic=np.diag([-1000.0, 1000.0, 1.0]).tolist()), "intrinsic"),
            (minimal_frame(extrinsic=np.diag([1.0, 1.0, -1.0, 1.0]).tolist()), "extrinsic"),
        ],
    )
    def test_bad_value_raises_missing_field_naming_it(self, frame, named):
        with pytest.raises(MissingField, match=re.escape(named)):
            data_io.parse_openlane_frame(json.dumps(frame))

    def test_non_finite_value_names_the_field(self):
        with pytest.raises(NonFiniteInput, match="intrinsic"):
            data_io.parse_openlane_frame(json.dumps(minimal_frame(intrinsic=[[float("nan")] * 3] * 3)))

    @given(text=st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_raises_only_domain_errors(self, text):
        try:
            data_io.parse_openlane_frame(text)
        except LaneBevError:
            pass

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_values_under_the_keys_raise_only_domain_errors(self, data):
        xyz = JSON_VALUES | st.lists(st.lists(st.floats(), max_size=3), max_size=3)
        lane = JSON_VALUES | st.fixed_dictionaries({"xyz": xyz})
        signed_identities = st.sampled_from([np.diag(d).tolist() for d in ([1, 1, -1, 1], [1, -1, -1, 1])])
        choices = {
            "intrinsic": JSON_VALUES | square(3),
            "extrinsic": JSON_VALUES | square(4) | signed_identities,
            "lane_lines": JSON_VALUES | st.lists(lane, max_size=3),
            "image_size": JSON_VALUES,
        }
        frame = minimal_frame()
        for key, values in choices.items():
            if data.draw(st.booleans(), label=f"replace {key}"):
                frame[key] = data.draw(values, label=key)
        try:
            scene = data_io.parse_openlane_frame(json.dumps(frame))
        except LaneBevError:
            return
        assert all(isinstance(lane, Lane3D) for lane in scene.lanes)


def with_leaf(value, path, leaf):
    """A deep copy of the JSON value `value` with the entry at `path` replaced by `leaf`."""
    value = json.loads(json.dumps(value))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = leaf
    return value


def load_json_file(load, value, tmp_path):
    path = tmp_path / "value.json"
    path.write_text(json.dumps(value))
    return load(path)


# Each boundary: (name, load(value with the leaf put in), the field its
# error names, the integral number the base value holds at the leaf)
NUMBER_BOUNDARIES = [
    (
        "rig intrinsics.fx",
        lambda v, tmp: data_io.rig_from_dict(with_leaf(data_io.rig_to_dict(canonical_rig()), ("intrinsics", "fx"), v)),
        "intrinsics.fx",
        1000,
    ),
    (
        "rotation entry",
        lambda v, tmp: data_io.rig_from_dict(
            with_leaf(data_io.rig_to_dict(canonical_rig()), ("extrinsics", "rotation", 1, 2), v)
        ),
        "extrinsics.rotation",
        -1,
    ),
    (
        "homography matrix entry",
        lambda v, tmp: load_json_file(data_io.load_homography, {"matrix": with_leaf(np.eye(3).tolist(), (0, 2), v)}, tmp),
        "matrix",
        0,
    ),
    (
        "lane point",
        lambda v, tmp: data_io.lanes_from_dict({"lanes": [{"id": 1, "points": [[3.0, v, 0.0], [9.0, 0.0, 0.0]]}]}),
        "lanes[0].points",
        0,
    ),
    (
        "OpenLane intrinsic entry",
        lambda v, tmp: data_io.parse_openlane_frame(json.dumps(with_leaf(minimal_frame(), ("intrinsic", 0, 2), v))),
        "intrinsic",
        512,
    ),
    (
        "OpenLane xyz entry",
        lambda v, tmp: data_io.parse_openlane_frame(
            json.dumps(with_leaf(minimal_frame(), ("lane_lines", 0, "xyz", 1, 0), v))
        ),
        "lane_lines[0].xyz",
        0,
    ),
]

NOT_NUMBERS = ["1000", True, False, None, {}, [1000.0, 1000.0]]


class TestOneNumberRule:
    @pytest.mark.parametrize("leaf", NOT_NUMBERS, ids=["string", "true", "false", "null", "object", "ragged"])
    @pytest.mark.parametrize("boundary, load, named, number", NUMBER_BOUNDARIES, ids=[b[0] for b in NUMBER_BOUNDARIES])
    def test_non_number_leaf_is_refused_at_every_boundary(self, boundary, load, named, number, leaf, tmp_path):
        with pytest.raises(MissingField, match=re.escape(named)):
            load(leaf, tmp_path)
        with pytest.raises(ConfigError, match="GridSpec.cell"):
            data_io.from_dict(GridSpec, {"cell": leaf})

    @pytest.mark.parametrize("boundary, load, named, number", NUMBER_BOUNDARIES, ids=[b[0] for b in NUMBER_BOUNDARIES])
    def test_ints_and_floats_are_both_numbers(self, boundary, load, named, number, tmp_path):
        load(number, tmp_path)
        load(float(number), tmp_path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "load, error",
        [
            (
                lambda tmp: load_json_file(
                    data_io.load_homography, {"matrix": [[1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-10]]}, tmp
                ),
                NonFiniteInput,
            ),
            (
                lambda tmp: data_io.parse_openlane_frame(json.dumps(minimal_frame(extrinsic=(np.eye(4) * 1e200).tolist()))),
                NonOrthonormalRotation,
            ),
            (
                lambda tmp: data_io.rig_from_dict(
                    with_leaf(data_io.rig_to_dict(canonical_rig()), ("extrinsics", "rotation", 0, 0), 1e200)
                ),
                MissingField,
            ),
        ],
        ids=["homography", "OpenLane extrinsic", "camera rotation"],
    )
    def test_overflow_is_refused_without_a_warning(self, load, error, tmp_path):
        with pytest.raises(error):
            load(tmp_path)


class TestPnm:
    def test_pgm_roundtrip(self, tmp_path, rng):
        img = rng.random((24, 32))
        path = tmp_path / "img.pgm"
        data_io.write_pnm(img, path)
        back = data_io.read_pnm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_ppm_roundtrip(self, tmp_path, rng):
        img = rng.random((16, 20, 3))
        path = tmp_path / "img.ppm"
        data_io.write_pnm(img, path)
        back = data_io.read_pnm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_rejects_ascii_variant(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError):
            data_io.read_pnm(path)

    def test_comment_headers_accepted(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 2\n255\n\x00\x40\x80\xff")
        img = data_io.read_pnm(path)
        assert img.shape == (2, 2)
        assert img[1, 1] == 1.0

    def test_16_bit_samples_are_big_endian(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\xff\xff\x80\x00")
        img = data_io.read_pnm(path)
        assert img.shape == (1, 2)
        assert img[0, 0] == 1.0
        assert img[0, 1] == 32768.0 / 65535.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_raises_and_writes_nothing(self, tmp_path, bad):
        img = np.full((4, 6, 3), 0.5)
        img[2, 3, 1] = bad
        path = tmp_path / "img.ppm"
        with pytest.raises(NonFiniteInput, match="img.ppm"):
            data_io.write_pnm(img, path)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(6,), (4, 6, 2), (4, 6, 4), (2, 4, 6, 3)])
    def test_image_that_is_not_hw_or_hw3_raises_and_writes_nothing(self, tmp_path, shape):
        path = tmp_path / "img.pnm"
        with pytest.raises(ShapeMismatch, match=re.escape(str(path))):
            data_io.write_pnm(np.full(shape, 0.5), path)
        assert not path.exists()

    @pytest.mark.parametrize("maxval", [b"0", b"65536"])
    def test_maxval_out_of_range_names_file(self, tmp_path, maxval):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n" + maxval + b"\n\x00\x00")
        with pytest.raises(ValueError, match="img.pgm.*maxval"):
            data_io.read_pnm(path)

    @pytest.mark.parametrize("header, pixels", [(b"P5\n2 2\n255\n", 3), (b"P6\n2 1\n1023\n", 11)])
    def test_truncated_pixels_name_file(self, tmp_path, header, pixels):
        path = tmp_path / "img.pnm"
        path.write_bytes(header + b"\x01" * pixels)
        with pytest.raises(ValueError, match="img.pnm.*truncated"):
            data_io.read_pnm(path)

    @pytest.mark.parametrize(
        "blob, field",
        [
            (b"P3\n1 1\n255\n\x00", "P5"),
            (b"", "P5"),
            (b"P5\nxx 1\n255\n\x00", "width"),
            (b"P5\n1 1.5\n255\n\x00", "height"),
            (b"P5\n1 -1\n255\n\x00", "height"),
            (b"P5\n-1 1\n255\n\x00", "width"),
            (b"P5\n+1 1\n255\n\x00", "width"),
            (b"P5\n1 1\n", "maxval"),
            (b"P5\n1 1 # no maxval", "maxval"),
            (b"P6\n1 1\n1e3\n\x00", "maxval"),
            (b"P5\n" + b"9" * 5000 + b" 1\n255\n", "width"),
            (b"P5\n0 0\n255", "no whitespace after maxval"),
            (b"P5\n1 1\n255\n", "truncated"),
            (b"P5\n2 2\n1\t\x00\x00\x00\x02", "sample above maxval"),
            (b"P6\n1 1\n300\n\x00\x00\x01\x2d\x00\x00", "sample above maxval"),
        ],
    )
    def test_bad_header_raises_image_format_error(self, tmp_path, blob, field):
        path = tmp_path / "img.pgm"
        path.write_bytes(blob)
        with pytest.raises(ImageFormatError, match=f"img.pgm.*{re.escape(field)}"):
            data_io.read_pnm(path)

    @given(
        prefix=st.sampled_from([b"", b"P5", b"P6", b"P5\n2 2\n", b"P6 1 1 65535\n", b"P5\n# c\n1 1\n255\n"]),
        tail=st.binary(max_size=40),
    )
    @example(prefix=b"P5\n2 2\n", tail=b"1\t\x00\x00\x00\x02")  # a sample of 2 above maxval 1
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_domain_errors(self, prefix, tail, tmp_path_factory):
        path = tmp_path_factory.mktemp("pnm") / "img.pnm"
        path.write_bytes(prefix + tail)
        try:
            img = data_io.read_pnm(path)
        except LaneBevError:
            return
        assert img.ndim in (2, 3) and np.all((img >= 0.0) & (img <= 1.0))
