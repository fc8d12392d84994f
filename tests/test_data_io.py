import dataclasses
import hashlib
import io
import json
import os
import pickle
import re
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import numpy.lib.format as npy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanebev import cli, data_io
from lanebev.camera_geometry import CameraRig, Extrinsics, Intrinsics
from lanebev.errors import (
    ImageFormatError,
    InvalidValue,
    LaneBevError,
    MalformedJson,
    MissingField,
    NonFiniteInput,
    ShapeMismatch,
    SingularHomography,
    TensorFormatError,
)
from lanebev.lane_grid import GridSpec, Lane3D, encode_lanes, ideal_prediction
from lanebev.metrics import EvalConfig, EvalResult
from lanebev.postproc import DecodeParams, FittedLane, LaneInstance, decode_lanes, fit_lanes
from lanebev.synth import SceneParams, canonical_rig, generate_scene, jittered_rig

from test_lane_path_pin import pin_frames

LANES_FILE_SHA256 = "934d322ed06356062d079f661bc71e088bf195b16bdeef556b56a6c6bdf3f14d"


def _npy_header(descr="<f4", shape=(1,), fortran_order=False, version=1):
    """An .npy header as numpy writes it, for the dict keys given."""
    buf = io.BytesIO()
    write = npy.write_array_header_1_0 if version == 1 else npy.write_array_header_2_0
    write(buf, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return buf.getvalue()


def _np_save_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


class TestTensorFormat:
    def test_single_element_layout(self, tmp_path):
        # numpy's format 1.0: magic, version, a header padded to 128 bytes, then the payload
        path = tmp_path / "one.npy"
        data_io.write_tensor(np.array([0.5], dtype=np.float32), path)
        blob = path.read_bytes()
        assert len(blob) == 128 + 4
        assert blob[:8] == b"\x93NUMPY\x01\x00"
        assert int.from_bytes(blob[8:10], "little") == 128 - 10
        assert blob[10:128].rstrip(b" \n") == b"{'descr': '<f4', 'fortran_order': False, 'shape': (1,), }"
        assert blob[128:] == np.array([0.5], dtype="<f4").tobytes()
        back = np.load(path)
        assert back.dtype == np.float32 and np.array_equal(back, [0.5])

    def test_grid_tensor_roundtrip_bit_exact(self, tmp_path, rng):
        arr = rng.random((200, 40)).astype(np.float32)
        path = tmp_path / "grid.npy"
        data_io.write_tensor(arr, path)
        back = data_io.read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize("big", [1e39, -1e39])
    def test_finite_value_beyond_float32_range_raises(self, tmp_path, big):
        path = tmp_path / "big.npy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match=re.escape(str(path))):
                data_io.write_tensor(np.array([1.0, big]), path)
        assert not path.exists()

    def test_float32_extremes_and_non_finite_values_keep_their_bytes(self, tmp_path):
        f32 = np.finfo(np.float32)
        arr = np.array([f32.max, -f32.max, f32.tiny, np.inf, -np.inf, np.nan], dtype=np.float32)
        path = tmp_path / "edge.npy"
        data_io.write_tensor(arr.astype(float), path)
        assert path.read_bytes()[128:] == arr.astype("<f4").tobytes()

    def test_write_read_write_is_byte_identical(self, tmp_path, rng):
        arr = rng.normal(size=(7, 3, 2)).astype(np.float32)
        p1 = tmp_path / "a.npy"
        p2 = tmp_path / "b.npy"
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
        path = tmp_path_factory.mktemp("npy") / "t.npy"
        data_io.write_tensor(arr, path)
        assert np.array_equal(data_io.read_tensor(path), arr)

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (2, 1, 3, 2), (0,), (3, 0, 2)])
    def test_roundtrip_by_rank_and_short_payload(self, tmp_path, rng, shape):
        arr = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.npy"
        data_io.write_tensor(arr, path)
        blob = path.read_bytes()
        assert blob == _np_save_bytes(arr.astype("<f4"))
        assert len(blob) == 128 + 4 * arr.size
        back = data_io.read_tensor(path)
        assert back.dtype == np.float32 and back.shape == shape and back.flags.writeable
        assert np.array_equal(back, arr)
        loaded = np.load(path)
        assert loaded.dtype == np.float32 and np.array_equal(loaded, arr)
        if arr.size:
            path.write_bytes(blob[:-4])
            with pytest.raises(TensorFormatError, match="expected"):
                data_io.read_tensor(path)

    @pytest.mark.parametrize("shape", [(5,), (200, 40, 11), (3, 0, 2)])
    def test_read_through_a_pipe(self, tmp_path, rng, shape):
        arr = rng.normal(size=shape).astype(np.float32)
        data_io.write_tensor(arr, tmp_path / "t.npy")
        blob = (tmp_path / "t.npy").read_bytes()
        assert np.array_equal(_read_tensor_from_pipe(blob), arr)
        if arr.size:
            with pytest.raises(TensorFormatError, match=f"payload {len(blob) - 4 - 128} bytes, expected"):
                _read_tensor_from_pipe(blob[:-4])
        with pytest.raises(TensorFormatError, match=f"payload {len(blob) + 1 - 128} bytes, expected"):
            _read_tensor_from_pipe(blob + b"\x00")
        with pytest.raises(TensorFormatError, match="magic"):
            _read_tensor_from_pipe(b"")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.npy"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(TensorFormatError, match="magic"):
            data_io.read_tensor(path)

    @pytest.mark.parametrize("version", [b"\x03\x00", b"\x01\x01", b"\x00\x00"])
    def test_unsupported_version(self, tmp_path, version):
        path = tmp_path / "x.npy"
        path.write_bytes(b"\x93NUMPY" + version + _npy_header()[8:] + b"\x00" * 4)
        with pytest.raises(TensorFormatError, match=rf"version {version[0]}\.{version[1]}, expected 1\.0 or 2\.0"):
            data_io.read_tensor(path)

    def test_format_2_0_header_is_read(self, tmp_path, rng):
        arr = rng.normal(size=(3, 4)).astype(np.float32)
        path = tmp_path / "v2.npy"
        path.write_bytes(_npy_header(shape=(3, 4), version=2) + arr.tobytes())
        assert np.array_equal(data_io.read_tensor(path), arr)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "x.npy"
        data_io.write_tensor(rng.random((4, 4)).astype(np.float32), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(TensorFormatError, match="payload 61 bytes, expected 64"):
            data_io.read_tensor(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(TensorFormatError, match="payload 65 bytes, expected 64"):
            data_io.read_tensor(path)
        path.write_bytes(blob[:100])
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: EOF: reading array header")):
            data_io.read_tensor(path)

    @pytest.mark.parametrize("shape", [(), (2, 1, 1, 1, 2)], ids=["rank 0", "rank 5"])
    def test_bad_rank_rejected(self, tmp_path, shape):
        with pytest.raises(ShapeMismatch, match=re.escape(str(tmp_path / "x.npy"))):
            data_io.write_tensor(np.zeros(shape, dtype=np.float32), tmp_path / "x.npy")
        assert not (tmp_path / "x.npy").exists()
        path = tmp_path / "y.npy"
        np.save(path, np.zeros(shape, dtype=np.float32))
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: float32 of shape {shape}, expected") + ".* rank 1..4"):
            data_io.read_tensor(path)

    @pytest.mark.parametrize("shape", [(-1, -4), (True, 2)], ids=["negative", "bool"])
    def test_dims_that_are_not_non_negative_ints_are_rejected(self, tmp_path, shape):
        # each header's size matches its payload: (-1) * (-4) * 4 bytes, and True * 2 * 4
        path = tmp_path / "x.npy"
        path.write_bytes(_npy_header(shape=shape) + b"\x00" * 4 * abs(shape[0] * shape[1]))
        with pytest.raises(TensorFormatError, match="rank 1..4"):
            data_io.read_tensor(path)

    @pytest.mark.parametrize(
        "values",
        [
            np.arange(6, dtype=np.int32),
            np.ones(3, dtype=bool),
            np.ones(3, dtype=np.complex64),
            np.array(["a", "bc"]),
            np.zeros(2, dtype=[("x", "<f4"), ("y", "<f4")]),
        ],
        ids=["int32", "bool", "complex64", "string", "structured"],
    )
    def test_dtype_that_is_not_a_real_float_is_refused(self, tmp_path, values):
        path = tmp_path / "x.npy"
        np.save(path, values)
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: ") + ".*expected a real float type"):
            data_io.read_tensor(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("shape", ["(2L,)", "(2L, 1L)", "(2 L,)", "(0x2L,)"])
    def test_a_python_2_header_is_refused_without_a_warning(self, tmp_path, shape, version):
        # numpy rereads a header written by Python 2 without its L suffixes,
        # warns that it did and returns the array; lanebev only raises
        text = f"{{'descr': '<f4', 'fortran_order': False, 'shape': {shape}, }}".encode()
        prefix = b"\x93NUMPY" + bytes([version, 0])
        size = 2 * version
        text += b" " * (-(len(prefix) + size + len(text) + 1) % 64) + b"\n"
        path = tmp_path / "x.npy"
        path.write_bytes(prefix + len(text).to_bytes(size, "little") + text + b"\x00" * 8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TensorFormatError, match=re.escape(f"{path}: header written by Python 2")):
                data_io.read_tensor(path)
        assert caught == []

    def test_object_dtype_is_refused_without_unpickling(self, tmp_path, monkeypatch):
        path = tmp_path / "x.npy"
        np.save(path, np.array([1.0, "a"], dtype=object), allow_pickle=True)
        monkeypatch.setattr("pickle.load", None)  # any unpickling would raise TypeError
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: object of shape (2,)")):
            data_io.read_tensor(path)

    @pytest.mark.parametrize("dtype", ["<f2", ">f4", "<f8", ">f8"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_any_real_float_dtype_and_order_is_returned_as_stored(self, tmp_path, rng, dtype, order):
        arr = np.asarray(rng.normal(size=(3, 4, 2)), dtype=dtype, order=order)
        path = tmp_path / "x.npy"
        np.save(path, arr)
        assert _npy_header(arr.dtype.str, (3, 4, 2), order == "F") == path.read_bytes()[:128]
        back = data_io.read_tensor(path)
        assert back.dtype == arr.dtype and back.shape == arr.shape and back.flags.writeable
        assert np.array_equal(back, arr)
        assert back.flags.f_contiguous == (order == "F")

    @pytest.mark.parametrize("version", [1, 2])
    def test_header_claiming_a_huge_payload_is_refused_before_allocating(self, tmp_path, version):
        # np.lib.format.read_array asks for the header's 2**40 float32 (4 TiB) first
        path = tmp_path / "x.npy"
        path.write_bytes(_npy_header(shape=(2**40,), version=version) + b"\x00" * 16)
        tracemalloc.start()
        try:
            with pytest.raises(TensorFormatError, match="payload 16 bytes, expected 4398046511104"):
                data_io.read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_header_length_beyond_the_file_is_refused_before_allocating(self, tmp_path):
        # a format 2.0 header states its length in 4 bytes: up to 4 GiB
        path = tmp_path / "x.npy"
        path.write_bytes(b"\x93NUMPY\x02\x00" + (2**32 - 1).to_bytes(4, "little") + b"{" * 16)
        tracemalloc.start()
        try:
            with pytest.raises(TensorFormatError, match=re.escape(f"{path}: EOF: reading array header")):
                data_io.read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "header",
        [
            "{(",
            '"""',
            "\t1\n 2",
            "-" * 3000 + "1",
            "{[]: 1}",
            "{'descr': '<f4'}",
            "[1, 2]",
            "{'descr': '<f4', 'fortran_order': 1, 'shape': (1,)}",
        ],
        ids=["unclosed bracket", "unclosed string", "bad indent", "deep nesting", "unhashable key", "missing keys", "not a dict", "bad order"],
    )
    def test_header_numpy_cannot_parse_is_refused(self, tmp_path, header):
        # numpy's parser raises ValueError, and tokenize.TokenError,
        # IndentationError, RecursionError or TypeError on some of these
        path = tmp_path / "x.npy"
        raw = header.encode("latin1")
        path.write_bytes(b"\x93NUMPY\x01\x00" + len(raw).to_bytes(2, "little") + raw + b"\x00" * 4)
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: ")):
            data_io.read_tensor(path)

    def test_old_bldt_npz_and_pickle_files_are_refused_naming_them(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        bldt = tmp_path / "t.bldt"
        bldt.write_bytes(b"BLDT" + struct.pack("<HB2I", 1, 2, 2, 3) + arr.tobytes())
        npz = tmp_path / "t.npz"
        np.savez(npz, arr=arr)
        pkl = tmp_path / "t.pkl"
        pkl.write_bytes(pickle.dumps(arr))
        for path in (bldt, npz, pkl):
            with pytest.raises(TensorFormatError, match=re.escape(f"{path}: the magic string is not correct")):
                data_io.read_tensor(path)

    def test_dims_whose_product_wraps_int64(self, tmp_path):
        # 65536**4 = 2**64 wraps to 0 in int64 and would match an empty payload
        path = tmp_path / "x.npy"
        path.write_bytes(_npy_header(shape=(65536,) * 4))
        with pytest.raises(TensorFormatError, match="expected 73786976294838206464"):
            data_io.read_tensor(path)

    @given(
        prefix=st.sampled_from([b"", b"\x93NUMPY", b"\x93NUMPY\x01\x00", b"\x93NUMPY\x02\x00", b"PK\x03\x04", b"BLDT"]),
        tail=st.binary(max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_domain_errors(self, prefix, tail, tmp_path_factory):
        path = tmp_path_factory.mktemp("npy") / "t.npy"
        path.write_bytes(prefix + tail)
        try:
            arr = data_io.read_tensor(path)
        except LaneBevError:
            return
        assert arr.dtype.kind == "f" and 1 <= arr.ndim <= 4

    @given(header=st.text(max_size=60), payload=st.integers(0, 24))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_header_text_raises_only_domain_errors(self, header, payload, tmp_path_factory):
        path = tmp_path_factory.mktemp("npy") / "t.npy"
        raw = header.encode("utf-8")
        path.write_bytes(b"\x93NUMPY\x01\x00" + len(raw).to_bytes(2, "little") + raw + b"\x00" * payload)
        try:
            arr = data_io.read_tensor(path)
        except LaneBevError:
            return
        assert arr.dtype.kind == "f" and 1 <= arr.ndim <= 4


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
# recorded from the writers as they were before they overwrote in place,
# the JSON files' since each is one json.dumps line, and the tensor's since
# it is an .npy file, the bytes np.save writes for the float32 array.
WRITERS = {
    "write_tensor": lambda path: data_io.write_tensor(np.random.default_rng(1).normal(size=(5, 4, 3)), path),
    "save_lanes": _write_decoded_lanes,
    "save_rig": lambda path: data_io.save_rig(_pinned_scene().rig, path),
    "save_scene": lambda path: data_io.save_scene(_pinned_scene(), path),
    "write_pnm PGM": lambda path: data_io.write_pnm(np.random.default_rng(2).random((9, 13)), path),
    "write_pnm PPM": lambda path: data_io.write_pnm(np.random.default_rng(3).random((9, 13, 3)), path),
}
WRITER_SHA256 = {
    "write_tensor": "c314f7fee3564becf085c1d5faea8172dec60da2cfc875617108bbeac19b20cc",
    "save_lanes": "1b2d019a77bcf8def470c94a143e1c1803873cd080c3104fa254f12f861d1735",
    "save_rig": "93d4f44f8292f99cbe36d16ef7188c86c4fffa1192776232984d39f71310ffbb",
    "save_scene": "2eddaf81e6a47d6fa82ef472973040a92d2e9afaef8a61becbe89c874b3232a9",
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

    def test_json_files_are_one_json_dumps_line(self, tmp_path):
        scene = _pinned_scene()
        data_io.save_rig(scene.rig, tmp_path / "rig.json")
        data_io.save_scene(scene, tmp_path / "scene.json")
        data_io.save_lanes(scene.lanes, tmp_path / "lanes.json")
        assert (tmp_path / "rig.json").read_text() == json.dumps(data_io.rig_to_dict(scene.rig)) + "\n"
        assert (tmp_path / "scene.json").read_text() == json.dumps(data_io.scene_to_dict(scene)) + "\n"
        assert (tmp_path / "lanes.json").read_text() == json.dumps(data_io.lanes_to_dict(scene.lanes)) + "\n"

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

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_PAIR = st.lists(_FINITE, min_size=2, max_size=2).map(sorted).map(tuple)


@st.composite
def _grid_specs(draw):
    cell = draw(st.sampled_from([0.125, 0.5, 1.0, 4.0]))
    x_min, y_min = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    return GridSpec(x_min, x_min + cell * draw(st.integers(1, 500)), y_min, y_min + cell * draw(st.integers(1, 500)), cell)


# A valid instance of each config class, every field drawn
VALID_CONFIGS = st.one_of(
    _grid_specs(),
    st.builds(
        DecodeParams,
        s_threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        d_gap=_POSITIVE,
        min_points=st.integers(2, 2**62),
        fit_degree=st.integers(1, 2**62),
    ),
    st.builds(
        EvalConfig,
        sample_xs=st.lists(_FINITE, min_size=1, max_size=25, unique=True).map(sorted).map(tuple),
        match_threshold=_POSITIVE,
        match_ratio=st.floats(0.0, 1.0, exclude_min=True),
        near_limit=_FINITE,
    ),
    st.builds(
        SceneParams,
        n_lanes=st.integers(0, 2**62),
        lane_spacing=_POSITIVE,
        curvature=_PAIR,
        hill_amplitude=_FINITE,
        hill_wavelength=_POSITIVE,
        camera_jitter=st.tuples(_FINITE, _FINITE),
        seed=st.integers(0, 2**62),
    ),
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
        "cls, data, error, named",
        [
            (DecodeParams, {"dgap": 0.1}, MissingField, "DecodeParams: unknown key 'dgap'"),
            (GridSpec, {"cel": 1.0}, MissingField, "GridSpec: unknown key 'cel'"),
            (EvalConfig, {"match_treshold": 0.1}, MissingField, "EvalConfig: unknown key 'match_treshold'"),
            (SceneParams, {"nlanes": 6}, MissingField, "SceneParams: unknown key 'nlanes'"),
            (DecodeParams, {"min_points": "4"}, MissingField, "DecodeParams.min_points: "),
            (DecodeParams, {"d_gap": None}, MissingField, "DecodeParams.d_gap: "),
            (DecodeParams, {"d_gap": float("nan")}, NonFiniteInput, "DecodeParams.d_gap: "),
            (GridSpec, {"cell": "0.5"}, MissingField, "GridSpec.cell: "),
            (GridSpec, {"x_max": float("inf")}, NonFiniteInput, "GridSpec.x_max: "),
            (EvalConfig, {"sample_xs": 5}, ShapeMismatch, "EvalConfig.sample_xs: "),
            (EvalConfig, {"sample_xs": [3.0, None]}, MissingField, "EvalConfig.sample_xs: "),
            (SceneParams, {"curvature": 0.001}, ShapeMismatch, "SceneParams.curvature: "),
            (SceneParams, {"seed": True}, MissingField, "SceneParams.seed: "),
            (SceneParams, {"seed": 10**400}, MissingField, "SceneParams.seed: "),
            (SceneParams, {"n_lanes": 2.5}, InvalidValue, "SceneParams.n_lanes: "),
            (DecodeParams, {"fit_degree": 2.0}, InvalidValue, "DecodeParams.fit_degree: "),
        ],
    )
    def test_unknown_key_or_wrong_type_names_the_key(self, cls, data, error, named):
        # a config file follows the other files' rules: a layout or type
        # problem is MissingField, NaN NonFiniteInput and a wrong shape
        # ShapeMismatch
        with pytest.raises(error, match=f"^{re.escape(named)}"):
            data_io.from_dict(cls, data)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(MissingField, match="^SceneParams: must be a JSON object"):
            data_io.from_dict(SceneParams, [1, 2])

    def test_dataclass_checks_still_run(self):
        with pytest.raises(ShapeMismatch, match=r"^SceneParams\.camera_jitter: "):
            data_io.from_dict(SceneParams, {"camera_jitter": [1.0]})
        with pytest.raises(InvalidValue, match=r"^DecodeParams\.s_threshold: "):
            data_io.from_dict(DecodeParams, {"s_threshold": 1.5})

    @given(cfg=VALID_CONFIGS)
    @settings(max_examples=300, deadline=None)
    def test_json_of_a_valid_config_reads_back_equal(self, cfg):
        # from_dict reads every field by its declaration, as the class checks it
        assert data_io.from_dict(type(cfg), json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

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

    @given(seed=st.integers(0, 2**32 - 1), fx=st.floats(1.0, 1e6), fy=st.floats(1.0, 1e6), skew=_FINITE)
    @settings(max_examples=100, deadline=None)
    def test_save_and_load_return_an_equal_rig(self, tmp_path_factory, seed, fx, fy, skew):
        base = jittered_rig(np.random.default_rng(seed), 10.0, 2.0)
        rig = CameraRig(Intrinsics(fx, fy, 511.7, 288.3, skew), base.extrinsics, base.image_size)
        path = tmp_path_factory.mktemp("rig") / "cam.json"
        data_io.save_rig(rig, path)
        back = data_io.load_rig(path)
        assert back.intrinsics == rig.intrinsics and back.image_size == rig.image_size
        for name in ("rotation", "translation"):
            assert getattr(back.extrinsics, name).tobytes() == getattr(rig.extrinsics, name).tobytes()

    @pytest.mark.parametrize("number", [np.float32(1000.0), np.float64(1000.0), np.int64(1000), 1000.0, 1000])
    def test_a_numpy_scalar_is_written_as_the_python_number_of_its_value(self, tmp_path, number):
        # a numpy scalar once reached json.dumps as given and raised a bare
        # TypeError; a Python number keeps its own text, 1000 as `1000`
        base = canonical_rig()
        rig = CameraRig(Intrinsics(number, number, 512.0, 288.0), base.extrinsics, base.image_size)
        assert type(rig.intrinsics.fx) is (type(number) if type(number) in (int, float) else float)
        data_io.save_rig(rig, tmp_path / "cam.json")
        text = (tmp_path / "cam.json").read_text()
        assert f'"fx": {1000 if type(number) is int else 1000.0}, ' in text
        assert data_io.load_rig(tmp_path / "cam.json").intrinsics == rig.intrinsics

    def test_a_numpy_scalar_in_a_result_is_written_as_its_python_number(self):
        result = EvalResult(np.float32(0.5), np.float64(0.5), 0.5, None, None, None, None, np.int64(2), 4, 4)
        assert data_io._json_text(result.to_dict()) == data_io._json_text(EvalResult(0.5, 0.5, 0.5, None, None, None, None, 2, 4, 4).to_dict())
        assert type(result.tp) is int and type(result.f_score) is float

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
            (("extrinsics", "rotation"), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], "row"], "extrinsics.rotation"),
            (("extrinsics", "translation"), {"x": 0.0}, "extrinsics.translation"),
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
        "leaf, value, named",
        [
            (("intrinsics", "cy"), [288.0], "intrinsics.cy: shape (1,) differs from ()"),
            (("extrinsics", "rotation"), [[1.0, 0.0], [0.0, 1.0]], "extrinsics.rotation: shape (2, 2) differs from (3, 3)"),
            # once MissingField, unlike every other wrong shape in a file
            (("image_size",), [1024], "image_size: shape (1,) differs from (2,)"),
        ],
    )
    def test_wrong_shape_raises_shape_mismatch_naming_the_field(self, leaf, value, named):
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(named)}"):
            data_io.rig_from_dict(with_leaf(data_io.rig_to_dict(canonical_rig()), leaf, value))

    @pytest.mark.parametrize(
        "leaf, value, named",
        [
            (("intrinsics", "fy"), -1.0, "Intrinsics.fy: "),
            (("intrinsics", "fx"), -5, "Intrinsics.fx: "),
            (("extrinsics", "rotation"), np.diag([1.0, 1.0, -1.0]).tolist(), "Extrinsics.rotation: "),
            # the file keeps only the JSON type rule; the range and the integer
            # rule are CameraRig's (each once MissingField), as in a config file
            (("image_size",), [0, 576], "CameraRig.image_size: "),
            (("image_size",), [1024, -1], "CameraRig.image_size: "),
            (("image_size",), [1024.0, 576.0], "CameraRig.image_size: must be an integer"),
        ],
    )
    def test_value_the_rig_refuses_raises_invalid_value_naming_the_class_field(self, leaf, value, named):
        with pytest.raises(InvalidValue, match=f"^{re.escape(named)}"):
            data_io.rig_from_dict(with_leaf(data_io.rig_to_dict(canonical_rig()), leaf, value))

    @pytest.mark.parametrize(
        "value, error, named",
        [
            ([], MissingField, "homography JSON"),
            ({}, MissingField, "matrix"),
            ({"matrix": None}, MissingField, "matrix"),
            ({"matrix": "eye"}, MissingField, "matrix"),
            ({"matrix": [[1.0, 0.0], [0.0, 1.0]]}, ShapeMismatch, "^matrix: shape "),
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

    @pytest.mark.parametrize(
        "fit, named",
        [
            (FittedLane(np.array([np.nan, 1.0]), np.array([np.inf]), (3.0, 60.0)), "lanes[0].fit.y_coeffs: "),
            (FittedLane(np.array([0.0, 1.0]), np.array([-np.inf]), (3.0, 60.0)), "lanes[0].fit.z_coeffs: "),
            (FittedLane(np.array([0.0, 1.0]), np.array([0.0]), (3.0, np.nan)), "lanes[0].fit.x_range: "),
        ],
    )
    def test_non_finite_fit_is_not_written(self, tmp_path, fit, named):
        # json would write NaN and Infinity, which are not JSON
        lanes = [Lane3D(points=np.array([[3.0, 0.0, 0.0], [60.0, 1.0, 0.0]]), id=1)]
        path = tmp_path / "lanes.json"
        with pytest.raises(NonFiniteInput, match=f"^{re.escape(named)}"):
            data_io.save_lanes(lanes, path, [fit])
        assert not path.exists()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_lanes=st.integers(0, 6),
        scale=st.sampled_from([5e-324, 1e-300, 1e-05, 1.0, 1e16, 1e300]),
        with_fits=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_saved_lanes_load_back_bit_for_bit(self, seed, n_lanes, scale, with_fits, tmp_path_factory):
        r = np.random.default_rng(seed)
        lanes, fits = [], []
        for _ in range(n_lanes):
            pts = r.normal(size=(int(r.integers(2, 40)), 3)) * scale
            pts[r.random(pts.shape) < 0.2] = -0.0
            pts[:, 0] = np.arange(1, len(pts) + 1) * scale
            lanes.append(Lane3D(points=pts, id=int(r.integers(0, 301))))
            # a user-built x_range may hold numpy floats
            fits.append(FittedLane(r.normal(size=3) * scale, r.normal(size=3) * scale, (np.float64(-0.0), pts[-1, 0])))
        path = tmp_path_factory.mktemp("lanes") / "lanes.json"
        data_io.save_lanes(lanes, path, fits if with_fits else None)
        back = data_io.load_lanes(path)
        assert [lane.id for lane in back] == [lane.id for lane in lanes]
        assert all(a.points.tobytes() == b.points.tobytes() for a, b in zip(back, lanes))

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

    @pytest.mark.parametrize("lane_id", [-(2**63), 2**63 - 1])
    def test_64_bit_ids_roundtrip(self, tmp_path, lane_id):
        path = tmp_path / "lanes.json"
        data_io.save_lanes([Lane3D(points=[[3.0, 0.0, 0.0], [5.0, 1.0, 0.0]], id=lane_id)], path)
        assert data_io.load_lanes(path)[0].id == lane_id

    @pytest.mark.parametrize("lane_id", [2**63, -(2**63) - 1, 2**70])
    def test_id_beyond_64_bits_is_refused_by_lane3d_from_code_and_file(self, lane_id):
        # such an id once reached encode_lanes as a bare OverflowError, and
        # save_lanes wrote a file that load_lanes refused
        with pytest.raises(InvalidValue, match=r"^Lane3D\.id: "):
            Lane3D(points=[[3.0, 0.0, 0.0], [5.0, 1.0, 0.0]], id=lane_id)
        with pytest.raises(InvalidValue, match=r"^Lane3D\.id: "):
            data_io.lanes_from_dict({"lanes": [{"id": lane_id, "points": [[3.0, 0.0, 0.0], [5.0, 1.0, 0.0]]}]})

    @pytest.mark.parametrize("lane_id", [2.5, 2.0, "2"])
    def test_non_integer_id_is_refused_not_truncated(self, lane_id):
        # save_lanes once wrote id 2.5 as 2
        with pytest.raises(InvalidValue, match=r"^Lane3D\.id: must be an integer"):
            Lane3D(points=[[3.0, 0.0, 0.0], [5.0, 1.0, 0.0]], id=lane_id)
        with pytest.raises(MissingField, match=r"^lanes\[0\]\.id: must be a JSON integer"):
            data_io.lanes_from_dict({"lanes": [{"id": lane_id, "points": [[3.0, 0.0, 0.0], [5.0, 1.0, 0.0]]}]})

    def test_lane_without_two_distinct_x_names_the_lane_id(self):
        data = {"lanes": [{"id": 4, "points": [[3.0, 0.0, 0.0], [5.0, 1.0, 0.0]]}, {"id": 7, "points": [[3.0, 0.0, 0.0]] * 3}]}
        with pytest.raises(InvalidValue, match=r"^Lane3D\.points: lane 7 needs at least 2 points with distinct x"):
            data_io.lanes_from_dict(data)

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

    @pytest.mark.parametrize("bad, error", [("nan", NonFiniteInput), ("two columns", ShapeMismatch)])
    def test_points_the_reader_refuses_are_not_written(self, tmp_path, bad, error):
        # Lane3D.points can be reassigned; save_scene refuses what load_scene would
        scene = generate_scene(SceneParams(n_lanes=2, seed=8))
        points = scene.lanes[1].points.copy()
        points[3, 1] = np.nan
        scene.lanes[1].points = points if bad == "nan" else scene.lanes[1].points[:, :2]
        path = tmp_path / "scene.json"
        with pytest.raises(error, match=re.escape("lanes[1].points: ")):
            data_io.save_scene(scene, path)
        assert not path.exists()

    @pytest.mark.parametrize("tag", [5, None, ["curve"]])
    def test_non_string_scene_tag_is_refused_naming_it(self, tag):
        with pytest.raises(MissingField, match="^scene_tag: must be a string"):
            data_io.scene_from_dict(with_leaf(_SCENE, ("scene_tag",), tag))


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

    def test_frame_text_may_be_bytes(self):
        scene, text = self.make_frame_text()
        for raw in (text.encode(), bytearray(text.encode())):
            assert data_io.parse_openlane_frame(raw).scene_tag == "frames/000.json"

    @pytest.mark.parametrize("value", [5, None, ["{}"]])
    def test_frame_text_of_another_type_is_refused_naming_it(self, value):
        # once a bare TypeError from json.loads
        with pytest.raises(InvalidValue, match=r"^parse_openlane_frame\.json_text: must be a str or bytes or bytearray"):
            data_io.parse_openlane_frame(value)

    @pytest.mark.parametrize("value", [5, ["x"], None])
    def test_file_path_that_is_not_a_string_is_refused_naming_it(self, value):
        # 5 and ["x"] were once written as the frame's file_path
        with pytest.raises(InvalidValue, match=r"^export_openlane_frame\.file_path: must be a str"):
            data_io.export_openlane_frame(self.make_frame_text()[0], value)

    def test_missing_field(self):
        with pytest.raises(MissingField):
            data_io.parse_openlane_frame(json.dumps({"intrinsic": np.eye(3).tolist()}))

    def test_noninvertible_intrinsic(self):
        frame = {
            "intrinsic": np.zeros((3, 3)).tolist(),
            "extrinsic": np.eye(4).tolist(),
            "lane_lines": [],
        }
        with pytest.raises(InvalidValue, match=r"^frame\.intrinsic: "):
            data_io.parse_openlane_frame(json.dumps(frame))

    def test_non_orthonormal_rotation(self):
        bad = np.eye(4)
        bad[0, 0] = 1.5
        frame = {
            "intrinsic": canonical_rig().intrinsics.matrix.tolist(),
            "extrinsic": bad.tolist(),
            "lane_lines": [],
        }
        with pytest.raises(InvalidValue, match=r"^frame\.extrinsic: rotation fails orthonormality"):
            data_io.parse_openlane_frame(json.dumps(frame))

    def test_bad_lane_shape(self):
        frame = {
            "intrinsic": canonical_rig().intrinsics.matrix.tolist(),
            "extrinsic": np.eye(4).tolist(),
            "lane_lines": [{"xyz": [[1.0, 2.0], [0.0, 0.1]]}],
        }
        with pytest.raises(ShapeMismatch, match=re.escape("lane_lines[0].xyz: shape (2, 2) differs from (3, *)")):
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
            (minimal_frame(image_size=[True, 576]), "image_size"),
        ],
    )
    def test_bad_value_raises_missing_field_naming_it(self, frame, named):
        with pytest.raises(MissingField, match=re.escape(named)):
            data_io.parse_openlane_frame(json.dumps(frame))

    @pytest.mark.parametrize("size", [5, [1024]])
    def test_image_size_of_a_wrong_shape_raises_shape_mismatch(self, size):
        # once MissingField, unlike every other wrong shape in a file
        with pytest.raises(ShapeMismatch, match=r"^image_size: shape "):
            data_io.parse_openlane_frame(json.dumps(minimal_frame(image_size=size)))

    @pytest.mark.parametrize(
        "frame, named",
        [
            (minimal_frame(lane_lines=[{"xyz": [[1.0, 1.0], [0.0, 0.1], [0.0, 0.0]]}]), "Lane3D.points: lane 1 "),
            (minimal_frame(lane_lines=[{"xyz": [[], [], []]}]), "Lane3D.points: lane 1 "),
            (minimal_frame(intrinsic=np.diag([-1000.0, 1000.0, 1.0]).tolist()), "Intrinsics.fx: "),
            (minimal_frame(extrinsic=np.diag([1.0, 1.0, -1.0, 1.0]).tolist()), "Extrinsics.rotation: "),
            (minimal_frame(image_size=[0, 576]), "CameraRig.image_size: "),
            (minimal_frame(image_size=[1024.5, 576]), "CameraRig.image_size: must be an integer"),
            # a subnormal entry once made det warn "divide by zero" instead
            (minimal_frame(intrinsic=[[0.0, 1.1125369292536007e-308, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), "frame.intrinsic: "),
            (minimal_frame(intrinsic=[[0.0, 0.0, 512.0], [0.0, 1000.0, 288.0], [0.0, 0.0, 1.0]]), "frame.intrinsic: matrix is not"),
            # entries the rig has no field for
            (minimal_frame(intrinsic=[[1000.0, 0.0, 512.0], [0.0, 1000.0, 288.0], [0.0, 0.0, 2.0]]), "frame.intrinsic: "),
            (minimal_frame(intrinsic=[[1000.0, 0.0, 512.0], [50.0, 1000.0, 288.0], [0.0, 0.0, 1.0]]), "frame.intrinsic: "),
            (minimal_frame(extrinsic=np.vstack([np.eye(4)[:3], [5.0, 5.0, 5.0, 7.0]]).tolist()), "frame.extrinsic: "),
        ],
    )
    def test_value_the_rig_or_lane_refuses_raises_invalid_value_naming_the_class_field(self, frame, named):
        with pytest.raises(InvalidValue, match=f"^{re.escape(named)}"):
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


def from_file(load):
    return lambda value, tmp: load_json_file(load, value, tmp)


def from_dict(load):
    return lambda value, tmp: load(value)


_RIG = data_io.rig_to_dict(canonical_rig())
_SCENE = data_io.scene_to_dict(generate_scene(SceneParams(n_lanes=2, seed=8)))
_LANES = {"lanes": _SCENE["lanes"]}

# Each JSON object with a fixed key set: (name, load(value), the base value,
# the path to the object in it, the name its error gives)
FIXED_KEY_OBJECTS = [
    ("rig", from_file(data_io.load_rig), _RIG, (), "camera JSON"),
    ("intrinsics", from_dict(data_io.rig_from_dict), _RIG, ("intrinsics",), "intrinsics"),
    ("extrinsics", from_dict(data_io.rig_from_dict), _RIG, ("extrinsics",), "extrinsics"),
    ("homography", from_file(data_io.load_homography), {"matrix": np.eye(3).tolist()}, (), "homography JSON"),
    ("scene", from_dict(data_io.scene_from_dict), _SCENE, (), "scene JSON"),
    ("scene camera", from_dict(data_io.scene_from_dict), _SCENE, ("camera",), "camera"),
    ("scene intrinsics", from_dict(data_io.scene_from_dict), _SCENE, ("camera", "intrinsics"), "camera.intrinsics"),
    ("scene lane", from_dict(data_io.scene_from_dict), _SCENE, ("lanes", 1), "lanes[1]"),
    ("lanes", from_file(data_io.load_lanes), _LANES, (), "lanes JSON"),
    ("lane", from_dict(data_io.lanes_from_dict), _LANES, ("lanes", 0), "lanes[0]"),
]


class TestUnknownKeys:
    @pytest.mark.parametrize("name, load, base, path, named", FIXED_KEY_OBJECTS, ids=[o[0] for o in FIXED_KEY_OBJECTS])
    def test_misspelled_key_is_refused_naming_it(self, name, load, base, path, named, tmp_path):
        # a rig file with "skeww" once loaded with skew 0
        load(base, tmp_path)
        value = json.loads(json.dumps(base))
        obj = value
        for key in path:
            obj = obj[key]
        obj["skeww"] = 5
        with pytest.raises(MissingField, match=rf"^{re.escape(named)}: unknown key 'skeww', expected one of "):
            load(value, tmp_path)

    def test_openlane_frame_keeps_its_other_keys(self):
        # the OpenLane layout carries many more keys than the parser reads
        scene = data_io.parse_openlane_frame(json.dumps(minimal_frame(pose=np.eye(4).tolist(), file_path="a.jpg")))
        assert scene.scene_tag == "a.jpg"


class TestOneNumberRule:
    @pytest.mark.parametrize("leaf", NOT_NUMBERS, ids=["string", "true", "false", "null", "object", "ragged"])
    @pytest.mark.parametrize("boundary, load, named, number", NUMBER_BOUNDARIES, ids=[b[0] for b in NUMBER_BOUNDARIES])
    def test_non_number_leaf_is_refused_at_every_boundary(self, boundary, load, named, number, leaf, tmp_path):
        # a list in place of an array's entry makes the array ragged, but in
        # place of a lone number (intrinsics.fx, GridSpec.cell) it is a wrong shape
        ragged = isinstance(leaf, list)
        with pytest.raises(ShapeMismatch if ragged and named == "intrinsics.fx" else MissingField, match=re.escape(named)):
            load(leaf, tmp_path)
        with pytest.raises(ShapeMismatch if ragged else MissingField, match=r"^GridSpec\.cell: "):
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
                InvalidValue,
            ),
            (
                lambda tmp: data_io.rig_from_dict(
                    with_leaf(data_io.rig_to_dict(canonical_rig()), ("extrinsics", "rotation", 0, 0), 1e200)
                ),
                InvalidValue,
            ),
        ],
        ids=["homography", "OpenLane extrinsic", "camera rotation"],
    )
    def test_overflow_is_refused_without_a_warning(self, load, error, tmp_path):
        with pytest.raises(error):
            load(tmp_path)


_NAN_ROTATION = np.eye(3)
_NAN_ROTATION[1, 2] = np.nan
_LANE = {"id": 1, "points": [[3.0, 0.0, 0.0], [9.0, 1.0, 0.0]]}


def config_file(value):
    return lambda tmp: load_json_file(lambda path: cli._load_config(SceneParams, str(path)), value, tmp)


def rig_file(path, leaf):
    return lambda tmp: load_json_file(data_io.load_rig, with_leaf(_RIG, path, leaf), tmp)


def lanes_file(path, leaf):
    return lambda tmp: load_json_file(data_io.load_lanes, with_leaf({"lanes": [_LANE]}, path, leaf), tmp)


def built(make):
    return lambda tmp: make()


# One class per fault, whichever file or constructor carries it
FAULT_CLASSES = {"NaN": NonFiniteInput, "wrong shape": ShapeMismatch, "unknown key": MissingField, "true": MissingField}
# Each fault in a config file, a rig file, a lanes file and the constructor
# of the value each holds: (fault, carrier, load(tmp_path), message prefix)
FAULTS = [
    ("NaN", "config", config_file({"hill_amplitude": float("nan")}), "SceneParams.hill_amplitude: "),
    ("NaN", "SceneParams", built(lambda: SceneParams(hill_amplitude=float("nan"))), "SceneParams.hill_amplitude: "),
    ("NaN", "rig", rig_file(("extrinsics", "rotation", 1, 2), float("nan")), "extrinsics.rotation: "),
    ("NaN", "Extrinsics", built(lambda: Extrinsics(rotation=_NAN_ROTATION, translation=np.zeros(3))), "Extrinsics.rotation: "),
    ("NaN", "lanes", lanes_file(("lanes", 0, "points", 1, 1), float("nan")), "lanes[0].points: "),
    ("NaN", "Lane3D", built(lambda: Lane3D(points=[[3.0, np.nan, 0.0], [9.0, 1.0, 0.0]])), "Lane3D.points: "),
    ("wrong shape", "config", config_file({"curvature": [[0.0, 0.0]]}), "SceneParams.curvature: "),
    ("wrong shape", "SceneParams", built(lambda: SceneParams(curvature=((0.0, 0.0),))), "SceneParams.curvature: "),
    ("wrong shape", "rig", rig_file(("extrinsics", "rotation"), np.eye(2).tolist()), "extrinsics.rotation: "),
    ("wrong shape", "Extrinsics", built(lambda: Extrinsics(rotation=np.eye(2), translation=np.zeros(3))), "Extrinsics.rotation: "),
    ("wrong shape", "lanes", lanes_file(("lanes", 0, "points"), [[3.0, 0.0], [9.0, 1.0]]), "lanes[0].points: "),
    ("wrong shape", "Lane3D", built(lambda: Lane3D(points=[[3.0, 0.0], [9.0, 1.0]])), "Lane3D.points: "),
    ("unknown key", "config", config_file({"hill": 1.0}), "SceneParams: unknown key 'hill'"),
    ("unknown key", "rig", rig_file(("intrinsics", "fxx"), 1000.0), "intrinsics: unknown key 'fxx'"),
    ("unknown key", "lanes", lanes_file(("lanes", 0, "idd"), 2), "lanes[0]: unknown key 'idd'"),
    ("true", "config", config_file({"hill_amplitude": True}), "SceneParams.hill_amplitude: "),
    ("true", "rig", rig_file(("intrinsics", "fx"), True), "intrinsics.fx: "),
    ("true", "lanes", lanes_file(("lanes", 0, "points", 1, 1), True), "lanes[0].points: "),
]


@pytest.mark.parametrize("fault, carrier, load, named", FAULTS, ids=[f"{f[0]}-{f[1]}" for f in FAULTS])
def test_one_fault_raises_one_class_whatever_carries_it(fault, carrier, load, named, tmp_path):
    with pytest.raises(FAULT_CLASSES[fault], match=f"^{re.escape(named)}"):
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
