import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanebev import data_io
from lanebev.errors import (
    BadMagic,
    MalformedJson,
    MissingField,
    NonOrthonormalRotation,
    TruncatedPayload,
    UnsupportedVersion,
)
from lanebev.lane_grid import Lane3D
from lanebev.postproc import DecodeParams, LaneInstance, fit_lanes
from lanebev.synth import SceneParams, canonical_rig, generate_scene


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
        with pytest.raises(ValueError):
            data_io.write_tensor(np.zeros((2, 2, 2, 2, 2), dtype=np.float32), tmp_path / "x.bldt")
        path = tmp_path / "y.bldt"
        path.write_bytes(b"BLDT" + struct.pack("<H", 1) + b"\x05")
        with pytest.raises(TruncatedPayload):
            data_io.read_tensor(path)


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
