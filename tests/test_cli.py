import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lanebev
from lanebev import data_io
from lanebev.camera_geometry import CameraRig, Extrinsics, Intrinsics
from lanebev.cli import build_parser, main
from lanebev.lane_grid import GridSpec, GridTensors, Lane3D, encode_lanes, ideal_prediction
from lanebev.metrics import EvalConfig
from lanebev.postproc import DecodeParams, decode_grid, decode_lanes, fit_lanes
from lanebev.synth import SceneParams, canonical_rig, checkerboard, generate_scene, jittered_rig, render_ground_pattern
from test_postproc import noisy_prediction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scene_params(tmp_path, **fields):
    """A synth or pipeline --params file holding the SceneParams `fields`."""
    path = tmp_path / "scene_params.json"
    path.write_text(json.dumps(fields))
    return str(path)


def write_prediction(pred, path):
    """Store grid tensors `pred` in the stacked layout that `decode --pred` reads."""
    layers = [pred.confidence[:, :, None], pred.embedding, pred.offset[:, :, None], pred.height[:, :, None]]
    data_io.write_tensor(np.concatenate(layers, axis=2), path)


class TestPipeline:
    def test_full_oracle_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "pipeline", "--params", scene_params(tmp_path, n_lanes=4), "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["f_score"] == 1.0
        assert report["n_gt"] == 4

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        params = scene_params(tmp_path, n_lanes=2, hill_amplitude=1.0)
        code, out, _ = run(capsys, "pipeline", "--params", params, "--seed", "3", "--out", str(path))
        assert code == 0
        report = json.loads(path.read_text())
        assert report["f_score"] == 1.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        params = scene_params(tmp_path, n_lanes=3, camera_jitter=[2, 0.2])
        run(capsys, "pipeline", "--params", params, "--seed", "11", "--out", str(p1))
        run(capsys, "pipeline", "--params", params, "--seed", "11", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_flag_replaces_the_file_seed(self, capsys, tmp_path):
        # as in synth: --seed, when given, wins over the file; without
        # --params the scene takes SceneParams' defaults
        reports = [
            run(capsys, "pipeline", "--seed", "7")[1],
            run(capsys, "pipeline", "--params", scene_params(tmp_path, seed=7))[1],
            run(capsys, "pipeline", "--params", scene_params(tmp_path, seed=1), "--seed", "7")[1],
        ]
        assert reports[0] == reports[1] == reports[2]
        assert json.loads(reports[0])["n_gt"] == SceneParams().n_lanes

    def test_asymmetric_curvature_range(self, capsys, tmp_path):
        params = scene_params(tmp_path, n_lanes=3, curvature=[5e-5, 1e-4], seed=2)
        code, out, _ = run(capsys, "pipeline", "--params", params)
        assert code == 0
        assert json.loads(out)["f_score"] == 1.0

    @pytest.mark.parametrize("n_lanes", [0, 2])
    def test_negative_embed_dim_is_refused_naming_it(self, capsys, tmp_path, n_lanes):
        # with no lanes numpy once refused the width as "negative dimensions",
        # and with lanes the simplex as TooManyInstances; 0 stays valid
        params = scene_params(tmp_path, n_lanes=n_lanes)
        code, out, err = run(capsys, "pipeline", "--params", params, "--embed-dim", "-1")
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "InvalidValue"
        assert payload["message"].startswith("ideal_prediction.embed_dim: ")
        assert run(capsys, "pipeline", "--params", scene_params(tmp_path, n_lanes=0), "--embed-dim", "0")[0] == 0


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "homography", "--src", "only.json")
        assert code == 2
        assert "usage" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_homography_takes_no_anchor_points(self, capsys):
        # the two rigs determine the ground-plane homography
        with pytest.raises(SystemExit) as exc:
            main(["homography", "--src", "a.json", "--dst", "b.json", "--points", "points.json"])
        assert exc.value.code == 2
        assert "--points" in capsys.readouterr().err

    def test_pipeline_takes_no_scene_flags(self, capsys):
        # the scene comes from a --params file, as for synth
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--n-lanes", "4"])
        assert exc.value.code == 2
        assert "--n-lanes" in capsys.readouterr().err

    def test_domain_error_exits_1_with_json_stderr(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run(capsys, "homography", "--src", str(missing), "--dst", str(missing))
        assert code == 1
        payload = json.loads(err.strip())
        assert "error" in payload and "message" in payload
        assert "\n" not in err.strip()

    @pytest.mark.parametrize(
        "command, flag, config, error, named",
        [
            ("decode", "--params", {"dgap": 0.1}, "MissingField", "dgap"),
            ("pipeline", "--spec", {"cel": 1.0}, "MissingField", "cel"),
            ("eval", "--config", {"match_treshold": 0.1}, "MissingField", "match_treshold"),
            ("synth", "--params", {"nlanes": 6}, "MissingField", "nlanes"),
            ("decode", "--params", {"min_points": "4"}, "MissingField", "min_points"),
            ("decode", "--params", {"d_gap": None}, "MissingField", "d_gap"),
            ("pipeline", "--spec", {"cell": "0.5"}, "MissingField", "cell"),
            ("eval", "--config", {"sample_xs": 5}, "ShapeMismatch", "sample_xs"),
            ("synth", "--params", {"curvature": 0.001}, "ShapeMismatch", "curvature"),
            ("synth", "--params", [1, 2], "MissingField", "SceneParams"),
            ("synth", "--params", {"n_lanes": 2.5}, "InvalidValue", "SceneParams.n_lanes: "),
            ("synth", "--params", {"seed": 1.5}, "InvalidValue", "SceneParams.seed: "),
            ("decode", "--params", {"fit_degree": 2.5}, "InvalidValue", "DecodeParams.fit_degree: "),
            ("decode", "--params", {"d_gap": -1}, "InvalidValue", "DecodeParams.d_gap: "),
            ("decode", "--spec", {"cell": -1}, "InvalidValue", "GridSpec.cell: "),
            ("decode", "--spec", {"cell": 1e308}, "InvalidValue", "GridSpec.cell: "),
            ("synth", "--params", {"n_lanes": -1}, "InvalidValue", "SceneParams.n_lanes: "),
            ("synth", "--params", {"seed": -5}, "InvalidValue", "SceneParams.seed: "),
            ("pipeline", "--params", {"seed": -5}, "InvalidValue", "SceneParams.seed: "),
            ("eval", "--config", {"match_ratio": 2}, "InvalidValue", "EvalConfig.match_ratio: "),
            ("synth", "--params", {"curvature": [1, 2, 3]}, "ShapeMismatch", "SceneParams.curvature: "),
            ("synth", "--params", {"curvature": [0.01, -0.01]}, "InvalidValue", "SceneParams.curvature: "),
            ("pipeline", "--params", {"curvature": [0.01, -0.01]}, "InvalidValue", "SceneParams.curvature: "),
            ("pipeline", "--params", {"curvature": [float("nan"), 0.001]}, "NonFiniteInput", "SceneParams.curvature: "),
            ("pipeline", "--params", {"n_lanes": 4.5}, "InvalidValue", "SceneParams.n_lanes: "),
            ("pipeline", "--params", {"hill": 1.0}, "MissingField", "hill"),
        ],
    )
    def test_bad_config_exits_1_naming_the_key(self, capsys, tmp_path, command, flag, config, error, named):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        pred, gt = tmp_path / "pred.npy", tmp_path / "gt.json"
        data_io.write_tensor(np.zeros((200, 40, 4), dtype=np.float32), pred)
        data_io.save_lanes(generate_scene(SceneParams(n_lanes=2, seed=1)).lanes, gt)
        inputs = {
            "decode": ["--pred", str(pred), "--out", str(tmp_path / "lanes.json")],
            "eval": ["--pred", str(gt), "--gt", str(gt)],
            "synth": ["--out", str(tmp_path / "scene.json")],
            "pipeline": [],
        }[command]
        code, out, err = run(capsys, command, *inputs, flag, str(config_path))
        assert code == 1
        assert out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == error
        assert named in payload["message"]

    @pytest.mark.parametrize(
        "command, bad, error, named",
        [
            ("eval", [1], "MissingField", "lanes JSON"),
            ("eval", {"lanes": 5}, "MissingField", "lanes"),
            ("eval", {"lanes": [{"id": None, "points": [[3.0, 0.0, 0.0], [9.0, 0.0, 0.0]]}]}, "MissingField", "lanes[0].id"),
            ("eval", {"lanes": [{"id": 1.5, "points": [[3.0, 0.0, 0.0], [9.0, 0.0, 0.0]]}]}, "MissingField", "lanes[0].id"),
            ("eval", {"lanes": [{"id": 1, "points": [[3.0, 0.0], [9.0, 0.0]]}]}, "ShapeMismatch", "lanes[0].points"),
            ("encode", [], "MissingField", "scene JSON"),
            ("encode", {"camera": {}, "lanes": []}, "MissingField", "camera"),
            # the second lane's default id, its position, repeats the first lane's id
            (
                "encode",
                {
                    "camera": data_io.rig_to_dict(canonical_rig()),
                    "lanes": [{"id": 2, "points": [[3.0, -2.0, 0.0], [9.0, -2.0, 0.0]]}, {"points": [[3.0, 2.0, 0.0], [9.0, 2.0, 0.0]]}],
                },
                "InvalidValue",
                "encode_lanes.lanes: id 2 ",
            ),
        ],
    )
    def test_bad_lanes_or_scene_exits_1_naming_the_field(self, capsys, tmp_path, command, bad, error, named):
        bad_path, gt = tmp_path / "bad.json", tmp_path / "gt.json"
        bad_path.write_text(json.dumps(bad))
        data_io.save_lanes(generate_scene(SceneParams(n_lanes=2, seed=1)).lanes, gt)
        inputs = {
            "eval": ["--pred", str(bad_path), "--gt", str(gt)],
            "encode": ["--scene", str(bad_path), "--out-dir", str(tmp_path / "enc")],
        }[command]
        code, out, err = run(capsys, command, *inputs)
        assert code == 1
        assert out == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == error
        assert named in payload["message"]

    @pytest.mark.parametrize(
        "command, bad, named",
        [
            ("homography", [], "camera JSON"),
            ("homography", {"intrinsics": {}, "extrinsics": [], "image_size": [4, 4]}, "intrinsics.fx"),
            ("homography", {**data_io.rig_to_dict(canonical_rig()), "extrinsics": []}, "extrinsics"),
            ("homography", {**data_io.rig_to_dict(canonical_rig()), "image_size": "1024x576"}, "image_size"),
            ("warp", [], "homography JSON"),
            ("warp", {"homography": np.eye(3).tolist()}, "matrix"),
            ("warp", {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], "last"]}, "matrix"),
        ],
    )
    def test_bad_camera_or_homography_exits_1_naming_the_field(self, capsys, tmp_path, command, bad, named):
        bad_path, cam, image = tmp_path / "bad.json", tmp_path / "cam.json", tmp_path / "in.pgm"
        bad_path.write_text(json.dumps(bad))
        data_io.save_rig(canonical_rig(), cam)
        data_io.write_pnm(np.zeros((4, 6)), image)
        inputs = {
            "homography": ["--src", str(bad_path), "--dst", str(cam)],
            "warp": ["--image", str(image), "--h", str(bad_path), "--out", str(tmp_path / "out.pgm")],
        }[command]
        code, out, err = run(capsys, command, *inputs)
        assert code == 1
        assert out == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "MissingField"
        assert named in payload["message"]

    @pytest.mark.parametrize("command, error", [("warp", "NonFiniteInput"), ("homography", "InvalidValue")])
    def test_overflow_prints_one_json_line_on_stderr(self, tmp_path, command, error):
        # A fresh process, so that a RuntimeWarning would reach stderr
        image, cam = tmp_path / "in.pgm", tmp_path / "cam.json"
        data_io.write_pnm(np.zeros((4, 6)), image)
        huge_rotation = data_io.rig_to_dict(canonical_rig())
        huge_rotation["extrinsics"]["rotation"][0][0] = 1e200
        cam.write_text(json.dumps(huge_rotation))
        (tmp_path / "h.json").write_text(json.dumps({"matrix": [[1e308, 0, 0], [0, 1, 0], [0, 0, 1e-10]]}))
        argv = {
            "warp": ["--image", str(image), "--h", str(tmp_path / "h.json"), "--out", str(tmp_path / "out.pgm")],
            "homography": ["--src", str(cam), "--dst", str(cam)],
        }[command]
        done = subprocess.run(
            [sys.executable, "-m", "lanebev.cli", command, *argv], capture_output=True, text=True, env=package_env()
        )
        assert done.returncode == 1 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert json.loads(done.stderr)["error"] == error

    @pytest.mark.parametrize("text", [b"{", b'{"lanes": []}\xff', b"[" * 100_000 + b"]" * 100_000], ids=["cut", "latin-1", "deep"])
    @pytest.mark.parametrize("flag", ["eval --pred", "encode --scene", "homography --src", "homography --dst", "synth --params"])
    def test_malformed_json_file_exits_1_naming_it(self, capsys, tmp_path, flag, text):
        bad_path, cam, gt = tmp_path / "bad.json", tmp_path / "cam.json", tmp_path / "gt.json"
        bad_path.write_bytes(text)
        data_io.save_rig(canonical_rig(), cam)
        data_io.save_lanes(generate_scene(SceneParams(n_lanes=2, seed=1)).lanes, gt)
        command = flag.split()[0]
        inputs = {
            "eval --pred": ["--pred", str(bad_path), "--gt", str(gt)],
            "encode --scene": ["--scene", str(bad_path), "--out-dir", str(tmp_path / "enc")],
            "homography --src": ["--src", str(bad_path), "--dst", str(cam)],
            "homography --dst": ["--src", str(cam), "--dst", str(bad_path)],
            "synth --params": ["--params", str(bad_path), "--out", str(tmp_path / "scene.json")],
        }[flag]
        code, out, err = run(capsys, command, *inputs)
        assert code == 1
        assert out == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "MalformedJson"
        assert str(bad_path) in payload["message"]

    @pytest.mark.parametrize("size", ["-5x3", "0x0", "1024x", "x576", "1024x-1", "12.5x3"])
    def test_warp_size_must_be_two_positive_integers(self, capsys, tmp_path, size):
        out = tmp_path / "out.pgm"
        code, _, err = run(capsys, "warp", "--image", "in.pgm", "--h", "h.json", "--out", str(out), f"--size={size}")
        assert code == 2
        assert "--size" in err.splitlines()[0]
        assert not out.exists()


class TestSchemas:
    @pytest.mark.parametrize(
        "command",
        ["homography", "warp", "encode", "decode", "eval", "synth", "fit-vrm", "losscheck", "plot", "pipeline"],
    )
    def test_every_subcommand_prints_schema(self, capsys, command):
        code, out, _ = run(capsys, command, "--schema")
        assert code == 0
        schema = json.loads(out)
        assert "inputs" in schema and "outputs" in schema

    @pytest.mark.parametrize(
        "command, flag, cls",
        [
            ("encode", "--spec", GridSpec),
            ("decode", "--spec", GridSpec),
            ("plot", "--spec", GridSpec),
            ("pipeline", "--spec", GridSpec),
            ("decode", "--params", DecodeParams),
            ("eval", "--config", EvalConfig),
            ("synth", "--params", SceneParams),
            ("pipeline", "--params", SceneParams),
        ]
        + [("homography", flag, cls) for flag in ("--src", "--dst") for cls in (Intrinsics, Extrinsics, CameraRig)],
    )
    def test_config_schema_names_every_field(self, capsys, command, flag, cls):
        code, out, _ = run(capsys, command, "--schema")
        assert code == 0
        text = json.loads(out)["inputs"][flag]
        missing = [f.name for f in dataclasses.fields(cls) if not re.search(rf"\b{f.name}\b", text)]
        assert missing == []


class TestFileWorkflow:
    def test_synth_encode_decode_eval_chain(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n_lanes": 3, "hill_amplitude": 1.0, "seed": 4}))
        scene = tmp_path / "scene.json"
        assert run(capsys, "synth", "--params", str(params), "--out", str(scene))[0] == 0

        enc = tmp_path / "enc"
        pred = tmp_path / "pred.npy"
        code, _, _ = run(
            capsys, "encode", "--scene", str(scene), "--out-dir", str(enc),
            "--ideal-pred", str(pred), "--embed-dim", "8",
        )
        assert code == 0
        assert (enc / "confidence.npy").exists()
        conf = data_io.read_tensor(enc / "confidence.npy")
        assert conf.shape == (200, 40)
        assert conf.sum() == 600.0

        lanes = tmp_path / "lanes.json"
        assert run(capsys, "decode", "--pred", str(pred), "--out", str(lanes))[0] == 0
        decoded = json.loads(lanes.read_text())
        assert len(decoded["lanes"]) == 3
        assert "fit" in decoded["lanes"][0]

        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"lanes": json.loads(scene.read_text())["lanes"]}))
        report = tmp_path / "report.json"
        code, _, _ = run(capsys, "eval", "--pred", str(lanes), "--gt", str(gt), "--report", str(report))
        assert code == 0
        assert json.loads(report.read_text())["f_score"] == 1.0

    def test_np_load_reads_the_encoder_outputs(self, capsys, tmp_path):
        scene = generate_scene(SceneParams(n_lanes=3, hill_amplitude=1.0, seed=4))
        data_io.save_scene(scene, tmp_path / "scene.json")
        enc, pred = tmp_path / "enc", tmp_path / "pred.npy"
        argv = ["encode", "--scene", str(tmp_path / "scene.json"), "--out-dir", str(enc), "--ideal-pred", str(pred)]
        assert run(capsys, *argv, "--embed-dim", "8") == (0, "", "")
        gt = encode_lanes(scene.lanes)
        ideal = ideal_prediction(gt, embed_dim=8)
        want = {
            enc / "confidence.npy": gt.confidence,
            enc / "offset.npy": gt.offset,
            enc / "height.npy": gt.height,
            enc / "instance.npy": gt.instance,
            pred: np.dstack([ideal.confidence, ideal.embedding, ideal.offset, ideal.height]),
        }
        for path, values in want.items():
            got = np.load(path)
            assert got.dtype == np.float32 and np.array_equal(got, values.astype(np.float32)), path.name

    @pytest.mark.parametrize("seed", [0, 1])
    def test_decode_reads_a_stack_that_np_save_wrote(self, capsys, tmp_path, seed):
        pred = noisy_prediction(seed)
        stack = np.dstack([pred.confidence, pred.embedding, pred.offset, pred.height])
        np.save(tmp_path / "plain.npy", stack.astype(np.float32))
        data_io.write_tensor(stack, tmp_path / "ours.npy")
        np.save(tmp_path / "float64.npy", stack)
        assert (tmp_path / "plain.npy").read_bytes() == (tmp_path / "ours.npy").read_bytes()
        for name in ("plain", "ours", "float64"):
            argv = ["decode", "--pred", str(tmp_path / f"{name}.npy"), "--out", str(tmp_path / f"{name}.json")]
            assert run(capsys, *argv) == (0, "", "")
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "ours.json").read_bytes()
        # a float64 stack is decoded as stored, as decode_lanes decodes it in process
        lanes, fits = decode_lanes(
            GridTensors(confidence=stack[:, :, 0], embedding=stack[:, :, 1:-2], offset=stack[:, :, -2], height=stack[:, :, -1])
        )
        data_io.save_lanes(lanes, tmp_path / "in_process.json", fits)
        assert (tmp_path / "float64.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_decode_of_noisy_tensors_matches_the_hand_assembly(self, capsys, tmp_path, seed):
        write_prediction(noisy_prediction(seed), tmp_path / "pred.npy")
        cli_lanes = tmp_path / "cli.json"
        assert run(capsys, "decode", "--pred", str(tmp_path / "pred.npy"), "--out", str(cli_lanes)) == (0, "", "")
        stack = data_io.read_tensor(tmp_path / "pred.npy").astype(float)
        stored = GridTensors(
            confidence=np.clip(stack[:, :, 0], 0.0, 1.0), embedding=stack[:, :, 1:-2], offset=stack[:, :, -2], height=stack[:, :, -1]
        )
        instances = decode_grid(stored)
        assert any(len(np.unique(inst.points[:, 0])) < len(inst.points) for inst in instances)  # rows with several cells
        lanes = [Lane3D(points=inst.points, id=inst.cluster_id + 1) for inst in instances]
        data_io.save_lanes(lanes, tmp_path / "hand.json", fit_lanes(instances))
        assert cli_lanes.read_bytes() == (tmp_path / "hand.json").read_bytes()

    def test_decode_drops_a_one_row_cluster(self, capsys, tmp_path):
        stack = np.zeros((200, 40, 5), dtype=np.float32)  # confidence, 2-D embedding, offset, height
        stack[:, 5, 0] = 1.0  # a lane down column 5
        stack[50, 30:34, 0] = 1.0  # four cells in one row, far from it in embedding
        stack[50, 30:34, 1] = 10.0
        pred = tmp_path / "pred.npy"
        data_io.write_tensor(stack, pred)
        lanes = tmp_path / "lanes.json"
        assert run(capsys, "decode", "--pred", str(pred), "--out", str(lanes)) == (0, "", "")
        assert [lane["id"] for lane in json.loads(lanes.read_text())["lanes"]] == [1]

    def test_eval_directory_mode(self, capsys, tmp_path):
        scene = generate_scene(SceneParams(n_lanes=2, seed=9))
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for name in ("a.json", "b.json"):
            data_io.save_lanes(scene.lanes, gt_dir / name)
        data_io.save_lanes(scene.lanes, pred_dir / "a.json")  # b.json missing -> empty preds
        code, out, _ = run(capsys, "eval", "--pred", str(pred_dir), "--gt", str(gt_dir))
        assert code == 0
        report = json.loads(out)
        assert report["n_gt"] == 4 and report["tp"] == 2
        assert report["recall"] == 0.5

    def test_homography_and_warp(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        a, b = jittered_rig(rng, 2.0, 0.2), jittered_rig(rng, 2.0, 0.2)
        cam_a, cam_b = tmp_path / "a.json", tmp_path / "b.json"
        data_io.save_rig(a, cam_a)
        data_io.save_rig(b, cam_b)
        hpath = tmp_path / "h.json"
        code, _, _ = run(capsys, "homography", "--src", str(cam_a), "--dst", str(cam_b), "--out", str(hpath))
        assert code == 0
        h = data_io.load_homography(hpath)
        assert h.matrix.shape == (3, 3)

        img = render_ground_pattern(a, checkerboard(), out_size=(1024, 576))
        src = tmp_path / "in.pgm"
        out_img = tmp_path / "out.pgm"
        data_io.write_pnm(img, src)
        code, _, _ = run(capsys, "warp", "--image", str(src), "--h", str(hpath), "--out", str(out_img))
        assert code == 0
        assert data_io.read_pnm(out_img).shape == (576, 1024)

    def test_fit_vrm_from_sample_dir(self, capsys, tmp_path, rng):
        m0 = rng.normal(size=(6, 12))
        samples = tmp_path / "samples"
        samples.mkdir()
        for k in range(4):  # 4 x 4 channels = 16 pairs >= 12
            x = rng.normal(size=(3, 4, 4)).astype(np.float32)
            y = (m0 @ x.reshape(-1, 4).astype(float)).reshape(2, 3, 4)
            data_io.write_tensor(x, samples / f"fv_{k:03d}.npy")
            data_io.write_tensor(y, samples / f"bev_{k:03d}.npy")
        out = tmp_path / "map.npy"
        code, _, _ = run(capsys, "fit-vrm", "--samples", str(samples), "--ridge", "0", "--out", str(out))
        assert code == 0
        fitted = data_io.read_tensor(out).astype(float)
        assert np.abs(fitted - m0).max() < 1e-4  # float32 sample quantization limits this
        sidecar = json.loads((tmp_path / "map.json").read_text())
        assert sidecar == {"fv_shape": [3, 4], "bev_shape": [2, 3], "scale": 32}


    @pytest.mark.parametrize("ridge, error", [("nan", "NonFiniteInput"), ("inf", "NonFiniteInput"), ("-1", "InvalidValue")])
    def test_fit_vrm_refuses_a_bad_ridge(self, capsys, tmp_path, ridge, error):
        samples = tmp_path / "samples"
        samples.mkdir()
        data_io.write_tensor(np.ones((3, 4, 2), dtype=np.float32), samples / "fv_000.npy")
        data_io.write_tensor(np.ones((2, 3, 2), dtype=np.float32), samples / "bev_000.npy")
        out = tmp_path / "map.npy"
        code, stdout, err = run(capsys, "fit-vrm", "--samples", str(samples), "--ridge", ridge, "--out", str(out))
        assert code == 1 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == error and payload["message"].startswith("fit_vrm_least_squares.ridge: ")
        assert not out.exists()

    def test_fit_vrm_refuses_a_non_finite_sample(self, capsys, tmp_path, rng):
        # one NaN once gave a map with NaN entries and exit 0
        samples = tmp_path / "samples"
        samples.mkdir()
        for k in range(3):
            fv = rng.normal(size=(3, 4, 2)).astype(np.float32)
            if k == 1:
                fv[2, 3, 1] = np.nan
            data_io.write_tensor(fv, samples / f"fv_{k:03d}.npy")
            data_io.write_tensor(rng.normal(size=(2, 3, 2)).astype(np.float32), samples / f"bev_{k:03d}.npy")
        out = tmp_path / "map.npy"
        code, stdout, err = run(capsys, "fit-vrm", "--samples", str(samples), "--ridge", "1", "--out", str(out))
        assert code == 1 and stdout == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "NonFiniteInput"
        assert payload["message"].startswith("fit_vrm_least_squares.samples[1]: ")
        assert not out.exists()


class TestLosscheck:
    def test_gradient_suite_passes(self, capsys):
        code, out, _ = run(capsys, "losscheck", "--seed", "5", "--batches", "3")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(v < 1e-5 for v in report["max_rel_error"].values())


class TestPlot:
    def test_one_polyline_per_lane(self, capsys, tmp_path):
        scene = generate_scene(SceneParams(n_lanes=4, seed=6))
        lanes = tmp_path / "lanes.json"
        data_io.save_lanes(scene.lanes, lanes)
        svg = tmp_path / "bev.svg"
        code, _, _ = run(capsys, "plot", "--lanes", str(lanes), "--out", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.count("<polyline") == 4
        assert text.startswith("<svg")

    def test_plot_is_deterministic(self, capsys, tmp_path):
        scene = generate_scene(SceneParams(n_lanes=2, seed=6))
        lanes = tmp_path / "lanes.json"
        data_io.save_lanes(scene.lanes, lanes)
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "plot", "--lanes", str(lanes), "--out", str(s1))
        run(capsys, "plot", "--lanes", str(lanes), "--out", str(s2))
        assert s1.read_bytes() == s2.read_bytes()


def out_commands(tmp_path):
    """Each command that writes a file, as argv with the flag naming that file last."""
    scene = generate_scene(SceneParams(n_lanes=3, seed=6))
    lanes, cam_a, cam_b, h = (tmp_path / name for name in ("lanes.json", "a.json", "b.json", "h.json"))
    data_io.save_lanes(scene.lanes, lanes)
    data_io.save_rig(canonical_rig(), cam_a)
    data_io.save_rig(jittered_rig(np.random.default_rng(2), 2.0, 0.2), cam_b)
    h.write_text(json.dumps({"matrix": [[1.0, 0.1, 2.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]]}))
    image = tmp_path / "in.pgm"
    data_io.write_pnm(np.random.default_rng(3).random((24, 32)), image)
    return {
        "homography": ["homography", "--src", str(cam_a), "--dst", str(cam_b), "--out"],
        "pipeline": ["pipeline", "--params", scene_params(tmp_path, n_lanes=2), "--seed", "3", "--out"],
        "eval": ["eval", "--pred", str(lanes), "--gt", str(lanes), "--report"],
        "synth": ["synth", "--seed", "4", "--out"],
        "plot": ["plot", "--lanes", str(lanes), "--out"],
        "warp": ["warp", "--image", str(image), "--h", str(h), "--out"],
    }


# SHA-256 of each command's output file, recorded before the CLI
# overwrote files in place; the JSON files' since each is one json.dumps
# line.
OUT_FILE_SHA256 = {
    "homography": "8f90c54b7c73f1d7a034d77ba6db718488700a340f24f245ac138f7b72666abe",
    "pipeline": "0260dfe5388f28ca3bab23979df4b170b843df05a5073b1222084ce9a7b7422b",
    "eval": "46278cc008d22b5b4b4b2f9d4ac0705b401734d92b64dc1ec11d43a5a59f9697",
    "synth": "a32bc993b44293bb6eb412372f29450fff93b91d0106d1d12a7469a58e139d7d",
    "plot": "310f570e02acec6e7d6aa1f00fa2fda9ec268b940e8e0bebc9cb864ff2ece621",
    "warp": "30f46dbcbae07b1c5b78f7e528937a6bd49562f4b320fc2bac0eae58a0f4b239",
}


class TestOutFiles:
    @pytest.mark.parametrize("command", list(OUT_FILE_SHA256))
    def test_file_is_pinned_fresh_and_over_a_longer_file(self, capsys, tmp_path, command):
        argv = out_commands(tmp_path)[command]
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        assert run(capsys, *argv, str(fresh))[0] == 0
        blob = fresh.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == OUT_FILE_SHA256[command]
        old.write_bytes(b"\xff" * (len(blob) + 4097))
        assert run(capsys, *argv, str(old))[0] == 0
        assert old.read_bytes() == blob

    @pytest.mark.parametrize("command", ["homography", "pipeline", "eval"])
    def test_file_is_what_the_command_prints_without_it(self, capsys, tmp_path, command):
        argv = out_commands(tmp_path)[command]
        code, out, _ = run(capsys, *argv[:-1])
        assert code == 0
        assert run(capsys, *argv, str(tmp_path / "out.json"))[0] == 0
        assert (tmp_path / "out.json").read_text() == out


def test_decode_reads_the_prediction_from_stdin(capsys, tmp_path):
    write_prediction(noisy_prediction(0), tmp_path / "pred.npy")
    assert run(capsys, "decode", "--pred", str(tmp_path / "pred.npy"), "--out", str(tmp_path / "file.json"))[0] == 0
    done = subprocess.run(
        [sys.executable, "-m", "lanebev.cli", "decode", "--pred", "/dev/stdin", "--out", str(tmp_path / "stdin.json")],
        input=(tmp_path / "pred.npy").read_bytes(),
        capture_output=True,
        env=package_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "stdin.json").read_bytes() == (tmp_path / "file.json").read_bytes()


class TestDataDirEnv:
    def test_relative_paths_resolve_against_env(self, capsys, tmp_path, monkeypatch):
        data_io.save_rig(canonical_rig(), tmp_path / "cam.json")
        monkeypatch.setenv("LANEBEV_DATA_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path.parent)
        code, out, _ = run(capsys, "homography", "--src", "cam.json", "--dst", "cam.json")
        assert code == 0
        assert np.abs(np.asarray(json.loads(out)["matrix"]) - np.eye(3)).max() < 1e-9


def package_env():
    """The environment of a fresh process that imports this lanebev."""
    src = str(Path(lanebev.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_scipy_unloaded():
    # scipy.sparse takes about 0.25 s to import and only the IPM maps use it
    code = "import sys, lanebev.cli; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["pipeline", "eval"])
def test_lane_commands_leave_scipy_optimize_unloaded(tmp_path, command):
    # lane matching is metrics._assign; scipy.optimize would add about 0.3-0.6 s
    # and 27 MB to every process that evaluates lanes
    gt = tmp_path / "gt.json"
    data_io.save_lanes([Lane3D(points=[[3.0, 0.0, 0.0], [50.0, 0.2, 0.0]], id=1)], gt)
    argv = {
        "pipeline": ["pipeline", "--params", scene_params(tmp_path, n_lanes=2), "--seed", "3", "--out", str(tmp_path / "report.json")],
        "eval": ["eval", "--pred", str(gt), "--gt", str(gt), "--report", str(tmp_path / "report.json")],
    }[command]
    code = (
        "import sys; from lanebev.cli import main; code = main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m == 'scipy.optimize' or m.startswith('scipy.optimize.')))"
    )
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=package_env(), check=True)
    assert done.stdout.strip() == "0 []"
    assert json.loads((tmp_path / "report.json").read_text())["f_score"] == 1.0


@pytest.mark.parametrize("command", ["synth", "pipeline", "decode"])
def test_cli_runs_clean_with_warnings_as_errors(tmp_path, command):
    # pytest's filterwarnings does not reach a child process; -W error makes
    # any warning there fail the command, and -X dev adds resource warnings.
    # The synth and pipeline scenes are curved
    write_prediction(noisy_prediction(5), tmp_path / "pred.npy")
    curved = scene_params(tmp_path, n_lanes=4, curvature=[-3e-4, 3e-4])
    argv = {
        "synth": ["--params", curved, "--seed", "7", "--out", str(tmp_path / "scene.json")],
        "pipeline": ["--params", curved, "--seed", "7", "--out", str(tmp_path / "report.json")],
        "decode": ["--pred", str(tmp_path / "pred.npy"), "--out", str(tmp_path / "lanes.json")],
    }[command]
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "lanebev.cli", command, *argv],
        capture_output=True, text=True, env=package_env(),
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


# The first stderr line of each subcommand run with no flags, as the
# per-handler guards printed it before the command table replaced them
USAGE_MESSAGES = {
    "homography": "error: homography requires --src and --dst",
    "warp": "error: warp requires --image, --h and --out",
    "encode": "error: encode requires --scene and --out-dir",
    "decode": "error: decode requires --pred and --out",
    "eval": "error: eval requires --pred and --gt",
    "synth": "error: synth requires --out",
    "fit-vrm": "error: fit-vrm requires --samples and --out",
    "plot": "error: plot requires --lanes and --out",
}


def parsed_options():
    """Each subcommand's option strings, without --help and --schema."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help", "--schema"}
        for name, p in sub.choices.items()
    }


class TestCommandTable:
    @pytest.mark.parametrize(
        "command, argv",
        [(command, []) for command in USAGE_MESSAGES] + [("warp", ["--image", "in.pgm", "--out", "out.pgm"])],
    )
    def test_missing_required_flag_names_every_required_flag(self, capsys, command, argv):
        code, out, err = run(capsys, command, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert lines[0] == USAGE_MESSAGES[command]
        assert lines[1].startswith(f"usage: lanebev {command} [-h] [--schema]")

    def test_every_parsed_flag_is_in_its_schema(self, capsys):
        undocumented = {}
        for command, options in parsed_options().items():
            code, out, _ = run(capsys, command, "--schema")
            assert code == 0
            schema = json.loads(out)
            missing = options - set(schema["inputs"]) - set(schema["outputs"])
            if missing:
                undocumented[command] = sorted(missing)
        assert undocumented == {}

    def test_schema_keys_are_declared_flags_or_stdout(self, capsys):
        for command, options in parsed_options().items():
            code, out, _ = run(capsys, command, "--schema")
            schema = json.loads(out)
            assert set(schema) == {"inputs", "outputs"}
            assert set(schema["inputs"]) <= options
            assert set(schema["outputs"]) <= options | {"stdout"}


class TestNamedErrors:
    def one_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        return json.loads(err)

    def test_prediction_that_is_not_a_stack(self, capsys, tmp_path):
        pred = tmp_path / "pred.npy"
        data_io.write_tensor(np.zeros((200, 40), dtype=np.float32), pred)
        payload = self.one_error(capsys, "decode", "--pred", str(pred), "--out", str(tmp_path / "lanes.json"))
        assert payload["error"] == "ShapeMismatch"
        assert "(200, 40)" in payload["message"]

    def test_eval_file_against_directory(self, capsys, tmp_path):
        gt = tmp_path / "gt.json"
        data_io.save_lanes(generate_scene(SceneParams(n_lanes=2, seed=1)).lanes, gt)
        payload = self.one_error(capsys, "eval", "--pred", str(gt), "--gt", str(tmp_path))
        assert payload["error"] == "ShapeMismatch"

    def test_eval_directory_without_frames(self, capsys, tmp_path):
        payload = self.one_error(capsys, "eval", "--pred", str(tmp_path), "--gt", str(tmp_path))
        assert payload["error"] == "EmptyInput"
        assert str(tmp_path) in payload["message"]

    def test_fit_vrm_without_samples(self, capsys, tmp_path):
        payload = self.one_error(capsys, "fit-vrm", "--samples", str(tmp_path), "--out", str(tmp_path / "map.npy"))
        assert payload["error"] == "EmptyInput"
        assert str(tmp_path) in payload["message"]

    def test_fit_vrm_sample_without_bev_pair(self, capsys, tmp_path):
        data_io.write_tensor(np.zeros((3, 4, 2), dtype=np.float32), tmp_path / "fv_000.npy")
        payload = self.one_error(capsys, "fit-vrm", "--samples", str(tmp_path), "--out", str(tmp_path / "map.npy"))
        assert payload["error"] == "MissingField"
        assert "fv_000.npy" in payload["message"]

    def test_decode_refuses_a_confidence_outside_0_1(self, capsys, tmp_path):
        # a stack whose confidence channel holds a logit is refused, not clamped
        stack = np.zeros((200, 40, 4), dtype=np.float32)
        stack[10, 20, 0] = 1.5
        pred = tmp_path / "pred.npy"
        data_io.write_tensor(stack, pred)
        out = tmp_path / "lanes.json"
        payload = self.one_error(capsys, "decode", "--pred", str(pred), "--out", str(out))
        assert payload["error"] == "InvalidValue"
        assert payload["message"].startswith("GridTensors.confidence: ")
        assert not out.exists()

    def test_decode_refuses_a_zero_row_prediction(self, capsys, tmp_path):
        pred = tmp_path / "pred.npy"
        data_io.write_tensor(np.zeros((0, 40, 4), dtype=np.float32), pred)
        out = tmp_path / "lanes.json"
        payload = self.one_error(capsys, "decode", "--pred", str(pred), "--out", str(out))
        assert payload["error"] == "ShapeMismatch"
        assert payload["message"].startswith("decode_grid.pred: shape (0, 40) differs")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    def test_negative_seed_flag_names_the_seed(self, capsys, tmp_path, command):
        extra = ["--out", str(tmp_path / "scene.json")] if command == "synth" else []
        payload = self.one_error(capsys, command, "--seed", "-1", *extra)
        assert payload["error"] == "InvalidValue"
        assert payload["message"].startswith("SceneParams.seed: ")

    @pytest.mark.parametrize("batches", ["0", "-1"])
    def test_losscheck_without_batches(self, capsys, batches):
        payload = self.one_error(capsys, "losscheck", "--batches", batches)
        assert payload["error"] == "InvalidValue"
        assert payload["message"].startswith("run_gradient_suite.batches: ")
