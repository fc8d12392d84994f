"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
measured numbers.
"""

import json
import time
import warnings

import numpy as np
import pytest

from lanebev import data_io
from lanebev.camera_geometry import compute_homography, project_ground_points, warp_image
from lanebev.lane_grid import GridSpec, Lane3D, encode_lanes, ideal_prediction
from lanebev.losses import run_gradient_suite
from lanebev.metrics import EvalConfig, evaluate
from lanebev.postproc import DecodeParams, decode_grid
from lanebev.synth import (
    SceneParams,
    canonical_rig,
    checkerboard,
    generate_scene,
    jittered_rig,
    render_ground_pattern,
)
from lanebev.view_transform import FeatureTensor, apply_vrm, build_ipm_sampling_map, fit_vrm_least_squares

from conftest import random_rig_pair


def report(name, elapsed, detail):
    print(f"PASS {name}: {detail} ({elapsed:.2f}s)")


def test_criterion_1_homography_fidelity():
    t0 = time.perf_counter()
    worst_reproj = 0.0
    worst_inverse = 0.0
    for seed in range(100):
        src, dst = random_rig_pair(seed)
        h = compute_homography(src, dst)
        pts_rng = np.random.default_rng(10_000 + seed)
        pts = np.column_stack([pts_rng.uniform(5.0, 100.0, 20), pts_rng.uniform(-8.0, 8.0, 20)])
        u_src = project_ground_points(src, pts)
        u_dst = project_ground_points(dst, pts)
        worst_reproj = max(worst_reproj, float(np.abs(h.apply(u_src) - u_dst).max()))
        prod = h.matrix @ compute_homography(dst, src).matrix
        prod /= prod[2, 2]
        worst_inverse = max(worst_inverse, float(np.abs(prod - np.eye(3)).max()))
    elapsed = time.perf_counter() - t0
    assert worst_reproj < 1e-6
    assert worst_inverse < 1e-8
    assert elapsed < 1.0
    report("criterion 1 homography fidelity", elapsed,
           f"reproj {worst_reproj:.2e} px, inverse dev {worst_inverse:.2e}")


def test_criterion_2_warp_two_path_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    rig_a = jittered_rig(rng, 2.0, 0.2)
    rig_b = jittered_rig(rng, 2.0, 0.2)
    spec = GridSpec()
    pattern = checkerboard(spec, square_x=20.0, square_y=4.0, px_per_cell=2)
    size = (1024, 576)

    render_a = render_ground_pattern(rig_a, pattern, spec, size)
    render_b = render_ground_pattern(rig_b, pattern, spec, size)
    h = compute_homography(rig_a, rig_b)
    warped = warp_image(render_a, h, size)

    cover_a = render_ground_pattern(rig_a, np.ones_like(pattern), spec, size)
    cover_b = render_ground_pattern(rig_b, np.ones_like(pattern), spec, size)
    interior = (cover_b > 0.999) & (warp_image(cover_a, h, size) > 0.999)
    assert interior.sum() > 50_000

    mad = float(np.abs(warped - render_b)[interior].mean())
    elapsed = time.perf_counter() - t0
    assert mad < 2.0 / 255.0
    assert elapsed < 10.0
    report("criterion 2 warp two-path consistency", elapsed,
           f"interior MAD {mad:.5f} < {2/255:.5f} over {int(interior.sum())} px")


def _acceptance_scenes():
    """50 seeded scenes cycling 1-6 lanes, curvature up to 3e-4/m, hills to 2 m.

    The per-scene curvature cap keeps every lane inside the lateral grid
    range so the oracle is exact; small lane counts exercise the full
    +-3e-4/m curvature spread.
    """
    scenes = []
    hills = [0.0, 0.5, 1.0, 1.5, 2.0]
    for i in range(50):
        n = 1 + i % 6
        offset = (n - 1) / 2.0 * 3.5
        c_max = min(3e-4, (9.5 - offset) / 103.0**2)
        scenes.append(
            SceneParams(
                n_lanes=n,
                lane_spacing=3.5,
                curvature=(-c_max, c_max),
                hill_amplitude=hills[i % 5],
                hill_wavelength=60.0,
                camera_jitter=(2.0, 0.2),
                seed=i,
            )
        )
    return scenes


def test_criterion_3_full_pipeline_oracle():
    t0 = time.perf_counter()
    spec = GridSpec()
    params = DecodeParams()
    worst_x = 0.0
    worst_z = 0.0
    for scene_params in _acceptance_scenes():
        scene = generate_scene(scene_params)
        gt = encode_lanes(scene.lanes, spec)
        pred = ideal_prediction(gt, spec, embed_dim=8)
        instances = decode_grid(pred, spec, params)
        lanes = [Lane3D(points=inst.points, id=inst.cluster_id + 1) for inst in instances]
        result = evaluate(lanes, scene.lanes)
        assert result.f_score == 1.0, f"seed {scene_params.seed}: F={result.f_score}"
        worst_x = max(worst_x, result.x_err_near, result.x_err_far)
        worst_z = max(worst_z, result.z_err_near, result.z_err_far)
    elapsed = time.perf_counter() - t0
    assert worst_x < 0.01
    assert worst_z < 0.05
    assert elapsed < 30.0
    report("criterion 3 full-pipeline oracle", elapsed,
           f"50 scenes F=1.0, x err <= {worst_x:.2e} m, z err <= {worst_z:.2e} m")


def test_criterion_4_gradient_suite():
    t0 = time.perf_counter()
    worst = run_gradient_suite(seed=424242, batches=20)
    elapsed = time.perf_counter() - t0
    for name, err in worst.items():
        assert err < 1e-5, f"{name} gradient rel err {err}"
    assert elapsed < 10.0
    report("criterion 4 gradient suite", elapsed,
           "max rel err " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_5_vrm_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    # (a) data generated by the IPM sampling map: FV 32x18, BEV 50x10,
    # 2x the determined pair count, fifth of it again held out
    vrm = build_ipm_sampling_map(canonical_rig(), fv_shape=(18, 32), scale=32, bev_shape=(50, 10))

    def make_samples(count, channels=8):
        samples = []
        for _ in range(count):
            x = rng.normal(size=(18, 32, channels))
            y = (vrm.matrix @ x.reshape(-1, channels)).reshape(50, 10, channels)
            samples.append((FeatureTensor(x, scale=32), FeatureTensor(y, scale=32)))
        return samples

    train = make_samples(144)  # 1152 pairs >= 2 * 576
    held = make_samples(36)
    fitted = fit_vrm_least_squares(train, ridge=0.0)
    num = 0.0
    den = 0.0
    for fv, bev in held:
        pred = apply_vrm(fitted, fv).data
        num += float(((pred - bev.data) ** 2).sum())
        den += float((bev.data**2).sum())
    held_out_rel = np.sqrt(num / den)
    assert held_out_rel < 1e-3

    # (b) exact recovery of a synthetic dense operator
    m0 = rng.normal(size=(40, 48))
    samples = []
    for _ in range(20):  # 120 pairs >= 48
        x = rng.normal(size=(6, 8, 6))
        y = (m0 @ x.reshape(-1, 6)).reshape(8, 5, 6)
        samples.append((FeatureTensor(x, scale=32), FeatureTensor(y, scale=32)))
    recovered = fit_vrm_least_squares(samples, ridge=0.0)
    m0_rel = float(np.linalg.norm(recovered.matrix - m0) / np.linalg.norm(m0))
    assert m0_rel < 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion 5 VRM recovery", elapsed,
           f"held-out rel err {held_out_rel:.2e}, synthetic M0 rel err {m0_rel:.2e}")


def test_criterion_6_decode_speed_and_determinism():
    scene = generate_scene(SceneParams(n_lanes=6, lane_spacing=3.0, camera_jitter=(0.0, 0.0), seed=77))
    spec = GridSpec()
    gt = encode_lanes(scene.lanes, spec)
    pred = ideal_prediction(gt, spec, embed_dim=8)
    params = DecodeParams()

    decode_grid(pred, spec, params)  # warmup, not timed
    times = []
    for _ in range(100):
        t0 = time.perf_counter()
        instances = decode_grid(pred, spec, params)
        times.append(time.perf_counter() - t0)
    median_ms = sorted(times)[50] * 1e3
    assert len(instances) == 6
    assert median_ms < 5.0

    def serialize(run):
        return json.dumps([[inst.cluster_id, inst.points.tolist()] for inst in run], sort_keys=True)

    blobs = {serialize(decode_grid(pred, spec, params)) for _ in range(5)}
    assert len(blobs) == 1
    report("criterion 6 decode speed", sum(times), f"median {median_ms:.3f} ms, byte-deterministic")


def test_criterion_7_metric_sanity():
    t0 = time.perf_counter()
    scene = generate_scene(SceneParams(n_lanes=4, hill_amplitude=1.0, seed=13))
    lanes = scene.lanes

    identical = evaluate(lanes, lanes)
    assert identical.f_score == 1.0

    shifted = [Lane3D(points=lane.points + np.array([0.0, 0.1, 0.0]), id=lane.id) for lane in lanes]
    res = evaluate(shifted, lanes, EvalConfig(match_threshold=1.5))
    assert res.f_score == 1.0
    assert abs(res.x_err_near - 0.1) < 1e-9
    assert abs(res.x_err_far - 0.1) < 1e-9

    empty = evaluate([], lanes)
    assert empty.recall == 0.0
    report("criterion 7 metric sanity", time.perf_counter() - t0,
           "identity F=1, 0.1 m shift errors exact, empty recall 0")


def test_criterion_8_format_stability(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    path = tmp_path / "t.bldt"
    for _ in range(1000):
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
        arr = rng.normal(size=shape).astype(np.float32)
        data_io.write_tensor(arr, path)
        first = path.read_bytes()
        back = data_io.read_tensor(path)
        assert np.array_equal(back, arr)
        data_io.write_tensor(back, path)
        assert path.read_bytes() == first

    worst = 0.0
    for seed in range(10):
        scene = generate_scene(
            SceneParams(n_lanes=3, curvature=(-2e-4, 2e-4), hill_amplitude=1.0, camera_jitter=(2.0, 0.3), seed=seed)
        )
        back = data_io.parse_openlane_frame(data_io.export_openlane_frame(scene))
        for got, want in zip(back.lanes, scene.lanes):
            worst = max(worst, float(np.abs(got.points - want.points).max()))
    assert worst < 1e-9
    report("criterion 8 format stability", time.perf_counter() - t0,
           f"1000 tensor roundtrips bit-exact, frame roundtrip err {worst:.1e} m")


def test_stray_warnings_fail_the_suite():
    # pyproject.toml turns every warning into an error, so a warning no test expects fails tier-1
    with pytest.raises(UserWarning):
        warnings.warn("stray", UserWarning)
