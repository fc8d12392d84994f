import json

import numpy as np
import pytest

from lanebev.camera_geometry import compute_homography, project_ground_point, warp_image
from lanebev.data_io import scene_to_dict
from lanebev.errors import InvalidValue, NonFiniteInput, ShapeMismatch
from lanebev.lane_grid import GridSpec, Lane3D
from lanebev.synth import (
    SceneParams,
    SceneRecord,
    canonical_rig,
    checkerboard,
    generate_scene,
    jittered_rig,
    render_ground_pattern,
)


class TestGenerateScene:
    def test_zero_lanes(self):
        scene = generate_scene(SceneParams(n_lanes=0, seed=1))
        assert scene.lanes == []
        assert scene.rig.image_size == (1024, 576)

    def test_flat_ground_is_exactly_zero(self):
        scene = generate_scene(SceneParams(n_lanes=3, hill_amplitude=0.0, seed=2))
        for lane in scene.lanes:
            assert np.all(lane.z == 0.0)

    def test_same_seed_bit_identical(self):
        params = SceneParams(
            n_lanes=4,
            curvature=(-2e-4, 2e-4),
            hill_amplitude=1.0,
            camera_jitter=(2.0, 0.3),
            seed=99,
        )
        a = json.dumps(scene_to_dict(generate_scene(params)), sort_keys=True)
        b = json.dumps(scene_to_dict(generate_scene(params)), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        p1 = SceneParams(n_lanes=2, curvature=(-2e-4, 2e-4), seed=1)
        p2 = SceneParams(n_lanes=2, curvature=(-2e-4, 2e-4), seed=2)
        a = generate_scene(p1)
        b = generate_scene(p2)
        assert not np.array_equal(a.lanes[0].points, b.lanes[0].points)

    def test_zero_jitter_gives_canonical_rig(self):
        scene = generate_scene(SceneParams(n_lanes=1, camera_jitter=(0.0, 0.0), seed=3))
        base = canonical_rig()
        assert np.array_equal(scene.rig.extrinsics.rotation, base.extrinsics.rotation)
        assert np.array_equal(scene.rig.extrinsics.translation, base.extrinsics.translation)

    def test_lane_geometry(self):
        scene = generate_scene(SceneParams(n_lanes=3, lane_spacing=4.0, hill_amplitude=2.0, hill_wavelength=50.0, seed=4))
        assert len(scene.lanes) == 3
        lane = scene.lanes[1]  # centered lane, zero curvature by default
        assert lane.x[0] == 3.0 and lane.x[-1] == 103.0
        assert len(lane.x) == 101
        assert np.allclose(lane.y, 0.0)
        assert np.allclose(lane.z, 2.0 * np.sin(2 * np.pi * lane.x / 50.0))
        # spacing between adjacent lanes is constant
        assert np.allclose(scene.lanes[2].y - scene.lanes[1].y, 4.0)

    def test_lanes_never_intersect_with_shared_curvature(self):
        scene = generate_scene(SceneParams(n_lanes=5, curvature=(3e-4, 3e-4), lane_spacing=2.5, seed=5))
        for a, b in zip(scene.lanes, scene.lanes[1:]):
            assert np.min(np.abs(a.y - b.y)) > 2.4

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SceneParams(n_lanes=-1)
        with pytest.raises(ValueError):
            SceneParams(hill_wavelength=0.0)
        for not_a_pair in (0.001, (0.001,), (0.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="curvature"):
                SceneParams(curvature=not_a_pair)
            with pytest.raises(ValueError, match="camera_jitter"):
                SceneParams(camera_jitter=not_a_pair)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field, make",
        [
            ("lane_spacing", lambda v: {"lane_spacing": v}),
            ("hill_amplitude", lambda v: {"hill_amplitude": v}),
            ("hill_wavelength", lambda v: {"hill_wavelength": v}),
            ("curvature", lambda v: {"curvature": (v, 0.001)}),
            ("curvature", lambda v: {"curvature": (-0.001, v)}),
            ("camera_jitter", lambda v: {"camera_jitter": (v, 0.0)}),
            ("camera_jitter", lambda v: {"camera_jitter": (0.0, v)}),
        ],
    )
    def test_non_finite_param_is_refused_naming_the_field(self, field, make, value):
        with pytest.raises(NonFiniteInput, match=rf"^SceneParams\.{field}: holds NaN or infinite values"):
            SceneParams(**make(value))

    def test_reversed_curvature_range_is_refused(self):
        with pytest.raises(ValueError, match="curvature"):
            SceneParams(curvature=(0.01, -0.01))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_lanes": -1},
            {"n_lanes": 2.5},
            {"n_lanes": True},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"lane_spacing": 0.0},
            {"hill_wavelength": -60.0},
            {"curvature": (0.01, -0.01)},
        ],
    )
    def test_refused_value_raises_invalid_value_naming_the_field(self, kwargs):
        (field,) = kwargs
        with pytest.raises(InvalidValue, match=rf"^SceneParams\.{field}: "):
            SceneParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"curvature": (0.0,)}, {"camera_jitter": 2.0}])
    def test_pair_of_another_shape_raises_shape_mismatch_naming_the_field(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ShapeMismatch, match=rf"^SceneParams\.{field}: shape "):
            SceneParams(**kwargs)


class TestSceneRecord:
    @pytest.mark.parametrize("lanes", [[], ()])
    def test_lanes_may_be_a_list_or_a_tuple(self, lanes):
        assert SceneRecord(canonical_rig(), lanes).lanes == lanes

    def test_a_wrong_lane_is_named_with_its_index(self):
        # once "SceneRecord.lanes: must be a list of Lane3D", naming no entry
        lane = Lane3D(np.array([[3.0, 0.0, 0.0], [5.0, 0.0, 0.0]]), id=1)
        with pytest.raises(InvalidValue, match=r"^SceneRecord\.lanes\[1\]: must be a Lane3D, got str"):
            SceneRecord(canonical_rig(), [lane, "x"])


def downscaled(rig, factor):
    """Same view on a 1/factor sensor: intrinsics and image size divided."""
    from lanebev.camera_geometry import CameraRig, Intrinsics

    intr = rig.intrinsics
    return CameraRig(
        intrinsics=Intrinsics(
            fx=intr.fx / factor, fy=intr.fy / factor, cx=intr.cx / factor, cy=intr.cy / factor
        ),
        extrinsics=rig.extrinsics,
        image_size=(rig.image_size[0] // factor, rig.image_size[1] // factor),
    )


class TestRenderGroundPattern:
    def test_uniform_pattern_renders_uniform(self):
        rig = downscaled(canonical_rig(), 4)
        img = render_ground_pattern(rig, np.ones((50, 10)), GridSpec(), (256, 144))
        visible = img > 0.0
        assert visible.any()
        # fully covered pixels are exactly 1 (bilinear partition of unity)
        interior = img[img > 0.999]
        assert len(interior) > 1000
        assert np.abs(interior - 1.0).max() < 1e-12

    def test_single_marked_cell_appears_at_projection(self):
        rig = canonical_rig()
        spec = GridSpec()
        pattern = np.zeros(spec.shape)
        r, c = 40, 26  # x = 23.25, y = 3.25
        pattern[r, c] = 1.0
        img = render_ground_pattern(rig, pattern, spec, (1024, 576))
        x = spec.x_min + (r + 0.5) * spec.cell
        y = spec.y_min + (c + 0.5) * spec.cell
        u, v = project_ground_point(rig, x, y)
        # intensity-weighted centroid of the rendered blob
        vv, uu = np.nonzero(img > 0.01)
        w = img[vv, uu]
        cu = (uu * w).sum() / w.sum()
        cv = (vv * w).sum() / w.sum()
        assert abs(cu - u) < 0.5 and abs(cv - v) < 0.5

    def test_rays_missing_ground_are_black(self):
        rig = canonical_rig()
        img = render_ground_pattern(rig, np.ones((50, 10)), GridSpec(), (1024, 576))
        assert np.all(img[:280] == 0.0)  # sky rows sit above the horizon

    def test_depth_gate_is_the_camera_geometry_constant(self, monkeypatch):
        from lanebev import camera_geometry, synth

        assert synth._MIN_DEPTH is camera_geometry._MIN_DEPTH
        rig = downscaled(canonical_rig(), 4)
        monkeypatch.setattr(synth, "_MIN_DEPTH", 1e9)  # no ground point is that far ahead
        assert not render_ground_pattern(rig, np.ones((50, 10)), GridSpec(), (256, 144)).any()

    def test_two_path_consistency_small(self):
        # render through A, warp by H(A->B), compare with direct render through B
        rng = np.random.default_rng(17)
        a = downscaled(jittered_rig(rng, 2.0, 0.2), 2)
        b = downscaled(jittered_rig(rng, 2.0, 0.2), 2)
        spec = GridSpec()
        pattern = checkerboard(spec, square_x=20.0, square_y=4.0, px_per_cell=2)
        size = (512, 288)
        ra = render_ground_pattern(a, pattern, spec, size)
        rb = render_ground_pattern(b, pattern, spec, size)
        h = compute_homography(a, b)
        warped = warp_image(ra, h, size)
        cov_a = render_ground_pattern(a, np.ones_like(pattern), spec, size)
        cov_b = render_ground_pattern(b, np.ones_like(pattern), spec, size)
        mask = (cov_b > 0.999) & (warp_image(cov_a, h, size) > 0.999)
        assert mask.sum() > 10000
        assert np.abs(warped - rb)[mask].mean() < 2.0 / 255.0


class TestCheckerboard:
    @pytest.mark.parametrize(
        "arg, value, error",
        [("square_x", 0.0, InvalidValue), ("square_y", -4.0, InvalidValue), ("square_x", np.inf, NonFiniteInput),
         ("px_per_cell", 0, InvalidValue), ("px_per_cell", 1.5, InvalidValue)],
    )
    def test_bad_argument_is_refused_naming_it(self, arg, value, error):
        # a zero square once gave a garbage pattern with two RuntimeWarnings,
        # and px_per_cell=0 a (0, 0) pattern
        with pytest.raises(error, match=rf"^checkerboard\.{arg}: "):
            checkerboard(**{arg: value})

    def test_alternates_with_square_size(self):
        spec = GridSpec()
        pat = checkerboard(spec, square_x=10.0, square_y=10.0)
        assert pat.shape == spec.shape
        assert set(np.unique(pat)) == {0.0, 1.0}
        # squares are 20 rows (10 m / 0.5 m) tall
        assert np.all(pat[0:14, 0] == pat[0, 0])
