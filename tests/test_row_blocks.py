"""Render and warp, one row block at a time, against whole-image references.

`reference_warp_image` and `reference_render_ground_pattern` build every
coordinate array at the output's size and sample it with the CSR product
bilinear_operator(sx, sy, (H, W)) @ image, which shares no code with the
row-block kernel beyond the weight formula.  Render and warp must give the
same bytes for any block size, output size, horizon, channel count and
band of zero source rows, and the fleet pin below holds their SHA-256 as
the whole-image code computed it.  The render is a ground-plane homography
warp; `raycast_render_ground_pattern` casts each pixel's ray instead, and
the render must agree with it to within the rounding of the two paths.
"""

import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from lanebev import camera_geometry
from lanebev.camera_geometry import (
    CameraRig,
    Extrinsics,
    Homography,
    Intrinsics,
    compute_homography,
    mean_virtual_camera,
    project_ground_points,
    warp_image,
)
from lanebev.errors import DegenerateDepth, NonFiniteInput, ShapeMismatch, SingularHomography
from lanebev.lane_grid import GridSpec
from lanebev.synth import canonical_rig, checkerboard, jittered_rig, render_ground_pattern
from test_camera_geometry import operator_product


def reference_warp_image(image, h, out_size):
    out_w, out_h = out_size
    hinv = np.linalg.inv(h.matrix)
    uu, vv = np.meshgrid(np.arange(out_w, dtype=float), np.arange(out_h, dtype=float))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = hinv[2, 0] * uu + hinv[2, 1] * vv + hinv[2, 2]
        sx = (hinv[0, 0] * uu + hinv[0, 1] * vv + hinv[0, 2]) / w
        sy = (hinv[1, 0] * uu + hinv[1, 1] * vv + hinv[1, 2]) / w
    return operator_product(image, sx, sy)


def reference_render_ground_pattern(rig, pattern, spec=GridSpec(), out_size=None):
    """The render as one whole-image homography: every pixel samples the
    pattern at hinv @ (u, v, 1), hinv = P G^-1, where G = K [r1 r2 t] maps
    the ground plane to the image and P maps ground metres to pattern
    pixels; only points with 0 < w < 1 / 1e-9 (depth above 1e-9) sample."""
    pat = np.asarray(pattern, dtype=float)
    w, h = out_size if out_size is not None else rig.image_size
    rows_p, cols_p = pat.shape[:2]
    dx = (spec.x_max - spec.x_min) / rows_p
    dy = (spec.y_max - spec.y_min) / cols_p
    to_ground = np.array([[0.0, dx, spec.x_min + 0.5 * dx], [dy, 0.0, spec.y_min + 0.5 * dy], [0.0, 0.0, 1.0]])
    rot = rig.extrinsics.rotation
    g = rig.intrinsics.matrix @ np.column_stack([rot[:, 0], rot[:, 1], rig.extrinsics.translation])
    hinv = np.linalg.inv(to_ground) @ np.linalg.inv(g)
    uu, vv = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wh = hinv[2, 0] * uu + hinv[2, 1] * vv + hinv[2, 2]
        wh = np.where((wh > 0) & (wh < 1.0 / 1e-9), wh, np.nan)
        sx = (hinv[0, 0] * uu + hinv[0, 1] * vv + hinv[0, 2]) / wh
        sy = (hinv[1, 0] * uu + hinv[1, 1] * vv + hinv[1, 2]) / wh
    return operator_product(pat, sx, sy)


def raycast_render_ground_pattern(rig, pattern, spec=GridSpec(), out_size=None):
    """The render by exact ray-plane casting: every pixel's ray is cut with
    the z = 0 plane, and the pattern is sampled there if the hit lies ahead
    of the camera at a depth above 1e-9."""
    pat = np.asarray(pattern, dtype=float)
    w, h = out_size if out_size is not None else rig.image_size
    intr = rig.intrinsics
    uu, vv = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    yn = (vv - intr.cy) / intr.fy
    xn = (uu - intr.cx - intr.skew * yn) / intr.fx
    d_cam = np.stack([xn, yn, np.ones_like(xn)], axis=-1)
    rot_t = rig.extrinsics.rotation.T
    d_road = d_cam @ rot_t.T
    center = rig.extrinsics.camera_center
    dz = d_road[:, :, 2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = -center[2] / dz
    valid = np.isfinite(t) & (t > 1e-9)
    t = np.where(valid, t, np.nan)
    gx = center[0] + t * d_road[:, :, 0]
    gy = center[1] + t * d_road[:, :, 1]
    rows_p, cols_p = pat.shape[:2]
    ix = (gx - spec.x_min) / (spec.x_max - spec.x_min) * rows_p - 0.5
    iy = (gy - spec.y_min) / (spec.y_max - spec.y_min) * cols_p - 0.5
    return operator_product(pat, iy, ix)


# The render and the ray cast form each sample's pattern coordinates by
# different float arithmetic, so they differ by rounding, which this bounds
# before any measurement.  A coordinate that can gather is at most
# max(rows, cols) + 1 pixels; each path forms it in about 30 operations of
# relative error 2^-53, and the ray-plane cut scales the relative error of
# the ray direction by range / height, at most about 105 m / 1 m here; a
# bilinear sample moves by at most 2 * max|pattern| per pixel of each of
# its two coordinates.  So C = 4 * 32 * 128 = 2^14.  The largest move
# measured on the full-size fleet frames of seeds 1 and 1001 is 2.9e-12,
# against a bound of 7.3e-10 there.
RAYCAST_C = 2**14


def raycast_tolerance(pattern):
    pattern = np.asarray(pattern)
    return RAYCAST_C * 2.0**-53 * (max(pattern.shape[:2]) + 1) * np.abs(pattern).max()


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()


def scaled_rig(rig, out_size, cy=None):
    """The rig's view on an out_size sensor; cy, if given, moves the horizon
    of a level rig to that image row."""
    sx, sy = out_size[0] / rig.image_size[0], out_size[1] / rig.image_size[1]
    i = rig.intrinsics
    return CameraRig(
        intrinsics=Intrinsics(
            fx=i.fx * sx, fy=i.fy * sy, cx=i.cx * sx, cy=i.cy * sy if cy is None else cy, skew=i.skew
        ),
        extrinsics=rig.extrinsics,
        image_size=(max(out_size[0], 1), max(out_size[1], 1)),
    )


# Blocks of one point up to the default: a width above the block puts one
# output row in each block.
BLOCKS = st.sampled_from([1, 5, 64, camera_geometry._SAMPLE_BLOCK])
CHANNELS = st.sampled_from([(), (1,), (3,)])


class TestWarpRowBlocks:
    @given(
        block=BLOCKS,
        out_size=st.tuples(st.integers(0, 40), st.integers(0, 23)),
        src_hw=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        channels=CHANNELS,
        perspective=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.1, 0.1)),
        affine=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # third row (0, -0.1, 1) of H^-1: the horizon w = 0 is output row 10
        block=64, out_size=(30, 20), src_hw=(20, 30), channels=(), perspective=(0.0, -0.1),
        affine=[0.0, 0.0, 0.0, 0.0], seed=1,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_whole_image_warp(self, block, out_size, src_hw, channels, perspective, affine, seed):
        rng = np.random.default_rng(seed)
        image = rng.normal(size=src_hw + channels)
        hinv = np.eye(3)
        hinv[0, :2] += affine[:2]
        hinv[1, :2] += affine[2:]
        hinv[2, :2] = perspective
        try:  # inv of a singular hinv with a subnormal pivot returns NaN rather than raising
            h = Homography(np.linalg.inv(hinv))
        except (np.linalg.LinAlgError, SingularHomography, NonFiniteInput):
            reject()
        with mock.patch.object(camera_geometry, "_SAMPLE_BLOCK", block):
            got = warp_image(image, h, out_size)
        assert_same_bytes(got, reference_warp_image(image, h, out_size))

    def test_width_above_default_block(self, rng):
        width = camera_geometry._SAMPLE_BLOCK + 37
        image = rng.random((5, 40, 2))
        h = Homography(np.array([[400.0, 0.0, 10.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]]))
        got = warp_image(image, h, (width, 3))
        assert_same_bytes(got, reference_warp_image(image, h, (width, 3)))
        assert got.any()


class TestRenderRowBlocks:
    @given(
        block=BLOCKS,
        out_size=st.tuples(st.integers(0, 48), st.integers(0, 29)),
        horizon=st.floats(-5.0, 40.0),
        jitter=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 0.5)),
        pattern_shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        channels=CHANNELS,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # every row above the horizon: nothing is gathered
        block=5, out_size=(16, 9), horizon=30.0, jitter=(0.0, 0.0), pattern_shape=(4, 4), channels=(), seed=1
    )
    @example(  # the footprint's rows [1, 28) sit strictly inside the image's 29
        block=64, out_size=(48, 29), horizon=-0.5, jitter=(4.0, 0.5), pattern_shape=(400, 40), channels=(3,), seed=23
    )
    @example(  # the footprint lies wholly below the image: no row is cast, all +0.0
        block=5, out_size=(48, 29), horizon=40.0, jitter=(0.0, 0.0), pattern_shape=(50, 10), channels=(), seed=1
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_whole_image_render(self, block, out_size, horizon, jitter, pattern_shape, channels, seed):
        rng = np.random.default_rng(seed)
        rig = scaled_rig(jittered_rig(rng, *jitter), (max(out_size[0], 1), max(out_size[1], 1)), cy=horizon)
        pattern = rng.normal(size=pattern_shape + channels)
        with mock.patch.object(camera_geometry, "_SAMPLE_BLOCK", block):
            got = render_ground_pattern(rig, pattern, GridSpec(), out_size)
        assert_same_bytes(got, reference_render_ground_pattern(rig, pattern, GridSpec(), out_size))

    def test_all_sky_is_zero(self):
        rig = scaled_rig(canonical_rig(), (64, 36), cy=50.0)
        img = render_ground_pattern(rig, np.ones((50, 10)), GridSpec(), (64, 36))
        assert_same_bytes(img, np.zeros((36, 64)))

    @pytest.mark.parametrize("out_size", [(0, 7), (7, 0), (0, 0)])
    def test_empty_output(self, out_size):
        rig = scaled_rig(canonical_rig(), (64, 36))
        for pattern in (np.ones((5, 4)), np.ones((5, 4, 3))):
            got = render_ground_pattern(rig, pattern, GridSpec(), out_size)
            assert_same_bytes(got, reference_render_ground_pattern(rig, pattern, GridSpec(), out_size))
            warped = warp_image(pattern, Homography(), out_size)
            assert_same_bytes(warped, reference_warp_image(pattern, Homography(), out_size))

    @pytest.mark.parametrize("shape", [(0, 4), (5, 0), (0, 0, 3)])
    def test_empty_pattern_renders_nothing(self, shape):
        got = render_ground_pattern(scaled_rig(canonical_rig(), (64, 36)), np.zeros(shape), GridSpec(), (64, 36))
        assert_same_bytes(got, np.zeros((36, 64) + shape[2:]))

    @pytest.mark.parametrize("shape", [(5,), (), (2, 2, 2, 2)])
    def test_image_that_is_not_2d_or_3d_names_its_field(self, shape):
        with pytest.raises(ShapeMismatch, match="pattern must be 2-D or 3-D"):
            render_ground_pattern(canonical_rig(), np.ones(shape))
        with pytest.raises(ShapeMismatch, match="image must be 2-D or 3-D"):
            warp_image(np.ones(shape), Homography(), (4, 3))

    @pytest.mark.parametrize("out_size", [(-1, 5), (5, -1), (4.0, 3)])
    def test_bad_output_size_is_refused(self, out_size):
        with pytest.raises(ShapeMismatch, match="out_size must be non-negative integers"):
            render_ground_pattern(canonical_rig(), np.ones((5, 4)), GridSpec(), out_size)
        with pytest.raises(ShapeMismatch, match="out_size must be non-negative integers"):
            warp_image(np.ones((5, 4)), Homography(), out_size)


def cast_rows(module, sampler, *args):
    """sampler(*args), and the output rows whose source coordinates it
    computed through module._sample_rows, in call order."""
    cast = []
    sample_rows = module._sample_rows

    def spy(img, out_hw, coords, *rest):
        def spied_coords(v):
            cast.extend(int(r) for r in v)
            return coords(v)

        return sample_rows(img, out_hw, spied_coords, *rest)

    with mock.patch.object(module, "_sample_rows", spy):
        return sampler(*args), cast


def render_cast_rows(rig, pattern, spec, out_size):
    """The render, and the output rows whose coordinates it cast, in call order."""
    return cast_rows(camera_geometry, render_ground_pattern, rig, pattern, spec, out_size)


class TestRenderFootprintRows:
    def test_fleet_rig_casts_no_row_above_the_far_edge(self):
        spec, size = GridSpec(), (1024, 576)
        rig = jittered_rig(np.random.default_rng([1]), 2.0, 0.2)
        pattern = checkerboard(spec, square_x=20.0, square_y=4.0, px_per_cell=2)
        got, cast = render_cast_rows(rig, pattern, spec, size)
        half_x = 0.5 * (spec.x_max - spec.x_min) / pattern.shape[0]
        half_y = 0.5 * (spec.y_max - spec.y_min) / pattern.shape[1]
        far_edge = [(spec.x_max + half_x, spec.y_min - half_y), (spec.x_max + half_x, spec.y_max + half_y)]
        far_row = project_ground_points(rig, far_edge)[:, 1].min()
        assert 200 < far_row < 400  # the far edge is mid-image, so the rows above it are culled
        assert cast == list(range(int(np.floor(far_row)) - 1, size[1]))
        assert_same_bytes(got, reference_render_ground_pattern(rig, pattern, spec, size))

    def test_footprint_behind_the_camera_casts_every_row(self):
        spec, size = GridSpec(x_min=-10.0, x_max=90.0), (256, 144)
        rig = scaled_rig(canonical_rig(), size)
        pattern = checkerboard(spec, square_x=20.0, square_y=4.0, px_per_cell=2)
        with pytest.raises(DegenerateDepth):
            project_ground_points(rig, [(spec.x_min, 0.0)])
        got, cast = render_cast_rows(rig, pattern, spec, size)
        assert cast == list(range(size[1]))
        assert got.any()
        assert_same_bytes(got, reference_render_ground_pattern(rig, pattern, spec, size))

    def test_subnormal_ray_depth_renders_without_warning(self):
        # cy = 1e-310 makes row 0's ray direction z subnormal, so its w is
        # subnormal and its coordinates overflow; that point gives 0, and the
        # render must not warn
        spec = GridSpec(x_min=-10.0)
        rig = CameraRig(
            intrinsics=Intrinsics(fx=1000.0, fy=1000.0, cx=512.0, cy=1e-310),
            extrinsics=canonical_rig().extrinsics,
            image_size=(64, 8),
        )
        pattern = checkerboard(spec, square_x=20.0, square_y=4.0, px_per_cell=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, cast = render_cast_rows(rig, pattern, spec, rig.image_size)
            want = reference_render_ground_pattern(rig, pattern, spec)
        assert cast == list(range(rig.image_size[1]))
        assert_same_bytes(got, want)

    @given(
        block=BLOCKS,
        out_size=st.tuples(st.integers(0, 48), st.integers(0, 29)),
        horizon=st.floats(-5.0, 40.0),
        jitter=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 0.5)),
        pattern_shape=st.tuples(st.integers(20, 400), st.integers(1, 40)),
        zero_rows=st.tuples(st.integers(0, 400), st.integers(0, 400)),
        channels=CHANNELS,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_culled_rows_match_whole_image_render(
        self, block, out_size, horizon, jitter, pattern_shape, zero_rows, channels, seed
    ):
        # Patterns of 20 rows or more put the widened near edge at x >= 0.5 m,
        # in front of the camera for most draws, so mostly only the
        # footprint's rows are cast.  The pattern rows outside [lo, hi) are
        # zero, so the footprint is that of the band between them.
        rng = np.random.default_rng(seed)
        rig = scaled_rig(jittered_rig(rng, *jitter), (max(out_size[0], 1), max(out_size[1], 1)), cy=horizon)
        pattern = rng.normal(size=pattern_shape + channels)
        lo, hi = sorted(min(r, pattern_shape[0]) for r in zero_rows)
        pattern[:lo] = 0.0
        pattern[hi:] = 0.0
        with mock.patch.object(camera_geometry, "_SAMPLE_BLOCK", block):
            got = render_ground_pattern(rig, pattern, GridSpec(), out_size)
        assert_same_bytes(got, reference_render_ground_pattern(rig, pattern, GridSpec(), out_size))


def rig_centred_at(center, size=(256, 144)):
    """The canonical rig's view on a size sensor, with its centre moved to center."""
    rig = scaled_rig(canonical_rig(), size)
    rot = rig.extrinsics.rotation
    return CameraRig(rig.intrinsics, Extrinsics(rotation=rot, translation=-rot @ np.asarray(center)), size)


class TestRenderAgainstRayCast:
    @given(
        out_size=st.tuples(st.integers(0, 48), st.integers(0, 29)),
        horizon=st.floats(-5.0, 40.0),
        jitter=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 0.5)),
        pattern_shape=st.tuples(st.integers(1, 400), st.integers(1, 40)),
        channels=CHANNELS,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_raycast_within_rounding(self, out_size, horizon, jitter, pattern_shape, channels, seed):
        rng = np.random.default_rng(seed)
        rig = scaled_rig(jittered_rig(rng, *jitter), (max(out_size[0], 1), max(out_size[1], 1)), cy=horizon)
        pattern = rng.normal(size=pattern_shape + channels)
        got = render_ground_pattern(rig, pattern, GridSpec(), out_size)
        want = raycast_render_ground_pattern(rig, pattern, GridSpec(), out_size)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= raycast_tolerance(pattern)

    @pytest.mark.parametrize("seed", [1, 1001])
    def test_fleet_matches_raycast_within_rounding(self, seed):
        size = (1024, 576)
        rng = np.random.default_rng([seed])
        rigs = [jittered_rig(rng, 2.0, 0.2) for _ in range(4)]
        pattern = checkerboard(GridSpec(), square_x=20.0, square_y=4.0, px_per_cell=2)
        for rig in rigs + [mean_virtual_camera(rigs)]:
            got = render_ground_pattern(rig, pattern, GridSpec(), size)
            want = raycast_render_ground_pattern(rig, pattern, GridSpec(), size)
            assert np.array_equal(got != 0.0, want != 0.0)
            assert np.abs(got - want).max() <= raycast_tolerance(pattern)

    def test_camera_below_the_ground_sees_it_from_below(self):
        # From c_z = -1.5 the rays that rise hit the ground ahead: the rows
        # above the horizon show the pattern, the rows below it nothing.
        spec = GridSpec()
        rig = rig_centred_at((0.0, 0.0, -1.5))
        pattern = checkerboard(spec, square_x=20.0, square_y=4.0, px_per_cell=2) + 0.5
        got = render_ground_pattern(rig, pattern, spec)
        want = raycast_render_ground_pattern(rig, pattern, spec)
        assert got[:72].any() and not got[72:].any()
        tol = raycast_tolerance(pattern)
        assert np.abs(got - want).max() <= tol
        # Only a pixel on the pattern's edge, where the sample fades to 0
        # and a rounding can zero it, may be zero in one render alone.
        assert np.array_equal(np.abs(got) > tol, np.abs(want) > tol)

    @pytest.mark.parametrize(
        "center",
        [(0.0, 0.0, 0.0), (20.0, 3.0, 0.0), (0.0, 0.0, -0.0), (0.0, 0.0, 1e-310), (20.0, 3.0, 1e-310), (0.0, 0.0, -5e-324)],
    )
    def test_camera_on_the_ground_plane_renders_nothing(self, center):
        # A centre on z = 0 makes G singular, and one a subnormal height above
        # or below it makes every ground point ahead nearer than 1e-9: no ray
        # meets the ground ahead, even where the pattern lies under the camera.
        spec = GridSpec(x_min=-10.0)
        rig = rig_centred_at(center)
        pattern = checkerboard(spec, square_x=20.0, square_y=4.0, px_per_cell=2) + 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = render_ground_pattern(rig, pattern, spec)
            want = raycast_render_ground_pattern(rig, pattern, spec)
        assert_same_bytes(got, np.zeros((144, 256)))
        assert_same_bytes(want, np.zeros((144, 256)))


SPECIAL = [np.nan, np.inf, -np.inf]


class TestWarpCull:
    @given(
        block=BLOCKS,
        out_size=st.tuples(st.integers(0, 40), st.integers(0, 23)),
        src_hw=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        band=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        negative_zero=st.booleans(),
        specials=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29), st.sampled_from(SPECIAL)), max_size=3),
        channels=CHANNELS,
        affine=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
        perspective=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # all-zero source: nothing is gathered
        block=64, out_size=(30, 20), src_hw=(20, 30), band=(7, 7), negative_zero=True, specials=[], channels=(),
        affine=[0.0] * 6, perspective=(0.0, 0.0), seed=1,
    )
    @example(  # a one-row source, shifted to output row 5
        block=5, out_size=(30, 20), src_hw=(1, 30), band=(0, 1), negative_zero=False, specials=[], channels=(3,),
        affine=[0.0, 0.0, 0.0, 0.0, 0.0, 5.0], perspective=(0.0, 0.0), seed=1,
    )
    @example(  # band [5, 20): corners at source rows 4 and 20 have w = 0.6 and -1, so every row is cast
        block=64, out_size=(30, 20), src_hw=(30, 30), band=(5, 20), negative_zero=True, specials=[(25, 3, np.inf)],
        channels=(), affine=[0.0] * 6, perspective=(0.0, -0.1), seed=1,
    )
    @example(  # near-singular H: det about 1e-11, so H^-1 holds entries about 1e11
        block=64, out_size=(40, 23), src_hw=(20, 30), band=(4, 15), negative_zero=False, specials=[(9, 9, np.nan)],
        channels=(1,), affine=[0.0, 1.0, 0.0, 1.0, 1e-11, 0.0], perspective=(0.0, 0.0), seed=1,
    )
    @example(  # w at row 0 of the output is subnormal, so its sy overflows: those points sample 0
        block=1, out_size=(2, 1), src_hw=(11, 1), band=(0, 11), negative_zero=False, specials=[], channels=(),
        affine=[0.0, 0.0, 0.0, 8.733723325072875e-308, -1.0, 1.0], perspective=(0.0, -0.09375), seed=0,
    )
    @example(  # a subnormal entry: the singular H is refused without a warning from its determinant
        block=1, out_size=(0, 0), src_hw=(1, 1), band=(0, 0), negative_zero=False, specials=[], channels=(),
        affine=[0.0, 0.0, 0.0, 0.0, -1.0, 0.0], perspective=(0.0, 1.1125369292536007e-308), seed=0,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_operator_product(
        self, block, out_size, src_hw, band, negative_zero, specials, channels, affine, perspective, seed
    ):
        # Rows outside [lo, hi) hold +-0.0 and are not gathered; a NaN or
        # +-inf pixel there widens the band to its row.
        rng = np.random.default_rng(seed)
        image = rng.normal(size=src_hw + channels)
        lo, hi = sorted(min(b, src_hw[0]) for b in band)
        zero = -0.0 if negative_zero else 0.0
        image[:lo] = zero
        image[hi:] = zero
        for r, c, value in specials:
            image[r % src_hw[0], c % src_hw[1]] = value
        matrix = np.eye(3)
        matrix[:2] += np.reshape(affine, (2, 3)) * [1.0, 1.0, 10.0]
        matrix[2, :2] = perspective
        try:
            h = Homography(matrix)
        except (SingularHomography, NonFiniteInput):
            reject()
        with mock.patch.object(camera_geometry, "_SAMPLE_BLOCK", block):
            got = warp_image(image, h, out_size)
        assert_same_bytes(got, reference_warp_image(image, h, out_size))

    def test_fleet_warp_casts_only_the_footprint_rows(self):
        size = (1024, 576)
        rng = np.random.default_rng([1])
        rigs = [jittered_rig(rng, 2.0, 0.2) for _ in range(4)]
        h = compute_homography(rigs[0], mean_virtual_camera(rigs))
        pattern = checkerboard(GridSpec(), square_x=20.0, square_y=4.0, px_per_cell=2)
        image = render_ground_pattern(rigs[0], pattern, GridSpec(), size)
        nonzero = np.flatnonzero(image.any(axis=1))
        r0, r1 = nonzero[0], nonzero[-1] + 1
        assert 250 < r0 < 350  # the render's rows above the pattern's far edge are zero
        got, cast = cast_rows(camera_geometry, warp_image, image, h, size)
        v = h.apply([(x, y) for x in (-1.0, size[0]) for y in (r0 - 1.0, r1)])[:, 1]
        assert cast == list(range(int(np.floor(v.min())) - 1, min(int(np.ceil(v.max())) + 2, size[1])))
        assert 250 < len(cast) < 320  # about half of the 576 rows
        want = reference_warp_image(image, h, size)
        assert_same_bytes(got, want)
        assert want[cast[0] : cast[-1] + 1].any() and not want[: cast[0]].any()


# SHA-256 over the renders of the four seed-1 fleet rigs and their virtual
# camera, then the warps of the four renders to the virtual camera, all at
# 256x144 with the benchmark's checkerboard, as the whole-image code made them
# (reference_render_ground_pattern and reference_warp_image).  The warps'
# homographies are the closed form G_dst G_src^-1.
FLEET_SHA256 = "bca6833a8c3a743b4ec2a7cd73b33784dc13fdfacb3d9180473e98c9235743bc"


def test_fleet_front_view_is_pinned():
    size = (256, 144)
    rng = np.random.default_rng([1])
    rigs = [jittered_rig(rng, 2.0, 0.2) for _ in range(4)]
    virtual = scaled_rig(mean_virtual_camera(rigs), size)
    rigs = [scaled_rig(rig, size) for rig in rigs]
    pattern = checkerboard(GridSpec(), square_x=20.0, square_y=4.0, px_per_cell=2)
    renders = [render_ground_pattern(rig, pattern, GridSpec(), size) for rig in rigs + [virtual]]
    warps = [warp_image(img, compute_homography(rig, virtual), size) for rig, img in zip(rigs, renders)]
    digest = hashlib.sha256()
    for arr in renders + warps:
        digest.update(arr.tobytes())
    assert digest.hexdigest() == FLEET_SHA256
