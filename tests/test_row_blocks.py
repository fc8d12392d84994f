"""Render and warp, one row block at a time, against their whole-image forms.

`reference_warp_image` and `reference_render_ground_pattern` are the
whole-image versions that built every coordinate array at the output's
size before sampling.  The row-block versions must give the same bytes for
any block size, output size, horizon and channel count, and the fleet pin
below holds their SHA-256 as the whole-image versions computed it.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from lanebev import camera_geometry, synth
from lanebev.camera_geometry import (
    CameraRig,
    Homography,
    Intrinsics,
    bilinear_sample,
    compute_homography,
    mean_virtual_camera,
    project_ground_points,
    warp_image,
)
from lanebev.errors import DegenerateDepth, NonFiniteInput, SingularHomography
from lanebev.lane_grid import GridSpec
from lanebev.synth import canonical_rig, checkerboard, jittered_rig, render_ground_pattern


def reference_warp_image(image, h, out_size):
    out_w, out_h = out_size
    hinv = np.linalg.inv(h.matrix)
    uu, vv = np.meshgrid(np.arange(out_w, dtype=float), np.arange(out_h, dtype=float))
    w = hinv[2, 0] * uu + hinv[2, 1] * vv + hinv[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        sx = (hinv[0, 0] * uu + hinv[0, 1] * vv + hinv[0, 2]) / w
        sy = (hinv[1, 0] * uu + hinv[1, 1] * vv + hinv[1, 2]) / w
    return bilinear_sample(image, sx, sy)


def reference_render_ground_pattern(rig, pattern, spec=GridSpec(), out_size=None):
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
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -center[2] / dz
    valid = np.isfinite(t) & (t > 1e-9)
    t = np.where(valid, t, np.nan)
    gx = center[0] + t * d_road[:, :, 0]
    gy = center[1] + t * d_road[:, :, 1]
    rows_p, cols_p = pat.shape[:2]
    ix = (gx - spec.x_min) / (spec.x_max - spec.x_min) * rows_p - 0.5
    iy = (gy - spec.y_min) / (spec.y_max - spec.y_min) * cols_p - 0.5
    return bilinear_sample(pat, iy, ix)


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

    @pytest.mark.parametrize("out_size", [(-1, 5), (5, -1), (4.0, 3)])
    def test_bad_output_size_is_refused(self, out_size):
        with pytest.raises(ValueError, match="non-negative integers"):
            render_ground_pattern(canonical_rig(), np.ones((5, 4)), GridSpec(), out_size)
        with pytest.raises(ValueError, match="non-negative integers"):
            warp_image(np.ones((5, 4)), Homography(), out_size)


def render_cast_rows(rig, pattern, spec, out_size):
    """The render, and the output rows whose rays it cast, in call order."""
    cast = []
    sample_rows = synth._sample_rows

    def spy(img, out_hw, coords, *args):
        def spied_coords(v):
            cast.extend(int(r) for r in v)
            return coords(v)

        return sample_rows(img, out_hw, spied_coords, *args)

    with mock.patch.object(synth, "_sample_rows", spy):
        return render_ground_pattern(rig, pattern, spec, out_size), cast


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

    @given(
        block=BLOCKS,
        out_size=st.tuples(st.integers(0, 48), st.integers(0, 29)),
        horizon=st.floats(-5.0, 40.0),
        jitter=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 0.5)),
        pattern_shape=st.tuples(st.integers(20, 400), st.integers(1, 40)),
        channels=CHANNELS,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_culled_rows_match_whole_image_render(self, block, out_size, horizon, jitter, pattern_shape, channels, seed):
        # Patterns of 20 rows or more put the widened near edge at x >= 0.5 m,
        # in front of the camera for most draws, so mostly only the
        # footprint's rows are cast.
        rng = np.random.default_rng(seed)
        rig = scaled_rig(jittered_rig(rng, *jitter), (max(out_size[0], 1), max(out_size[1], 1)), cy=horizon)
        pattern = rng.normal(size=pattern_shape + channels)
        with mock.patch.object(camera_geometry, "_SAMPLE_BLOCK", block):
            got = render_ground_pattern(rig, pattern, GridSpec(), out_size)
        assert_same_bytes(got, reference_render_ground_pattern(rig, pattern, GridSpec(), out_size))


# SHA-256 over the renders of the four seed-1 fleet rigs and their virtual
# camera, then the warps of the four renders to the virtual camera, all at
# 256x144 with the benchmark's checkerboard, as the whole-image code made them.
FLEET_SHA256 = "ec2048ae6e8ee28e753ee6b9da300e86dbde8c262ac8ac1b7745a10776ad9a63"


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
