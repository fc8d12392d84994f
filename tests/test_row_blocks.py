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

from lanebev import camera_geometry
from lanebev.camera_geometry import (
    CameraRig,
    Homography,
    Intrinsics,
    bilinear_sample,
    compute_homography,
    mean_virtual_camera,
    warp_image,
)
from lanebev.errors import NonFiniteInput, SingularHomography
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
