import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanebev.camera_geometry import (
    DEFAULT_GROUND_POINTS,
    CameraRig,
    Extrinsics,
    Homography,
    Intrinsics,
    _sample_rows,
    bilinear_operator,
    compute_homography,
    mean_virtual_camera,
    project_ground_point,
    project_ground_points,
    warp_image,
)
from lanebev.errors import (
    DegenerateConfiguration,
    DegenerateDepth,
    EmptyInput,
    MixedImageSizes,
    NonFiniteInput,
    ShapeMismatch,
    SingularHomography,
)
from lanebev.synth import canonical_rig

from conftest import random_rig_pair


def overhead_rig(fx=1000.0, fy=1000.0, cx=512.0, cy=288.0, height=1.5):
    """Identity-rotation rig: optical axis along road z, ground at depth `height`."""
    return CameraRig(
        intrinsics=Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy),
        extrinsics=Extrinsics(rotation=np.eye(3), translation=np.array([0.0, 0.0, height])),
        image_size=(1024, 576),
    )


class TestProjectGroundPoint:
    def test_optical_axis_maps_to_principal_point(self):
        u, v = project_ground_point(overhead_rig(), 0.0, 0.0)
        assert (u, v) == (512.0, 288.0)

    def test_hand_evaluated_off_axis_points(self):
        # K [R|T] (x, y, 0, 1): road x shifts u, road y shifts v under identity rotation
        rig = overhead_rig()
        assert project_ground_point(rig, 0.15, 0.0) == (512.0 + 1000.0 * 0.15 / 1.5, 288.0)
        assert project_ground_point(rig, 0.0, 0.15) == (512.0, 288.0 + 1000.0 * 0.15 / 1.5)

    def test_point_behind_camera_raises(self):
        rig = CameraRig(
            intrinsics=Intrinsics(1000.0, 1000.0, 512.0, 288.0),
            extrinsics=Extrinsics(rotation=np.eye(3), translation=np.array([0.0, 0.0, -1.5])),
            image_size=(1024, 576),
        )
        with pytest.raises(DegenerateDepth):
            project_ground_point(rig, 0.0, 0.0)

    def test_scale_consistency_exact_for_power_of_two(self):
        base = canonical_rig()
        s = 2.0
        scaled = CameraRig(
            intrinsics=Intrinsics(
                fx=base.intrinsics.fx * s,
                fy=base.intrinsics.fy * s,
                cx=base.intrinsics.cx * s,
                cy=base.intrinsics.cy * s,
            ),
            extrinsics=base.extrinsics,
            image_size=base.image_size,
        )
        for x, y in [(7.3, -2.1), (55.0, 8.8), (101.0, 0.33)]:
            u, v = project_ground_point(base, x, y)
            us, vs = project_ground_point(scaled, x, y)
            assert us == s * u and vs == s * v

    def test_vectorized_matches_scalar(self, rng):
        rig, _ = random_rig_pair(1)
        pts = np.column_stack([rng.uniform(5, 100, 16), rng.uniform(-8, 8, 16)])
        batch = project_ground_points(rig, pts)
        for row, (x, y) in zip(batch, pts):
            assert np.allclose(row, project_ground_point(rig, x, y), atol=1e-12)


class TestMeanVirtualCamera:
    def test_singleton_is_identity(self):
        rig = canonical_rig()
        mean = mean_virtual_camera([rig])
        assert np.allclose(mean.extrinsics.rotation, rig.extrinsics.rotation, atol=1e-15)
        assert np.allclose(mean.extrinsics.translation, rig.extrinsics.translation)
        assert mean.intrinsics == rig.intrinsics

    def test_symmetric_rotations_cancel(self):
        theta = 0.3
        c, s = np.cos(theta), np.sin(theta)
        rz_pos = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rz_neg = rz_pos.T
        intr = Intrinsics(800.0, 820.0, 500.0, 300.0)
        t = np.array([0.1, -0.2, 1.4])
        rigs = [
            CameraRig(intr, Extrinsics(rotation=rz_pos, translation=t), (1024, 576)),
            CameraRig(intr, Extrinsics(rotation=rz_neg, translation=t), (1024, 576)),
        ]
        mean = mean_virtual_camera(rigs)
        assert np.allclose(mean.extrinsics.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(mean.extrinsics.translation, t)
        assert mean.intrinsics.fx == 800.0

    def test_projected_mean_is_orthonormal(self):
        rigs = [random_rig_pair(seed)[0] for seed in range(10)]
        rot = mean_virtual_camera(rigs).extrinsics.rotation
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            mean_virtual_camera([])

    def test_mixed_image_sizes(self):
        a = canonical_rig()
        b = CameraRig(a.intrinsics, a.extrinsics, (640, 480))
        with pytest.raises(MixedImageSizes):
            mean_virtual_camera([a, b])


class TestComputeHomography:
    def test_same_camera_gives_identity(self):
        rig = canonical_rig()
        h = compute_homography(rig, rig)
        assert np.abs(h.matrix - np.eye(3)).max() < 1e-10

    def test_intrinsics_only_change(self):
        # at identical pose the ground plane drops out: H = K_dst K_src^-1
        src = canonical_rig()
        dst = CameraRig(
            intrinsics=Intrinsics(1200.0, 900.0, 480.0, 300.0),
            extrinsics=src.extrinsics,
            image_size=src.image_size,
        )
        h = compute_homography(src, dst)
        expected = dst.intrinsics.matrix @ np.linalg.inv(src.intrinsics.matrix)
        expected /= expected[2, 2]
        assert np.abs(h.matrix - expected).max() < 1e-9

    def test_fifth_coplanar_point_consistent(self):
        # independent oracle: project (50, 2, 0) through both cameras directly
        src, dst = random_rig_pair(7)
        h = compute_homography(src, dst)
        u_src = project_ground_points(src, [(50.0, 2.0)])
        u_dst = project_ground_points(dst, [(50.0, 2.0)])
        assert np.abs(h.apply(u_src) - u_dst).max() < 1e-6

    def test_held_out_points_many_rigs(self, rng):
        for seed in range(100):
            src, dst = random_rig_pair(seed)
            h = compute_homography(src, dst)
            pts = np.column_stack([rng.uniform(5.0, 100.0, 20), rng.uniform(-8.0, 8.0, 20)])
            u_src = project_ground_points(src, pts)
            u_dst = project_ground_points(dst, pts)
            assert np.abs(h.apply(u_src) - u_dst).max() < 1e-6

    def test_inverse_composition_is_identity(self):
        for seed in range(20):
            src, dst = random_rig_pair(seed)
            prod = compute_homography(src, dst).matrix @ compute_homography(dst, src).matrix
            prod /= prod[2, 2]
            assert np.abs(prod - np.eye(3)).max() < 1e-8

    def test_matches_a_four_point_dlt_oracle(self):
        # independent oracle: Hartley's normalized DLT through the projections
        # of the road region's four corners, solved by SVD
        def conditioning(p):
            c = p.mean(axis=0)
            s = np.sqrt(2.0) / np.linalg.norm(p - c, axis=1).mean()
            return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])

        for seed in range(100):
            src, dst = random_rig_pair(seed)
            a = project_ground_points(src, DEFAULT_GROUND_POINTS)
            b = project_ground_points(dst, DEFAULT_GROUND_POINTS)
            ta, tb = conditioning(a), conditioning(b)
            rows = []
            for (x, y), (u, v) in zip(a @ ta[:2, :2].T + ta[:2, 2], b @ tb[:2, :2].T + tb[:2, 2]):
                rows.append([-x, -y, -1.0, 0.0, 0.0, 0.0, u * x, u * y, u])
                rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v])
            oracle = np.linalg.inv(tb) @ np.linalg.svd(np.array(rows))[2][-1].reshape(3, 3) @ ta
            oracle /= oracle[2, 2]
            h = compute_homography(src, dst).matrix
            assert np.abs(h - oracle).max() <= 1e-10 * np.abs(oracle).max()

    def test_homographies_chain_through_a_third_rig(self):
        # H(a -> c) = H(b -> c) H(a -> b), up to scale, for any middle rig b
        for seed in range(20):
            a, b = random_rig_pair(seed)
            c = random_rig_pair(seed + 100)[0]
            chained = compute_homography(b, c).matrix @ compute_homography(a, b).matrix
            chained /= chained[2, 2]
            direct = compute_homography(a, c).matrix
            assert np.abs(chained - direct).max() <= 1e-10 * np.abs(direct).max()

    @pytest.mark.parametrize("which", ["src", "dst"])
    def test_backward_facing_rig_raises_degenerate_depth(self, which):
        # turned 180 degrees about the vertical: the default road region lies behind it
        rig = canonical_rig()
        rot = np.diag([-1.0, 1.0, -1.0]) @ rig.extrinsics.rotation
        back = CameraRig(rig.intrinsics, Extrinsics(rot, -rot @ rig.extrinsics.camera_center), rig.image_size)
        pair = (back, rig) if which == "src" else (rig, back)
        with pytest.raises(DegenerateDepth, match=r"ground point \(103.0, -5.0\) has depth -103"):
            compute_homography(*pair)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("height", [0.0, 1e-12, 1e-9])
    @pytest.mark.parametrize("which", ["src", "dst"])
    def test_camera_on_the_ground_plane_raises_naming_the_rig(self, height, which):
        rig = canonical_rig()
        rot = rig.extrinsics.rotation
        low = CameraRig(rig.intrinsics, Extrinsics(rot, -rot @ np.array([0.0, 0.0, height])), rig.image_size)
        assert low.extrinsics.camera_center[2] == height
        pair = (low, rig) if which == "src" else (rig, low)
        with pytest.raises(DegenerateConfiguration, match=which):
            compute_homography(*pair)

    @pytest.mark.filterwarnings("error")
    def test_uninvertible_src_ground_map_is_refused(self):
        # the least normal focal length still leaves G_src with an exact zero pivot
        rig = canonical_rig()
        tiny = CameraRig(Intrinsics(TINY, TINY, 512.0, 288.0), rig.extrinsics, rig.image_size)
        with pytest.raises(DegenerateConfiguration, match="src ground map G cannot be inverted"):
            compute_homography(tiny, rig)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rig, which, message",
        [
            ("huge focal", "src", "singular"),
            ("far above", "src", "singular"),
            ("tiny focal", "dst", "singular"),
            ("tiny focal", "src", "cannot be inverted"),
        ],
    )
    def test_extreme_rig_is_refused_as_degenerate(self, rig, which, message):
        # whichever overflow or underflow comes first, the class is one
        extreme = extreme_rigs()[rig]
        pair = (extreme, canonical_rig()) if which == "src" else (canonical_rig(), extreme)
        with pytest.raises(DegenerateConfiguration, match=message):
            compute_homography(*pair)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rig", ["huge focal", "far above"])
    def test_extreme_dst_rig_gives_a_finite_homography(self, rig):
        h = compute_homography(canonical_rig(), extreme_rigs()[rig]).matrix
        assert np.isfinite(h).all() and h[2, 2] == 1.0


TINY = np.finfo(float).tiny


def extreme_rigs():
    """Finite rigs at the edges of the float range, by name."""
    rig = canonical_rig()
    rot = rig.extrinsics.rotation
    return {
        "huge focal": CameraRig(Intrinsics(1e308, 1e308, 0.0, 0.0), rig.extrinsics, rig.image_size),
        "far above": CameraRig(rig.intrinsics, Extrinsics(rot, -rot @ np.array([0.0, 0.0, 1e300])), rig.image_size),
        "tiny focal": CameraRig(Intrinsics(TINY, TINY, 512.0, 288.0), rig.extrinsics, rig.image_size),
    }


def checkerboard_image(h=128, w=160, square=16):
    yy, xx = np.meshgrid(np.arange(h) // square, np.arange(w) // square, indexing="ij")
    return ((yy + xx) % 2).astype(float)


def detect_corners(img, expected, window=4):
    """Subpixel checkerboard corner positions near the expected (u, v) points."""
    resp = np.abs(img[:-1, :-1] - img[:-1, 1:] - img[1:, :-1] + img[1:, 1:])
    found = []
    for u, v in expected:
        r0, c0 = int(round(v)), int(round(u))
        patch = resp[r0 - window : r0 + window, c0 - window : c0 + window]
        dr, dc = np.unravel_index(np.argmax(patch), patch.shape)
        rr, cc = r0 - window + dr, c0 - window + dc
        local = resp[rr - 1 : rr + 2, cc - 1 : cc + 2] ** 2
        wsum = local.sum()
        gy, gx = np.mgrid[-1:2, -1:2]
        # response cell (r, c) straddles pixels (r..r+1, c..c+1): center at +0.5
        found.append(
            (
                cc + (local * gx).sum() / wsum + 0.5,
                rr + (local * gy).sum() / wsum + 0.5,
            )
        )
    return np.asarray(found)


class TestWarpImage:
    def test_identity_is_exact(self, rng):
        img = rng.random((40, 60))
        assert np.array_equal(warp_image(img, Homography(np.eye(3)), (60, 40)), img)

    def test_integer_translation_is_exact_copy(self, rng):
        img = rng.random((40, 60))
        t = np.eye(3)
        t[0, 2] = 10.0
        out = warp_image(img, Homography(t), (60, 40))
        assert np.array_equal(out[:, 10:], img[:, :50])
        assert np.all(out[:, :10] == 0.0)

    def test_roundtrip_corner_tracking(self):
        img = checkerboard_image()
        h = Homography(
            np.array(
                [
                    [1.01, 0.02, 3.0],
                    [0.01, 0.99, -2.0],
                    [1e-4, 5e-5, 1.0],
                ]
            )
        )
        twice = warp_image(warp_image(img, h, (160, 128)), h.inverse(), (160, 128))
        corners = [(u, v) for u in (48.0, 64.0, 80.0, 96.0) for v in (48.0, 64.0, 80.0)]
        orig = detect_corners(img, corners)
        back = detect_corners(twice, corners)
        assert np.abs(orig - back).max() < 0.5

    def test_multichannel(self, rng):
        img = rng.random((30, 20, 3))
        out = warp_image(img, Homography(np.eye(3)), (20, 30))
        assert out.shape == (30, 20, 3)
        assert np.array_equal(out, img)

    def test_horizon_in_view_gives_zero(self, rng):
        # H^-1 has third row (0, -1, 1), so w = 1 - v vanishes on output
        # row 1 and the source coordinate there is inf (or 0/0 at u = 0)
        h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, -10.0]]))
        assert np.array_equal(np.linalg.inv(h.matrix)[2], [0.0, -1.0, 1.0])
        out = warp_image(1.0 + rng.random((40, 60)), h, (60, 40))
        assert np.all(out[1] == 0.0)
        assert np.all(np.isfinite(out))
        assert np.any(out[0] > 0.0)

    def test_singular_homography_rejected(self):
        with pytest.raises(SingularHomography):
            Homography(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(SingularHomography):
            Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))


def sample_points(img, sx, sy):
    """The row-block kernel _sample_rows run with every point (sx, sy) as one
    output row; the result has the shape of sx followed by the image's
    channel axis, if any."""
    px, py = np.ravel(sx), np.ravel(sy)

    def coords(v):
        points = slice(int(v[0]), int(v[0]) + len(v))
        return px[points], py[points]

    out = _sample_rows(img, (px.size, 1), coords)
    return out.reshape(np.shape(sx) + out.shape[2:])


def operator_product(img, sx, sy):
    """bilinear_operator(sx, sy, (H, W)) @ img, shaped like sample_points' result."""
    img = np.asarray(img, dtype=float)
    op = bilinear_operator(sx, sy, img.shape[:2])
    return (op @ img.reshape(op.shape[1], -1)).reshape(np.shape(sx) + img.shape[2:])


def assert_same_bytes(img, sx, sy):
    got = sample_points(img, sx, sy)
    want = operator_product(img, sx, sy)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()  # the CSR sum starts at +0.0
    return got


SPECIAL = [np.nan, np.inf, -np.inf, 1e300, -1e300]


class TestBilinearSampler:
    @pytest.mark.parametrize("kind", ["gray", "rgb", "negative", "signed_zero"])
    def test_matches_operator_product_bytes(self, rng, kind):
        h, w = 37, 53
        img = {
            "gray": lambda: rng.random((h, w)),
            "rgb": lambda: rng.random((h, w, 3)),
            "negative": lambda: -rng.random((h, w)) - 1e-3,
            "signed_zero": lambda: rng.choice([-0.0, 0.0, -1.0, 0.5], size=(h, w, 2)),
        }[kind]()
        # 150 x 120 points run the sampler over more than one block
        sx = rng.uniform(-3.0, w + 2.0, (150, 120))
        sy = rng.uniform(-3.0, h + 2.0, (150, 120))
        sx[::7] = np.round(sx[::7])
        sy[::5] = np.round(sy[::5])
        assert_same_bytes(img, sx, sy)

    def test_border_far_and_non_finite_points(self, rng):
        h, w = 6, 9
        img = rng.random((h, w)) - 0.5
        xs = np.array([-1.5, -1.0, -0.5, 0.0, w - 1.0, w - 0.5, float(w), w - 1e-9] + SPECIAL)
        ys = np.array([-1.5, -1.0, -0.5, 0.0, h - 1.0, h - 0.5, float(h), h - 1e-9] + SPECIAL)
        sx, sy = np.meshgrid(xs, ys)
        out = assert_same_bytes(img, sx, sy)
        finite = np.isfinite(sx) & np.isfinite(sy) & (np.abs(sx) < 1e300) & (np.abs(sy) < 1e300)
        assert np.all(out[~finite] == 0.0)
        # floor -1 reaches the first pixel and floor W-1 the last one; floors -2 and W reach none
        assert out[3, 3] == img[0, 0] and out[3, 2] == 0.5 * img[0, 0] and out[2, 2] == 0.25 * img[0, 0]
        assert out[4, 4] == img[h - 1, w - 1] and out[5, 5] == 0.25 * img[h - 1, w - 1]
        assert out[0, 0] == 0.0 and out[6, 6] == 0.0

    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        channels=st.sampled_from([(), (1,), (2,)]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_operator_product(self, shape, channels, data):
        h, w = shape
        size = h * w * int(np.prod(channels))
        img = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size)))
        n = data.draw(st.integers(1, 12))
        coord = lambda hi: st.floats(-3.0, hi + 2.0) | st.sampled_from(SPECIAL)  # noqa: E731
        sx = np.array(data.draw(st.lists(coord(w), min_size=n, max_size=n)))
        sy = np.array(data.draw(st.lists(coord(h), min_size=n, max_size=n)))
        assert_same_bytes(img.reshape(shape + channels), sx, sy)

    def test_hand_computed_operator(self):
        # (0.25, 0.5) interior; (2.5, 1) has its right neighbours outside;
        # (-0.5, -0.5) keeps only pixel (0, 0); NaN keeps nothing; (1, 1) is a node
        sx = np.array([0.25, 2.5, -0.5, np.nan, 1.0])
        sy = np.array([0.5, 1.0, -0.5, 1.0, 1.0])
        op = bilinear_operator(sx, sy, (3, 3))
        assert op.shape == (5, 9)
        assert op.indptr.tolist() == [0, 4, 6, 7, 7, 11]
        assert op.indices.tolist() == [0, 1, 3, 4, 5, 8, 0, 4, 5, 7, 8]
        assert op.data.tolist() == [0.375, 0.125, 0.375, 0.125, 0.5, 0.0, 0.25, 1.0, 0.0, 0.0, 0.0]
        out = assert_same_bytes(np.arange(9.0).reshape(3, 3), sx, sy)
        assert out.tolist() == [1.75, 2.5, 0.0, 0.0, 4.0]

    def test_rejects_non_image(self):
        with pytest.raises(ShapeMismatch, match="image must be 2-D or 3-D"):
            sample_points(np.zeros(4), np.zeros(2), np.zeros(2))


class TestTypes:
    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0)

    @pytest.mark.parametrize("focal", [0.0, -0.0, 5e-324, TINY / 2, -TINY])
    @pytest.mark.parametrize("field", ["fx", "fy"])
    def test_subnormal_focal_length_is_refused_naming_the_field(self, field, focal):
        # a subnormal focal length projects every ground point to (cx, cy)
        with pytest.raises(ValueError, match=f"^{field} must be a positive normal float"):
            Intrinsics(**{"fx": 1.0, "fy": 1.0, field: focal}, cx=512.0, cy=288.0)
        assert getattr(Intrinsics(**{"fx": 1.0, "fy": 1.0, field: TINY}, cx=512.0, cy=288.0), field) == TINY

    def test_extrinsics_validation(self):
        with pytest.raises(ValueError):
            Extrinsics(rotation=np.eye(3) * 1.001, translation=np.zeros(3))
        with pytest.raises(ValueError):
            # orthonormal but det -1
            Extrinsics(rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3))

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: Intrinsics(fx=np.nan, fy=1.0, cx=0.0, cy=0.0), "fx"),
            (lambda: Intrinsics(fx=1.0, fy=np.inf, cx=0.0, cy=0.0), "fy"),
            (lambda: Intrinsics(fx=1.0, fy=1.0, cx=np.nan, cy=0.0), "cx"),
            (lambda: Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=np.inf), "cy"),
            (lambda: Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, skew=-np.inf), "skew"),
            (lambda: Extrinsics(rotation=np.full((3, 3), np.nan), translation=np.zeros(3)), "rotation"),
            (lambda: Extrinsics(rotation=np.eye(3), translation=[0.0, np.nan, 0.0]), "translation"),
            (lambda: Homography(np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])), "matrix"),
            (lambda: Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.inf]])), "matrix"),
        ],
    )
    def test_non_finite_field_rejected(self, build, field):
        with pytest.raises(NonFiniteInput, match=field):
            build()

    @pytest.mark.filterwarnings("error")
    def test_homography_maps_a_point_at_infinity_without_warning(self):
        h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
        with np.errstate(all="warn"):
            out = h.apply([(-1.0, 0.0), (-1.0, 2.0), (1.0, 2.0)])
        assert np.isneginf(out[0, 0]) and np.isnan(out[0, 1])
        assert np.isneginf(out[1, 0]) and np.isposinf(out[1, 1])
        assert out[2].tolist() == [0.5, 1.0]

    def test_homography_normalized(self):
        h = Homography(2.0 * np.eye(3))
        assert h.matrix[2, 2] == 1.0

    def test_rig_image_size_validation(self):
        with pytest.raises(ValueError):
            CameraRig(
                intrinsics=Intrinsics(1.0, 1.0, 0.0, 0.0),
                extrinsics=Extrinsics(rotation=np.eye(3), translation=np.zeros(3)),
                image_size=(0, 10),
            )
