import hashlib
from unittest import mock

import numpy as np
import pytest
from scipy import sparse

from lanebev import view_transform
from lanebev.camera_geometry import mean_virtual_camera
from lanebev.errors import InsufficientRank, NonFiniteInput, ShapeMismatch
from lanebev.lane_grid import GridSpec
from lanebev.synth import canonical_rig, jittered_rig, render_ground_pattern
from lanebev.view_transform import (
    FeatureTensor,
    PyramidSpec,
    ViewRelationMap,
    apply_pyramid,
    apply_vrm,
    build_ipm_sampling_map,
    fit_vrm_least_squares,
)


class TestBuildIpmSamplingMap:
    def test_exact_node_projection_single_unit_weight(self):
        # canonical rig: ground (50, -4) projects to exactly (592, 318):
        # u = 512 + 1000*4/50, v = 288 + 1000*1.5/50, both dyadic-exact
        rig = canonical_rig()
        bev_spec = GridSpec(x_min=49.0, x_max=51.0, y_min=-5.0, y_max=-3.0, cell=0.5)
        vrm = build_ipm_sampling_map(rig, fv_shape=(576, 1024), scale=1, bev_spec=bev_spec, bev_shape=(1, 1))
        row = vrm.matrix.toarray()[0]
        nz = np.nonzero(row)[0]
        assert len(nz) == 1
        assert row[nz[0]] == 1.0
        assert nz[0] == 318 * 1024 + 592

    def test_cell_behind_camera_gives_zero_row(self):
        rig = canonical_rig()
        bev_spec = GridSpec(x_min=-11.0, x_max=-9.0, y_min=-1.0, y_max=1.0, cell=0.5)
        vrm = build_ipm_sampling_map(rig, fv_shape=(18, 32), scale=32, bev_spec=bev_spec, bev_shape=(2, 2))
        assert np.all(vrm.matrix.toarray() == 0.0)

    def test_rows_partition_unity_or_vanish(self):
        vrm = build_ipm_sampling_map(canonical_rig(), fv_shape=(18, 32), scale=32, bev_shape=(50, 10))
        sums = vrm.matrix.sum(axis=1)
        nonzero = sums > 0
        assert nonzero.any()
        assert np.abs(sums[nonzero] - 1.0).max() < 1e-12
        assert np.all(vrm.matrix.toarray() >= 0.0)

    def test_map_is_sparse_with_at_most_four_weights_per_row(self):
        vrm = build_ipm_sampling_map(canonical_rig(), fv_shape=(72, 128), scale=8, bev_shape=(200, 40))
        assert sparse.issparse(vrm.matrix) and vrm.matrix.format == "csr"
        assert np.diff(vrm.matrix.indptr).max() <= 4
        assert vrm.matrix.nnz > 0


class TestApplyVrm:
    def test_identity_map(self, rng):
        n = 12
        vrm = ViewRelationMap(matrix=np.eye(n), fv_shape=(3, 4), bev_shape=(4, 3))
        fv = FeatureTensor(rng.random((3, 4, 2)), scale=32)
        out = apply_vrm(vrm, fv)
        assert np.array_equal(out.data.reshape(n, 2), fv.data.reshape(n, 2))

    def test_zero_map(self, rng):
        vrm = ViewRelationMap(matrix=np.zeros((6, 12)), fv_shape=(3, 4), bev_shape=(2, 3))
        out = apply_vrm(vrm, FeatureTensor(rng.random((3, 4, 5)), scale=32))
        assert np.all(out.data == 0.0)

    def test_channels_processed_independently(self, rng):
        # no cross-channel mixing (bit-level equality is not promised across
        # differently-batched BLAS calls, hence the tiny tolerance)
        vrm = ViewRelationMap(matrix=rng.random((6, 12)), fv_shape=(3, 4), bev_shape=(2, 3))
        fv = rng.random((3, 4, 3))
        full = apply_vrm(vrm, FeatureTensor(fv, scale=32)).data
        for c in range(3):
            single = apply_vrm(vrm, FeatureTensor(fv[:, :, c : c + 1], scale=32)).data
            assert np.allclose(full[:, :, c], single[:, :, 0], rtol=0, atol=1e-12)

    def test_shape_mismatch(self, rng):
        vrm = ViewRelationMap(matrix=np.zeros((6, 12)), fv_shape=(3, 4), bev_shape=(2, 3))
        with pytest.raises(ShapeMismatch):
            apply_vrm(vrm, FeatureTensor(rng.random((4, 3, 1)), scale=32))

    def test_linearity(self, rng):
        vrm = ViewRelationMap(matrix=rng.random((8, 12)), fv_shape=(3, 4), bev_shape=(2, 4))
        f = rng.random((3, 4, 2))
        g = rng.random((3, 4, 2))
        lhs = apply_vrm(vrm, FeatureTensor(1.7 * f - 0.3 * g, scale=32)).data
        rhs = 1.7 * apply_vrm(vrm, FeatureTensor(f, scale=32)).data - 0.3 * apply_vrm(vrm, FeatureTensor(g, scale=32)).data
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_ipm_output_correlates_with_source_pattern(self):
        # oracle: render a smooth pattern to the image, pool to features
        # centered on the map's sampling nodes, push through the map and
        # correlate with the pattern over the covered near field
        rig = canonical_rig()
        full_spec = GridSpec()
        fx = full_spec.x_min + (np.arange(400) + 0.5) * 0.25
        fy = full_spec.y_min + (np.arange(80) + 0.5) * 0.25
        full_pat = 0.5 + 0.4 * np.sin(2 * np.pi * fx[:, None] / 30.0) * np.cos(2 * np.pi * fy[None, :] / 13.0)
        img = render_ground_pattern(rig, full_pat, full_spec, (1024, 576))

        scale = 8
        fh, fw = 576 // scale, 1024 // scale
        half = scale // 2
        feat = np.zeros((fh, fw))
        for i in range(fh):
            for j in range(fw):
                feat[i, j] = img[max(0, i * scale - half) : i * scale + half, max(0, j * scale - half) : j * scale + half].mean()

        bev_spec = GridSpec(x_min=3.0, x_max=33.0, y_min=-10.0, y_max=10.0, cell=0.5)
        s1p, s2p = 50, 10
        vrm = build_ipm_sampling_map(rig, (fh, fw), scale, bev_spec, (s1p, s2p))
        out = apply_vrm(vrm, FeatureTensor(feat[:, :, None], scale=scale)).data[:, :, 0]

        xs = bev_spec.x_min + (np.arange(s1p) + 0.5) * (bev_spec.x_max - bev_spec.x_min) / s1p
        ys = bev_spec.y_min + (np.arange(s2p) + 0.5) * (bev_spec.y_max - bev_spec.y_min) / s2p
        pat = 0.5 + 0.4 * np.sin(2 * np.pi * xs[:, None] / 30.0) * np.cos(2 * np.pi * ys[None, :] / 13.0)

        cover = vrm.matrix.sum(axis=1).reshape(s1p, s2p) > 0.5
        a = out[cover] - out[cover].mean()
        b = pat[cover] - pat[cover].mean()
        ncc = float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))
        assert ncc > 0.9


class TestApplyPyramid:
    def _map(self, rng, n_bev, n_fv, fv_shape, bev_shape):
        return ViewRelationMap(matrix=rng.random((n_bev, n_fv)), fv_shape=fv_shape, bev_shape=bev_shape)

    def test_single_scale_equals_apply_vrm(self, rng):
        vrm = self._map(rng, 6, 12, (3, 4), (2, 3))
        fv = FeatureTensor(rng.random((3, 4, 2)), scale=32)
        spec = PyramidSpec(scales=(32,), bev_shape=(2, 3))
        out = apply_pyramid({32: vrm}, {32: fv}, spec)
        assert np.array_equal(out.data, apply_vrm(vrm, fv).data)

    def test_concatenation_order(self, rng):
        m32 = self._map(rng, 6, 12, (3, 4), (2, 3))
        m64 = self._map(rng, 6, 6, (2, 3), (2, 3))
        f32 = FeatureTensor(rng.random((3, 4, 2)), scale=32)
        f64 = FeatureTensor(rng.random((2, 3, 2)), scale=64)
        out = apply_pyramid({32: m32, 64: m64}, {32: f32, 64: f64}, PyramidSpec(scales=(32, 64), bev_shape=(2, 3)))
        assert out.data.shape == (2, 3, 4)
        assert np.array_equal(out.data[:, :, :2], apply_vrm(m32, f32).data)
        assert np.array_equal(out.data[:, :, 2:], apply_vrm(m64, f64).data)

    def test_pyramid_linearity(self, rng):
        m32 = self._map(rng, 6, 12, (3, 4), (2, 3))
        m64 = self._map(rng, 6, 6, (2, 3), (2, 3))
        spec = PyramidSpec(scales=(32, 64), bev_shape=(2, 3))

        def run(a32, a64):
            return apply_pyramid(
                {32: m32, 64: m64},
                {32: FeatureTensor(a32, scale=32), 64: FeatureTensor(a64, scale=64)},
                spec,
            ).data

        a32, b32 = rng.random((2, 3, 4, 2))
        a64, b64 = rng.random((2, 2, 3, 2))
        lhs = run(2.0 * a32 + 3.0 * b32, 2.0 * a64 + 3.0 * b64)
        rhs = 2.0 * run(a32, a64) + 3.0 * run(b32, b64)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_sparse_ipm_and_dense_fitted_maps_match_all_dense(self, rng):
        spec = PyramidSpec(scales=(32, 64), bev_shape=(50, 10))
        ipm = build_ipm_sampling_map(canonical_rig(), fv_shape=(18, 32), scale=32, bev_shape=(50, 10))
        fitted = self._map(rng, 500, 9 * 16, (9, 16), (50, 10))
        features = {32: FeatureTensor(rng.random((18, 32, 3)), scale=32), 64: FeatureTensor(rng.random((9, 16, 3)), scale=64)}
        dense_ipm = ViewRelationMap(matrix=ipm.matrix.toarray(), fv_shape=ipm.fv_shape, bev_shape=ipm.bev_shape)
        mixed = apply_pyramid({32: ipm, 64: fitted}, features, spec).data
        dense = apply_pyramid({32: dense_ipm, 64: fitted}, features, spec).data
        assert np.abs(mixed - dense).max() < 1e-12

    def test_missing_scale(self, rng):
        m32 = self._map(rng, 6, 12, (3, 4), (2, 3))
        with pytest.raises(ShapeMismatch):
            apply_pyramid({32: m32}, {32: FeatureTensor(rng.random((3, 4, 1)), scale=32)}, PyramidSpec(scales=(32, 64), bev_shape=(2, 3)))


# The benchmark's IPM pyramid: scales 8, 16 and 32 of a 1024x576 view of the
# seed-1 fleet's virtual camera, mapped to the 200x40 grid.
IPM_SPEC = PyramidSpec(scales=(8, 16, 32), bev_shape=GridSpec().shape)
# SHA-256 over apply_pyramid's output on that pyramid for C = 64, then C = 1,
# with the features of ipm_features, as the per-scale products made it.
IPM_PYRAMID_SHA256 = "3edcc13ee6d558b15103ee34d4a9890d2abb3f7bfc413ffbbc861656764c2343"


@pytest.fixture(scope="module")
def ipm_maps():
    rng = np.random.default_rng([1])
    virtual = mean_virtual_camera([jittered_rig(rng, 2.0, 0.2) for _ in range(4)])
    return {
        s: build_ipm_sampling_map(virtual, (576 // s, 1024 // s), s, GridSpec(), IPM_SPEC.bev_shape)
        for s in IPM_SPEC.scales
    }


def ipm_features(channels: int) -> dict[int, FeatureTensor]:
    rng = np.random.default_rng([channels])
    return {s: FeatureTensor(rng.random((576 // s, 1024 // s, channels)), scale=s) for s in IPM_SPEC.scales}


def channel_slices(out: np.ndarray, channels: list[int]) -> list[np.ndarray]:
    return np.split(out, np.cumsum(channels)[:-1], axis=2)


def descending_csr(rng, n_bev: int, fv_shape: tuple[int, int]) -> sparse.csr_array:
    """A map whose rows store their columns in descending order, with
    weights 1e16, 1 and -1e16 (times a random factor): their sum depends on
    the order of the adds."""
    n_fv = fv_shape[0] * fv_shape[1]
    cols = np.stack([np.sort(rng.choice(n_fv, 3, replace=False))[::-1] for _ in range(n_bev)])
    data = np.tile([1e16, 1.0, -1e16], (n_bev, 1)) * rng.uniform(0.5, 2.0, (n_bev, 1))
    return sparse.csr_array((data.ravel(), cols.ravel(), np.arange(0, 3 * n_bev + 1, 3)), shape=(n_bev, n_fv))


class TestInterleavedPyramid:
    @pytest.mark.parametrize("channels", [64, 1])
    def test_ipm_channel_slices_equal_apply_vrm(self, ipm_maps, channels):
        features = ipm_features(channels)
        with mock.patch.object(
            view_transform, "_interleaved_operator", wraps=view_transform._interleaved_operator
        ) as interleave:
            out = apply_pyramid(ipm_maps, features, IPM_SPEC).data
        assert interleave.call_count == 1
        assert out.shape == IPM_SPEC.bev_shape + (3 * channels,) and out.flags.c_contiguous
        for s, got in zip(IPM_SPEC.scales, channel_slices(out, [channels] * 3)):
            assert np.array_equal(got, apply_vrm(ipm_maps[s], features[s]).data)

    def test_ipm_pyramid_is_pinned(self, ipm_maps):
        digest = hashlib.sha256()
        for channels in (64, 1):
            digest.update(apply_pyramid(ipm_maps, ipm_features(channels), IPM_SPEC).data.tobytes())
        assert digest.hexdigest() == IPM_PYRAMID_SHA256

    def test_rows_add_in_their_stored_order(self, rng):
        shapes = {8: (6, 5), 16: (3, 4), 32: (2, 2)}
        maps = {s: ViewRelationMap(descending_csr(rng, 12, hw), hw, (4, 3)) for s, hw in shapes.items()}
        features = {s: FeatureTensor(rng.uniform(0.5, 2.0, hw + (3,)), scale=s) for s, hw in shapes.items()}
        spec = PyramidSpec(scales=(8, 16, 32), bev_shape=(4, 3))
        out = apply_pyramid(maps, features, spec).data
        for s, got in zip(spec.scales, channel_slices(out, [3] * 3)):
            assert not maps[s].matrix.has_sorted_indices
            want = apply_vrm(maps[s], features[s]).data
            assert np.array_equal(got, want)
            ascending = ViewRelationMap(maps[s].matrix.sorted_indices(), shapes[s], (4, 3))
            assert not np.array_equal(apply_vrm(ascending, features[s]).data, want)  # the order shows

    @pytest.mark.parametrize("dense", [False, True])
    def test_wrong_feature_shape_raises_before_any_product(self, ipm_maps, dense):
        maps = ipm_maps
        if dense:
            maps = {s: ViewRelationMap(m.matrix.toarray(), m.fv_shape, m.bev_shape) for s, m in ipm_maps.items()}
        features = ipm_features(1)
        features[32] = FeatureTensor(np.ones((18, 31, 1)), scale=32)
        with (
            mock.patch.object(view_transform, "_interleaved_operator", side_effect=AssertionError),
            mock.patch.object(view_transform, "apply_vrm", side_effect=AssertionError),
        ):
            with pytest.raises(ShapeMismatch, match="scale 32"):
                apply_pyramid(maps, features, IPM_SPEC)

    def test_csc_map_takes_the_per_scale_path(self, ipm_maps):
        maps = dict(ipm_maps)
        maps[16] = ViewRelationMap(ipm_maps[16].matrix.tocsc(), ipm_maps[16].fv_shape, ipm_maps[16].bev_shape)
        features = ipm_features(4)
        with mock.patch.object(view_transform, "_interleaved_operator", side_effect=AssertionError):
            out = apply_pyramid(maps, features, IPM_SPEC).data
        for s, got in zip(IPM_SPEC.scales, channel_slices(out, [4] * 3)):
            assert np.array_equal(got, apply_vrm(maps[s], features[s]).data)

    def test_unequal_channel_counts_take_the_per_scale_path(self, ipm_maps):
        features = ipm_features(3)
        features[16] = FeatureTensor(np.random.default_rng([2]).random((36, 64, 5)), scale=16)
        with mock.patch.object(view_transform, "_interleaved_operator", side_effect=AssertionError):
            out = apply_pyramid(ipm_maps, features, IPM_SPEC).data
        assert out.shape == IPM_SPEC.bev_shape + (11,)
        for s, got in zip(IPM_SPEC.scales, channel_slices(out, [3, 5, 3])):
            assert np.array_equal(got, apply_vrm(ipm_maps[s], features[s]).data)


class TestFitVrm:
    def test_exact_recovery_of_known_operator(self, rng):
        m0 = rng.normal(size=(10, 12))
        samples = []
        for _ in range(4):  # 4 samples x 5 channels = 20 pairs >= 12
            x = rng.normal(size=(3, 4, 5))
            y = (m0 @ x.reshape(-1, 5)).reshape(5, 2, 5)
            samples.append((FeatureTensor(x, scale=32), FeatureTensor(y, scale=32)))
        fit = fit_vrm_least_squares(samples, ridge=0.0)
        assert np.linalg.norm(fit.matrix - m0) / np.linalg.norm(m0) < 1e-8

    def test_zero_targets_with_ridge_give_zero_map(self, rng):
        samples = [
            (FeatureTensor(rng.normal(size=(3, 4, 2)), scale=32), FeatureTensor(np.zeros((2, 3, 2)), scale=32))
            for _ in range(3)
        ]
        fit = fit_vrm_least_squares(samples, ridge=1e-6)
        assert np.all(fit.matrix == 0.0)

    def test_underdetermined_without_ridge_raises(self, rng):
        samples = [(FeatureTensor(rng.normal(size=(3, 4, 2)), scale=32), FeatureTensor(rng.normal(size=(2, 3, 2)), scale=32))]
        with pytest.raises(InsufficientRank):
            fit_vrm_least_squares(samples, ridge=0.0)

    def test_rank_deficient_design_raises(self, rng):
        x = rng.normal(size=(3, 4, 1))
        samples = [(FeatureTensor(x, scale=32), FeatureTensor(rng.normal(size=(2, 3, 1)), scale=32)) for _ in range(20)]
        with pytest.raises(InsufficientRank):
            fit_vrm_least_squares(samples, ridge=0.0)

    def test_ipm_generated_data_held_out_error(self, rng):
        vrm = build_ipm_sampling_map(canonical_rig(), fv_shape=(6, 8), scale=128, bev_shape=(10, 4))
        def batch(n):
            out = []
            for _ in range(n):
                x = rng.normal(size=(6, 8, 4))
                y = (vrm.matrix @ x.reshape(-1, 4)).reshape(10, 4, 4)
                out.append((FeatureTensor(x, scale=128), FeatureTensor(y, scale=128)))
            return out

        fit = fit_vrm_least_squares(batch(24), ridge=0.0)  # 96 pairs >= 48
        held_x, held_y = batch(5)[0]
        pred = apply_vrm(fit, held_x).data
        rel = np.linalg.norm(pred - held_y.data) / np.linalg.norm(held_y.data)
        assert rel < 1e-6

    def test_empty_samples(self):
        with pytest.raises(InsufficientRank):
            fit_vrm_least_squares([], ridge=0.0)

    @pytest.mark.parametrize("ridge, error", [(np.nan, NonFiniteInput), (np.inf, NonFiniteInput), (-np.inf, NonFiniteInput),
                                              (-1.0, ValueError), (-1e-300, ValueError)])
    @pytest.mark.filterwarnings("error")
    def test_bad_ridge_is_refused_naming_it(self, rng, ridge, error):
        samples = [(FeatureTensor(rng.normal(size=(3, 4, 2)), scale=32), FeatureTensor(rng.normal(size=(2, 3, 2)), scale=32))]
        with pytest.raises(error, match="ridge"):
            fit_vrm_least_squares(samples, ridge=ridge)


class TestTypes:
    def test_feature_tensor_validation(self, rng):
        with pytest.raises(ValueError):
            FeatureTensor(rng.random((3, 4)), scale=32)

    def test_map_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            ViewRelationMap(matrix=np.zeros((5, 12)), fv_shape=(3, 4), bev_shape=(2, 3))

    def test_pyramid_spec_validation(self):
        with pytest.raises(ValueError):
            PyramidSpec(scales=(32, 32), bev_shape=(2, 3))
