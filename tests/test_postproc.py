import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanebev import data_io, postproc
from lanebev.errors import InvalidValue, LaneBevError, NonFiniteInput, ShapeMismatch
from lanebev.lane_grid import GridSpec, GridTensors, Lane3D, encode_lanes, ideal_prediction
from lanebev.metrics import evaluate
from lanebev.postproc import DecodeParams, LaneInstance, _cluster_scan, decode_grid, decode_lanes, fit_lanes
from lanebev.synth import SceneParams, generate_scene

from test_acceptance import _acceptance_scenes


def straight_lane(y, lane_id=1):
    return Lane3D(points=np.array([[3.0, y, 0.0], [103.0, y, 0.0]]), id=lane_id)


def two_lane_ideal(spec=GridSpec()):
    gt = encode_lanes([straight_lane(-2.0, 1), straight_lane(2.0, 2)], spec)
    return gt, ideal_prediction(gt, spec)


def replay_scan(pred, spec, params):
    """Independent pure-Python replay of the published clustering scan."""
    s1, s2 = spec.shape
    order = [(r, c) for c in range(s2) for r in range(s1) if pred.confidence[r, c] >= params.s_threshold]
    centers = []  # (vector, count)
    assignments = []
    for r, c in order:
        value = [float(v) for v in pred.embedding[r, c]]
        min_gap = params.d_gap + 1.0
        min_cid = -1
        for cid, (center, _) in enumerate(centers):
            s = 0.0
            for a, b in zip(center, value):
                d = a - b
                s += d * d
            diff = math.sqrt(s)
            if diff < min_gap:
                min_gap = diff
                min_cid = cid
        if min_gap < params.d_gap:
            center, num = centers[min_cid]
            centers[min_cid] = ([(cv * num + vv) / (num + 1) for cv, vv in zip(center, value)], num + 1)
            assignments.append((r, c, min_cid, min_gap))
        else:
            centers.append((value, 1))
            assignments.append((r, c, len(centers) - 1, None))
    return assignments, centers


def scan_matches_replay(values, d_gap):
    """Run the scan on `values` (n, D) and check it against replay_scan.

    The values become a one-column grid, whose scan order is row order.
    Returns the scan's assignments.
    """
    vals = np.ascontiguousarray(values, dtype=float)
    n = len(vals)
    spec = GridSpec(x_min=0.0, x_max=0.5 * n, y_min=0.0, y_max=0.5, cell=0.5)
    pred = GridTensors(
        confidence=np.ones((n, 1)),
        offset=np.zeros((n, 1)),
        height=np.zeros((n, 1)),
        embedding=vals[:, None, :],
    )
    assignments, centers = replay_scan(pred, spec, DecodeParams(d_gap=d_gap))
    assign, counts = _cluster_scan(vals, d_gap)
    assert assign.tolist() == [cid for _, _, cid, _ in assignments]
    assert counts.tolist() == [num for _, num in centers]
    return assign


def criterion6_values(sigma):
    """Scan-order embeddings of acceptance criterion 6's grid (6 lanes, D = 8) plus N(0, sigma) noise."""
    scene = generate_scene(SceneParams(n_lanes=6, lane_spacing=3.0, camera_jitter=(0.0, 0.0), seed=77))
    spec = GridSpec()
    pred = ideal_prediction(encode_lanes(scene.lanes, spec), spec, embed_dim=8)
    keep = np.argwhere(pred.confidence.T >= DecodeParams().s_threshold)
    vals = pred.embedding[keep[:, 1], keep[:, 0]]
    return vals + np.random.default_rng(6).normal(0.0, sigma, vals.shape)


@st.composite
def scan_inputs(draw):
    """(values, d_gap): Gaussian clusters, half-integer lattices or repeated values."""
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 150))
    dim = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["gaussian", "lattice", "repeated"]))
    if kind == "lattice":
        # exact ties and distances of exactly d_gap are common
        return r.integers(-3, 4, size=(n, dim)) * 0.5, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    centers = r.normal(size=(draw(st.integers(1, 8)), dim)) * 3.0
    labels = r.integers(0, len(centers), n)
    if draw(st.booleans()):
        labels.sort()  # one run per cluster, as a lane's cells come in scan order
    if kind == "repeated":
        return centers[labels], 1.5
    return centers[labels] + r.normal(size=(n, dim)) * draw(st.sampled_from([0.3, 0.4, 1.0])), 1.5


class TestClusterScanMatchesReplay:
    @given(case=scan_inputs())
    @settings(max_examples=60, deadline=None)
    def test_generated_inputs(self, case):
        values, d_gap = case
        scan_matches_replay(values, d_gap)

    def test_center_drift_flips_a_block_start_decision(self):
        # 0.9 pulls the first center to 0.3, so 1.1 joins it although the
        # second center was the nearer one when their block began
        values = [[0.0], [2.0], [0.0], [2.0], [0.9], [1.1]]
        assert scan_matches_replay(values, 2.0).tolist() == [0, 1, 0, 1, 0, 0]

    @pytest.mark.parametrize("sigma", [0.3, 0.4, 1.0])
    def test_noisy_criterion6_grid(self, sigma):
        scan_matches_replay(criterion6_values(sigma), DecodeParams().d_gap)


class TestClusterScanBlocks:
    """Blocks are counted, not timed: a block decides its opens and re-decides its close calls itself."""

    def blocks(self, values):
        with mock.patch.object(postproc, "_decide_block", wraps=postproc._decide_block) as block:
            _cluster_scan(values, DecodeParams().d_gap)
        return block.call_count

    def test_clean_criterion6_grid_keeps_long_blocks(self):
        assert self.blocks(criterion6_values(0.0)) <= 10

    def test_opens_do_not_end_blocks(self):
        values = criterion6_values(1.0)
        _, counts = _cluster_scan(values, DecodeParams().d_gap)
        assert len(counts) > 900  # nearly every cell opens a center
        assert self.blocks(values) <= 100

    @pytest.mark.parametrize("cap", [2**6, 2**9, 2**12])
    def test_blocks_cut_to_the_memory_cap_match_replay(self, cap):
        # twelve clusters in runs: with a small cap, blocks that touch many
        # columns are cut short of their new lanes' first cells
        r = np.random.default_rng(3)
        values = r.normal(size=(12, 4))[np.sort(r.integers(0, 12, 400))] * 3.0 + r.normal(size=(400, 4)) * 0.2
        with mock.patch.object(postproc, "_MAX_BLOCK_FLOATS", cap):
            scan_matches_replay(values, 1.5)


class TestClusterScanExactStep:
    """Near-ties the block decisions cannot certify go through the published per-cell step."""

    def scan(self, values, d_gap):
        with mock.patch.object(postproc, "_exact_step", wraps=postproc._exact_step) as step:
            assign = scan_matches_replay(values, d_gap)
        assert step.called
        return assign

    def test_equidistant_cell_joins_earlier_center(self):
        # (1, 0.5) is sqrt(1.25) from both (0, 0) and (2, 0), bit for bit
        values = [[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [0.1, 0.0], [1.9, 0.1]]
        assert self.scan(values, 1.5).tolist() == [0, 1, 0, 0, 1]

    def test_cell_at_exactly_d_gap_opens_new_center(self):
        # after three members the running mean is (0.5, 0, 0), exactly 1.5 from the fourth cell
        values = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.1, 0.0]]
        assert self.scan(values, 1.5).tolist() == [0, 0, 0, 1, 0]

    def test_one_ulp_closer_later_center_wins(self):
        x = math.nextafter(1.0, 0.0)
        values = [[2.0, 0.0], [0.0, 0.0], [x, 0.0], [2.1, 0.0]]
        # published distances from x: 1.0 to the first center, one ulp less to the second
        assert abs(2.0 - x) == 1.0 and math.nextafter(abs(0.0 - x), 2.0) == 1.0
        assert self.scan(values, 1.5).tolist() == [0, 1, 1, 0]


class TestDecodeGrid:
    def test_all_below_threshold_gives_empty(self, rng):
        spec = GridSpec(x_min=0.0, x_max=5.0, y_min=-2.0, y_max=2.0, cell=0.5)
        pred = GridTensors(
            confidence=np.full(spec.shape, 0.4),
            offset=np.zeros(spec.shape),
            height=np.zeros(spec.shape),
            embedding=rng.normal(size=spec.shape + (4,)),
        )
        assert decode_grid(pred, spec) == []

    def test_ideal_two_lane_clusters_match_instances(self):
        spec = GridSpec()
        gt, pred = two_lane_ideal(spec)
        instances = decode_grid(pred, spec)
        assert len(instances) == 2
        decoded_cells = []
        for inst in instances:
            rows = np.round((inst.points[:, 0] - spec.x_min) / spec.cell - 0.5).astype(int)
            cols = np.floor((inst.points[:, 1] - spec.y_min) / spec.cell).astype(int)
            decoded_cells.append(set(zip(rows.tolist(), cols.tolist())))
        truth_cells = [
            set(zip(*np.nonzero(gt.instance == k))) for k in (1, 2)
        ]
        truth_cells = [{(int(r), int(c)) for r, c in s} for s in truth_cells]
        assert decoded_cells[0] in truth_cells and decoded_cells[1] in truth_cells
        assert decoded_cells[0] != decoded_cells[1]

    def test_identical_embeddings_keep_center_exact(self):
        spec = GridSpec()
        gt = encode_lanes([straight_lane(0.25)], spec)
        pred = ideal_prediction(gt, spec)
        pred.embedding[gt.instance == 1] = np.array([1.25, -0.5, 2.0, 0.75])
        instances = decode_grid(pred, spec)
        assert len(instances) == 1
        # running mean of identical values stays bit-identical
        _, centers = replay_scan(pred, spec, DecodeParams())
        assert centers[0][0] == [1.25, -0.5, 2.0, 0.75]

    def test_deterministic_across_runs(self, rng):
        spec = GridSpec(x_min=0.0, x_max=10.0, y_min=-5.0, y_max=5.0, cell=0.5)
        pred = GridTensors(
            confidence=rng.random(spec.shape),
            offset=rng.uniform(-0.5, 0.5, spec.shape),
            height=rng.normal(size=spec.shape),
            embedding=rng.normal(size=spec.shape + (4,)),
        )
        a = decode_grid(pred, spec, DecodeParams(min_points=2))
        b = decode_grid(pred, spec, DecodeParams(min_points=2))
        assert len(a) == len(b)
        for ia, ib in zip(a, b):
            assert ia.cluster_id == ib.cluster_id
            assert np.array_equal(ia.points, ib.points)

    def test_matches_independent_replay(self, rng):
        # random embeddings: every assignment and center must agree with a
        # from-scratch replay of the scan (also pins the d_gap gate rule)
        spec = GridSpec(x_min=0.0, x_max=10.0, y_min=-5.0, y_max=5.0, cell=0.5)
        for seed in range(5):
            r = np.random.default_rng(seed)
            pred = GridTensors(
                confidence=r.random(spec.shape),
                offset=np.zeros(spec.shape),
                height=np.zeros(spec.shape),
                embedding=r.normal(size=spec.shape + (3,)) * 2.0,
            )
            params = DecodeParams(min_points=2, d_gap=2.0)
            instances = decode_grid(pred, spec, params)
            assignments, centers = replay_scan(pred, spec, params)
            by_cluster = {}
            for row, col, cid, gap in assignments:
                by_cluster.setdefault(cid, []).append((row, col))
                if gap is not None:
                    assert gap < params.d_gap  # member was inside the gate when assigned
            expected = {cid: cells for cid, cells in by_cluster.items() if len(cells) >= params.min_points}
            got = {}
            for inst in instances:
                rows = np.round((inst.points[:, 0] - spec.x_min) / spec.cell - 0.5).astype(int)
                cols = np.floor((inst.points[:, 1] - spec.y_min + 1e-9) / spec.cell).astype(int)
                got[inst.cluster_id] = list(zip(rows.tolist(), cols.tolist()))
            assert set(got) == set(expected)
            for cid in got:
                assert got[cid] == expected[cid]

    def test_point_positions_use_offset_and_height(self):
        spec = GridSpec(x_min=0.0, x_max=2.0, y_min=-1.0, y_max=1.0, cell=0.5)
        conf = np.zeros(spec.shape)
        off = np.zeros(spec.shape)
        hgt = np.zeros(spec.shape)
        emb = np.zeros(spec.shape + (2,))
        for r in range(4):
            conf[r, 1] = 1.0
            off[r, 1] = 0.25
            hgt[r, 1] = 0.5 + r
        pred = GridTensors(confidence=conf, offset=off, height=hgt, embedding=emb)
        inst = decode_grid(pred, spec, DecodeParams(min_points=2))
        assert len(inst) == 1
        pts = inst[0].points
        assert np.allclose(pts[:, 0], [0.25, 0.75, 1.25, 1.75])
        assert np.allclose(pts[:, 1], -1.0 + (1 + 0.5 + 0.25) * 0.5)
        assert np.allclose(pts[:, 2], [0.5, 1.5, 2.5, 3.5])

    def test_points_stay_within_half_cell_of_center(self, rng):
        spec = GridSpec(x_min=0.0, x_max=10.0, y_min=-5.0, y_max=5.0, cell=0.5)
        pred = GridTensors(
            confidence=rng.random(spec.shape),
            offset=rng.uniform(-0.5, 0.5, spec.shape),
            height=np.zeros(spec.shape),
            embedding=np.zeros(spec.shape + (2,)),
        )
        for inst in decode_grid(pred, spec, DecodeParams(min_points=2)):
            cols = np.floor((inst.points[:, 1] - spec.y_min) / spec.cell + 1e-12).astype(int)
            centers = spec.y_min + (cols + 0.5) * spec.cell
            assert np.abs(inst.points[:, 1] - centers).max() <= 0.5 * spec.cell + 1e-12

    def test_invariant_under_orthogonal_embedding_transform(self, rng):
        spec = GridSpec(x_min=0.0, x_max=10.0, y_min=-5.0, y_max=5.0, cell=0.5)
        emb = rng.normal(size=spec.shape + (4,)) * 2.0
        conf = rng.random(spec.shape)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        base = GridTensors(confidence=conf, offset=np.zeros(spec.shape), height=np.zeros(spec.shape), embedding=emb)
        rotated = GridTensors(confidence=conf, offset=np.zeros(spec.shape), height=np.zeros(spec.shape), embedding=emb @ q.T)
        a = decode_grid(base, spec, DecodeParams(min_points=2))
        b = decode_grid(rotated, spec, DecodeParams(min_points=2))
        assert [i.cluster_id for i in a] == [i.cluster_id for i in b]
        for ia, ib in zip(a, b):
            assert np.allclose(ia.points, ib.points)

    def test_raising_threshold_never_adds_points(self, rng):
        spec = GridSpec(x_min=0.0, x_max=10.0, y_min=-5.0, y_max=5.0, cell=0.5)
        pred = GridTensors(
            confidence=rng.random(spec.shape),
            offset=np.zeros(spec.shape),
            height=np.zeros(spec.shape),
            embedding=rng.normal(size=spec.shape + (3,)),
        )
        sizes = []
        for thr in (0.3, 0.5, 0.7, 0.9):
            instances = decode_grid(pred, spec, DecodeParams(s_threshold=thr, min_points=2))
            sizes.append(sum(len(i.points) for i in instances))
        assert sizes == sorted(sizes, reverse=True)

    def test_missing_embedding_rejected(self):
        spec = GridSpec(x_min=0.0, x_max=2.0, y_min=-1.0, y_max=1.0, cell=0.5)
        pred = GridTensors(confidence=np.zeros(spec.shape), offset=np.zeros(spec.shape), height=np.zeros(spec.shape))
        with pytest.raises(ShapeMismatch):
            decode_grid(pred, spec)

    def test_grid_of_another_shape_rejected(self):
        spec = GridSpec(x_min=0.0, x_max=2.0, y_min=-1.0, y_max=1.0, cell=0.5)
        z = np.zeros(spec.shape)
        pred = GridTensors(confidence=z, offset=z, height=z, embedding=np.zeros(spec.shape + (2,)))
        with pytest.raises(ShapeMismatch, match=r"^decode_grid\.pred: shape \(4, 4\) differs from the grid's \(200, 40\)"):
            decode_grid(pred)

    def test_scan_matches_plain_python_replay(self, rng):
        # 300 random values at d_gap 2.0 open about a hundred centers
        vals = rng.normal(size=(300, 4)) * 2.0
        scan_matches_replay(vals, 2.0)

    def test_lattice_values_match_replay(self):
        # half-integer lattice points: exact ties and distances of exactly d_gap are common
        for seed in range(100):
            r = np.random.default_rng(seed)
            values = r.integers(-3, 4, size=(int(r.integers(1, 60)), 2)) * 0.5
            scan_matches_replay(values, float(r.choice([0.5, 1.0, 1.5, 2.0])))

    def test_non_finite_embedding_rejected(self):
        spec = GridSpec(x_min=0.0, x_max=2.0, y_min=-1.0, y_max=1.0, cell=0.5)
        conf = np.zeros(spec.shape)
        conf[:, 1] = 1.0
        emb = np.zeros(spec.shape + (2,))
        emb[0, 0, 1] = np.inf  # below the confidence gate: never read
        pred = GridTensors(confidence=conf, offset=np.zeros(spec.shape), height=np.zeros(spec.shape), embedding=emb)
        assert len(decode_grid(pred, spec, DecodeParams(min_points=2))) == 1
        pred.embedding[2, 1, 0] = np.nan
        with pytest.raises(NonFiniteInput, match="embedding") as err:
            decode_grid(pred, spec, DecodeParams(min_points=2))
        assert isinstance(err.value, LaneBevError)


class TestFitLanes:
    def test_line_fits_exactly(self):
        x = np.linspace(5.0, 50.0, 12)
        inst = LaneInstance(cluster_id=0, points=np.column_stack([x, 0.1 * x + 1.0, np.zeros_like(x)]))
        fit = fit_lanes([inst])[0]
        assert np.abs(fit.y(x) - (0.1 * x + 1.0)).max() < 1e-9
        assert np.abs(fit.z(x)).max() < 1e-12
        assert fit.x_range == (5.0, 50.0)

    def test_cubic_recovered(self):
        # oracle: synthesize from known coefficients, fit must reproduce values
        x = np.linspace(3.0, 103.0, 40)
        y = 1.0 - 0.02 * x + 3e-4 * x**2 - 1e-6 * x**3
        z = 0.5 + 1e-3 * x - 2e-5 * x**2
        inst = LaneInstance(cluster_id=0, points=np.column_stack([x, y, z]))
        fit = fit_lanes([inst], DecodeParams(fit_degree=3))[0]
        assert np.abs(fit.y(x) - y).max() < 1e-8
        assert np.abs(fit.z(x) - z).max() < 1e-8

    def test_degree_capped_by_point_count(self):
        pts = np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [3.0, 4.0, 0.0]])
        fit = fit_lanes([LaneInstance(cluster_id=0, points=pts)], DecodeParams(fit_degree=3, min_points=3))[0]
        assert len(fit.y_coeffs) == 3  # degree 2

    def test_identical_abscissae_raise(self):
        # Lane3D refuses the cluster, naming it as decode_lanes's lane id
        pts = np.array([[2.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 2.0, 0.0], [2.0, 3.0, 0.0]])
        with pytest.raises(InvalidValue, match=r"^Lane3D\.points: lane 5 needs at least 2 points with distinct x"):
            fit_lanes([LaneInstance(cluster_id=4, points=pts)])

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_vandermonde_is_polyvander_bit_for_bit(self, degree):
        rng = np.random.default_rng(degree)
        for n in range(2, 301):
            t = np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, n - 2)])
            want = np.polynomial.polynomial.polyvander(t, degree)
            assert postproc._vander(t, degree).tobytes() == np.ascontiguousarray(want).tobytes(), n


def reference_fit(inst, degree):
    """The earlier fit, kept as the reference: the first cell of each row in
    scan order, then one lstsq for y and another for z."""
    pts = inst.points[np.sort(np.unique(inst.points[:, 0], return_index=True)[1])]
    x = pts[:, 0]
    lo, hi = float(x.min()), float(x.max())
    v = np.polynomial.polynomial.polyvander((2.0 * x - (lo + hi)) / (hi - lo), min(degree, len(x) - 1))
    y_coeffs = np.linalg.lstsq(v, pts[:, 1], rcond=None)[0]
    z_coeffs = np.linalg.lstsq(v, pts[:, 2], rcond=None)[0]
    return y_coeffs, z_coeffs, (lo, hi)


def noisy_prediction(seed, spec=GridSpec()):
    """A prediction like the benchmark's noisy frames: a seeded 4-lane scene's
    ideal grid (D = 8) with embedding noise of sigma 0.4, about 2% confident
    background cells and small offset and height noise."""
    rng = np.random.default_rng(seed)
    scene = generate_scene(SceneParams(n_lanes=4, curvature=(-2e-4, 2e-4), hill_amplitude=1.0, seed=seed))
    gt = encode_lanes(scene.lanes, spec)
    ideal = ideal_prediction(gt, spec, embed_dim=8)
    lane = gt.instance > 0
    logits = np.where(lane, rng.normal(2.0, 1.5, lane.shape), rng.normal(-3.0, 1.5, lane.shape))
    return GridTensors(
        confidence=1.0 / (1.0 + np.exp(-logits)),
        offset=np.clip(gt.offset + rng.normal(0.0, 0.05, lane.shape), -0.49, 0.49),
        height=gt.height + rng.normal(0.0, 0.02, lane.shape),
        embedding=ideal.embedding + rng.normal(0.0, 0.4, ideal.embedding.shape),
    )


class TestFitMatchesReference:
    # One joint solve on x-sorted points moves fits by at most 4.5e-13 m on
    # the benchmark's frames; the tolerance is fixed at about 2,000 times that.
    def assert_fits_match(self, instances, degree):
        fits = fit_lanes(instances, DecodeParams(fit_degree=degree))
        assert len(fits) == len(instances)
        for inst, fit in zip(instances, fits):
            y_coeffs, z_coeffs, x_range = reference_fit(inst, degree)
            assert fit.x_range == x_range
            assert np.allclose(fit.y_coeffs, y_coeffs, rtol=1e-9, atol=1e-9)
            assert np.allclose(fit.z_coeffs, z_coeffs, rtol=1e-9, atol=1e-9)

    def test_acceptance_scenes(self):
        spec = GridSpec()
        for scene_params in _acceptance_scenes():
            pred = ideal_prediction(encode_lanes(generate_scene(scene_params).lanes, spec), spec, embed_dim=8)
            self.assert_fits_match(decode_grid(pred, spec), 3)

    @pytest.mark.parametrize("degree", [1, 3, 5])
    def test_noisy_grids(self, degree):
        shared_rows = 0
        for seed in range(6):
            instances = decode_grid(noisy_prediction(seed))
            shared_rows += sum(len(np.unique(inst.points[:, 0])) < len(inst.points) for inst in instances)
            self.assert_fits_match(instances, degree)
        assert shared_rows > 0  # some clusters hold several cells in one row


def cells_prediction(cells, spec=GridSpec(), dim=2):
    """Prediction with confidence 1 on `cells`, a list of (row, col, embedding), zero offsets
    and a height of row + col / 8 on every cell."""
    conf = np.zeros(spec.shape)
    emb = np.zeros(spec.shape + (dim,))
    for r, c, e in cells:
        conf[r, c] = 1.0
        emb[r, c] = e
    rows, cols = np.indices(spec.shape)
    return GridTensors(confidence=conf, offset=np.zeros(spec.shape), height=rows + cols / 8, embedding=emb)


class TestDecodeLanes:
    def test_five_cells_in_two_rows_fit_the_two_kept_points(self):
        pred = cells_prediction([(10, c, (0.0, 0.0)) for c in (10, 11, 12)] + [(20, c, (0.0, 0.0)) for c in (10, 11)])
        lanes, fits = decode_lanes(pred)
        assert len(lanes) == len(fits) == 1
        lane, fit = lanes[0], fits[0]
        assert lane.id == 1
        assert np.array_equal(lane.points, [[8.25, -4.75, 11.25], [13.25, -4.75, 21.25]])  # column 10 of each row
        assert len(fit.y_coeffs) == len(fit.z_coeffs) == 2  # degree 1
        assert np.abs(fit.y(lane.x) - lane.y).max() < 1e-12
        assert np.abs(fit.z(lane.x) - lane.z).max() < 1e-12
        assert fit.x_range == (8.25, 13.25)

    def test_one_row_cluster_is_dropped(self):
        lane_cells = [(r, 5, (0.0, 0.0)) for r in range(200)]
        blob = [(50, c, (10.0, 0.0)) for c in range(30, 34)]
        pred = cells_prediction(lane_cells + blob)
        assert [inst.cluster_id for inst in decode_grid(pred)] == [0, 1]
        lanes, fits = decode_lanes(pred)
        assert [lane.id for lane in lanes] == [1]
        assert len(fits) == 1 and len(lanes[0].points) == 200

    def test_acceptance_scenes_match_the_hand_assembly(self, tmp_path):
        spec, params = GridSpec(), DecodeParams()
        for scene_params in _acceptance_scenes():
            pred = ideal_prediction(encode_lanes(generate_scene(scene_params).lanes, spec), spec, embed_dim=8)
            instances = decode_grid(pred, spec, params)
            hand = [Lane3D(points=inst.points, id=inst.cluster_id + 1) for inst in instances]
            data_io.save_lanes(hand, tmp_path / "hand.json", fit_lanes(instances, params))
            lanes, fits = decode_lanes(pred, spec, params)
            data_io.save_lanes(lanes, tmp_path / "lanes.json", fits)
            assert (tmp_path / "lanes.json").read_bytes() == (tmp_path / "hand.json").read_bytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_blobs=st.integers(1, 4),
        s_threshold=st.floats(0.3, 0.9),
        fit_degree=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_point_per_row_and_fit_on_those_points(self, seed, n_blobs, s_threshold, fit_degree):
        # few rows and many columns, so clusters often hold several cells per row
        spec = GridSpec(x_min=3.0, x_max=7.0, y_min=-3.0, y_max=3.0, cell=0.5)
        params = DecodeParams(s_threshold=s_threshold, min_points=2, fit_degree=fit_degree)
        rng = np.random.default_rng(seed)
        centers = rng.normal(0.0, 3.0, (n_blobs, 2))
        pred = GridTensors(
            confidence=rng.random(spec.shape),
            offset=rng.uniform(-0.5, 0.5, spec.shape),
            height=rng.normal(0.0, 1.0, spec.shape),
            embedding=centers[rng.integers(n_blobs, size=spec.shape)] + rng.normal(0.0, 0.3, spec.shape + (2,)),
        )
        lanes, fits = decode_lanes(pred, spec, params)
        rows = {inst.cluster_id + 1: len(np.unique(inst.points[:, 0])) for inst in decode_grid(pred, spec, params)}
        assert [lane.id for lane in lanes] == [cid for cid, n in rows.items() if n >= 2]
        for lane, fit in zip(lanes, fits, strict=True):
            assert len(lane.points) == rows[lane.id]
            assert fit.x_range == (lane.x[0], lane.x[-1])
            assert len(fit.y_coeffs) - 1 <= min(params.fit_degree, rows[lane.id] - 1)
            # the same fit, up to rounding, as one of the lane's own points in x order
            (own,) = fit_lanes([LaneInstance(cluster_id=lane.id - 1, points=lane.points)], params)
            assert np.allclose(fit.y_coeffs, own.y_coeffs, rtol=1e-9, atol=1e-9)
            assert np.allclose(fit.z_coeffs, own.z_coeffs, rtol=1e-9, atol=1e-9)


class TestDecodeParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s_threshold": 0.0},
            {"s_threshold": 1.0},
            {"d_gap": 0.0},
            {"min_points": 1},
            {"min_points": 4.0},
            {"min_points": True},
            {"fit_degree": 0},
            {"fit_degree": 2.5},
            {"fit_degree": True},
            {"d_gap": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        # NaN is NonFiniteInput, as in every scalar field
        ((field, value),) = kwargs.items()
        error = NonFiniteInput if isinstance(value, float) and math.isnan(value) else InvalidValue
        with pytest.raises(error, match=rf"^DecodeParams\.{field}: "):
            DecodeParams(**kwargs)

    def test_empty_lane_instance_names_the_cluster(self):
        with pytest.raises(InvalidValue, match=r"^LaneInstance\.points: cluster 7 needs at least one point"):
            LaneInstance(cluster_id=7, points=np.zeros((0, 3)))


class TestOracleRoundtrip:
    @given(
        n_lanes=st.integers(1, 6),
        bend=st.floats(0.0, 1.0),
        hill=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_ideal_grid_decodes_to_f1(self, n_lanes, bend, hill, seed):
        # the benchmark workloads' scenes: lanes 3.5 m apart, curvature capped so
        # the outermost lane stays on the grid
        spec = GridSpec()
        outer = (n_lanes - 1) / 2.0 * 3.5
        c_max = bend * min(3e-4, (spec.y_max - spec.cell - outer) / spec.x_max**2)
        scene = generate_scene(SceneParams(n_lanes=n_lanes, curvature=(-c_max, c_max), hill_amplitude=hill, seed=seed))
        pred = ideal_prediction(encode_lanes(scene.lanes, spec), spec, embed_dim=8)
        instances = decode_grid(pred, spec)
        assert len(fit_lanes(instances)) == n_lanes
        lanes = [Lane3D(points=inst.points, id=inst.cluster_id + 1) for inst in instances]
        assert evaluate(lanes, scene.lanes).f_score == 1.0
