import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanebev.errors import InvalidValue, NonFiniteInput, ShapeMismatch, TooManyInstances
from lanebev.lane_grid import (
    GridSpec,
    GridTensors,
    Lane3D,
    encode_lanes,
    ideal_prediction,
    simplex_vertices,
)


def straight_lane(y, lane_id=1, x0=3.0, x1=103.0, z=0.0):
    return Lane3D(points=np.array([[x0, y, z], [x1, y, z]]), id=lane_id)


# 20 x 8 cells, so that lanes share cells often
SMALL_GRID = GridSpec(x_min=0.0, x_max=10.0, y_min=-2.0, y_max=2.0, cell=0.5)
# quarter cells reaching 0.5 m past either side: a straight lane's offset is
# -0.5, -0.25, 0 or 0.25, so two lanes in a cell often tie on |offset|
QUARTER_CELL_Y = st.integers(-20, 20).map(lambda k: k * 0.125)
HEIGHT = st.floats(-1.0, 1.0)


@st.composite
def lane_sets(draw):
    """0-6 lanes with distinct ids from a drawn order of 1-6 (encode_lanes
    refuses a shared id), many straight, some reaching past the grid, some
    repeating an earlier lane's x-y course at another height, as it is or
    mirrored about its cells' centers (the same |offset|, other sign)."""
    ids = draw(st.permutations(range(1, 7)))
    lanes = []
    for _ in range(draw(st.integers(0, 6))):
        if lanes and draw(st.booleans()):
            points = draw(st.sampled_from(lanes)).points.copy()
            points[:, 2] = draw(HEIGHT)
            if draw(st.booleans()):
                cells = np.floor((points[:, 1] - SMALL_GRID.y_min) / SMALL_GRID.cell)
                points[:, 1] = 2.0 * (SMALL_GRID.y_min + (cells + 0.5) * SMALL_GRID.cell) - points[:, 1]
        else:
            x0 = draw(st.integers(-8, 40)) * 0.25
            x1 = x0 + draw(st.integers(1, 48)) * 0.25
            y0 = draw(QUARTER_CELL_Y)
            y1 = y0 if draw(st.booleans()) else draw(QUARTER_CELL_Y)
            points = np.array([[x0, y0, draw(HEIGHT)], [x1, y1, draw(HEIGHT)]])
        lanes.append(Lane3D(points=points, id=ids[len(lanes)]))
    return lanes


class TestGridSpec:
    def test_defaults_give_200_by_40(self):
        spec = GridSpec()
        assert spec.shape == (200, 40)
        assert spec.row_centers()[0] == 3.25
        assert spec.col_centers()[20] == 0.25

    def test_non_multiple_extent_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0, x_max=10.3, cell=0.5)
        with pytest.raises(ValueError):  # the extent overflows to inf cells
            GridSpec(x_min=-1e308, x_max=1e308)

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(cell=0.0)


class TestLane3D:
    def test_sorts_and_deduplicates(self):
        lane = Lane3D(points=np.array([[5.0, 1.0, 0.0], [3.0, 0.0, 0.0], [5.0, 9.0, 9.0], [4.0, 0.5, 0.0]]))
        assert np.array_equal(lane.x, [3.0, 4.0, 5.0])
        assert lane.y[2] == 1.0  # first occurrence of x=5 wins

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            Lane3D(points=np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [(np.nan, 0.0, 0.0), (4.0, np.nan, 0.0), (4.0, 0.0, np.inf)])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(NonFiniteInput, match="points"):
            Lane3D(points=np.array([[3.0, 0.0, 0.0], bad, [5.0, 0.0, 0.0]]))

    @given(
        xs=st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]), min_size=1, max_size=12),
        order=st.sampled_from(["sorted", "reversed", "shuffled"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    @example(xs=[-1.0, 0.5, 3.0], order="sorted", seed=0)  # strictly increasing: every point is kept
    @example(xs=[-0.0, 0.0, 1.0], order="sorted", seed=0)
    def test_keeps_the_first_point_of_each_x_as_np_unique(self, xs, order, seed):
        rng = np.random.default_rng(seed)
        x = np.array(xs)
        if order == "sorted":
            x = np.sort(x, kind="stable")
        elif order == "reversed":
            x = np.sort(x, kind="stable")[::-1]
        pts = np.column_stack([x, rng.normal(size=len(x)), rng.normal(size=len(x))])
        want = pts[np.unique(pts[:, 0], return_index=True)[1]]
        if len(want) < 2:
            with pytest.raises(ValueError):
                Lane3D(points=pts)
            return
        lane = Lane3D(points=pts)
        assert lane.points.tobytes() == want.tobytes()  # -0.0 and 0.0 keep their sign
        assert not np.shares_memory(lane.points, pts)


class TestEncodeLanes:
    def test_boundary_lane_hits_column_20_with_minus_half_offset(self):
        # y = 0 sits on the boundary between the centers -0.25 and +0.25;
        # floor((0+10)/0.5) = 20, offset (0 - 0.25)/0.5 = -0.5
        gt = encode_lanes([straight_lane(0.0)])
        assert gt.confidence.sum() == 200.0
        rows, cols = np.nonzero(gt.instance)
        assert np.all(cols == 20)
        assert np.all(gt.offset[rows, cols] == -0.5)

    def test_center_aligned_lane_has_zero_offset(self):
        gt = encode_lanes([straight_lane(0.25)])
        rows, cols = np.nonzero(gt.instance)
        assert np.all(cols == 20)
        assert np.all(gt.offset[rows, cols] == 0.0)

    @pytest.mark.parametrize("y", [1e308, -1e308, np.finfo(float).max])
    def test_lane_far_off_the_grid_is_dropped(self, y):
        # once a RuntimeWarning from the overflowing cell fraction
        gt = encode_lanes([straight_lane(y)])
        assert gt.confidence.sum() == 0
        assert gt.instance.sum() == 0

    def test_empty_lane_list(self):
        gt = encode_lanes([])
        assert gt.confidence.sum() == 0
        assert gt.instance.sum() == 0
        assert np.all(gt.offset == 0.0)
        assert np.all(gt.height == 0.0)

    def test_out_of_range_points_silently_clipped(self):
        gt = encode_lanes([straight_lane(15.0)])  # fully outside laterally
        assert gt.confidence.sum() == 0
        partial = encode_lanes([Lane3D(points=np.array([[3.0, 9.0, 0.0], [103.0, 12.0, 0.0]]), id=1)])
        assert 0 < partial.confidence.sum() < 200

    def test_reconstruction_recovers_lane_exactly(self, rng):
        spec = GridSpec()
        xs = np.linspace(3.0, 103.0, 41)
        lane = Lane3D(points=np.column_stack([xs, 2.0 + 0.05 * xs, 0.1 * np.sin(xs / 7.0)]), id=1)
        gt = encode_lanes([lane], spec)
        rows, cols = np.nonzero(gt.instance)
        y_rec = spec.y_min + (cols + 0.5 + gt.offset[rows, cols]) * spec.cell
        y_true = np.interp(spec.row_centers()[rows], lane.x, lane.y)
        assert np.abs(y_rec - y_true).max() < 1e-9

    def test_height_is_interpolated_z(self):
        xs = np.arange(3.0, 104.0, 1.0)
        z = np.sin(xs / 10.0)
        lane = Lane3D(points=np.column_stack([xs, np.zeros_like(xs), z]), id=1)
        spec = GridSpec()
        gt = encode_lanes([lane], spec)
        rows, cols = np.nonzero(gt.instance)
        z_true = np.interp(spec.row_centers()[rows], xs, z)
        assert np.abs(gt.height[rows, cols] - z_true).max() < 1e-12

    def test_overlap_nearest_to_center_wins(self):
        # both lanes land in column 20 (center y = 0.25)
        near = straight_lane(0.35, lane_id=2)  # offset +0.2
        far = straight_lane(0.10, lane_id=1)  # offset -0.3
        gt = encode_lanes([far, near])
        assert np.all(gt.instance[:, 20] == 2)
        assert np.allclose(gt.offset[:, 20], 0.2)

    def test_overlap_tie_goes_to_lower_id(self):
        a = straight_lane(0.10, lane_id=3)  # offset -0.3
        b = straight_lane(0.40, lane_id=5)  # offset +0.3
        for order in ([a, b], [b, a]):
            gt = encode_lanes(order)
            assert np.all(gt.instance[:, 20] == 3)

    def test_permutation_stable(self):
        lanes = [straight_lane(-3.0, 1), straight_lane(0.1, 2), straight_lane(4.4, 3)]
        fwd = encode_lanes(lanes)
        rev = encode_lanes(lanes[::-1])
        assert np.array_equal(fwd.instance, rev.instance)
        assert np.array_equal(fwd.offset, rev.offset)

    def test_confident_cells_equal_covered_rows(self):
        spec = GridSpec()
        lane = Lane3D(points=np.array([[10.0, 1.0, 0.0], [50.0, 1.0, 0.0]]), id=1)
        gt = encode_lanes([lane], spec)
        covered = ((spec.row_centers() >= 10.0) & (spec.row_centers() <= 50.0)).sum()
        assert gt.confidence.sum() == covered

    def test_nonpositive_id_rejected(self):
        with pytest.raises(ValueError):
            encode_lanes([straight_lane(0.0, lane_id=0)])

    @given(
        ys=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=5),
        slope=st.floats(-0.05, 0.05),
    )
    @settings(max_examples=40, deadline=None)
    def test_offset_range_property(self, ys, slope):
        lanes = [
            Lane3D(points=np.array([[3.0, y, 0.0], [103.0, y + slope * 100.0, 0.0]]), id=i + 1)
            for i, y in enumerate(ys)
        ]
        gt = encode_lanes(lanes)
        on = gt.instance > 0
        if on.any():
            assert gt.offset[on].min() >= -0.5
            assert gt.offset[on].max() < 0.5
        assert np.all(gt.offset[~on] == 0.0)


    @given(lanes=lane_sets())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_cell_reference(self, lanes):
        for order in (lanes, lanes[::-1]):
            got = encode_lanes(order, SMALL_GRID)
            want = reference_encode_lanes(order, SMALL_GRID)
            for name in ("confidence", "offset", "height", "instance"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

class TestSimplexVertices:
    def test_pairwise_unit_distances(self):
        for n, dim in [(2, 4), (3, 4), (5, 4), (7, 8)]:
            v = simplex_vertices(n, dim)
            for i in range(n):
                for j in range(i + 1, n):
                    assert abs(np.linalg.norm(v[i] - v[j]) - 1.0) < 1e-12

    def test_capacity(self):
        with pytest.raises(TooManyInstances):
            simplex_vertices(6, 4)


class TestIdealPrediction:
    def test_two_lanes_center_distance(self):
        gt = encode_lanes([straight_lane(-2.0, 1), straight_lane(2.0, 2)])
        pred = ideal_prediction(gt, embed_dim=4)
        e1 = pred.embedding[gt.instance == 1][0]
        e2 = pred.embedding[gt.instance == 2][0]
        assert abs(np.linalg.norm(e1 - e2) - 6.0) < 1e-9  # 2 * DELTA_D

    def test_background_embedding_is_zero(self):
        gt = encode_lanes([])
        pred = ideal_prediction(gt)
        assert np.all(pred.embedding == 0.0)
        gt2 = encode_lanes([straight_lane(0.0)])
        pred2 = ideal_prediction(gt2)
        assert np.all(pred2.embedding[gt2.instance == 0] == 0.0)

    def test_copies_other_channels(self):
        gt = encode_lanes([straight_lane(1.3)])
        pred = ideal_prediction(gt)
        assert np.array_equal(pred.confidence, gt.confidence)
        assert np.array_equal(pred.offset, gt.offset)
        assert np.array_equal(pred.height, gt.height)

    def test_six_lanes_overflow_default_dim(self):
        lanes = [straight_lane(-7.5 + 3.0 * k, k + 1) for k in range(6)]
        gt = encode_lanes(lanes)
        with pytest.raises(TooManyInstances):
            ideal_prediction(gt, embed_dim=4)
        pred = ideal_prediction(gt, embed_dim=8)
        assert pred.embedding.shape == (200, 40, 8)


_Z = np.zeros((2, 2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GridSpec(cell=0.0), "GridSpec.cell: must be positive"),
        (lambda: GridSpec(x_min=5.0, x_max=5.0), "GridSpec.x_max: must exceed x_min"),
        (lambda: GridSpec(y_min=1.0, y_max=-1.0), "GridSpec.y_max: must exceed y_min"),
        (lambda: GridSpec(x_min=0.0, x_max=10.3), "GridSpec.cell: must divide the x extent"),
        (lambda: GridSpec(cell=1e308), "GridSpec.cell: must give 1 to 2**23 - 1 x cells"),
        (lambda: GridSpec(cell=1e-300), "GridSpec.cell: must give 1 to 2**23 - 1 x cells"),
        (lambda: GridSpec(cell=1e-6), "GridSpec.cell: must give 1 to 2**23 - 1 x cells"),
        (lambda: Lane3D(points=np.zeros((3, 3)), id=3), "Lane3D.points: lane 3 needs at least 2 points with distinct x"),
        (lambda: GridTensors(_Z + 2.0, _Z, _Z), "GridTensors.confidence: values must lie in [0, 1]"),
        (lambda: GridTensors(_Z + 1.0, _Z + 0.7, _Z, instance=_Z + 1), "GridTensors.offset: values on lane cells"),
        (lambda: encode_lanes([straight_lane(0.0, 0)]), "encode_lanes.lanes: ids must be positive"),
        (lambda: encode_lanes([straight_lane(-2.0, 1), straight_lane(2.0, 2), straight_lane(4.0, 1)]), "encode_lanes.lanes: id 1 is shared"),
    ],
)
def test_refused_value_raises_invalid_value_naming_the_field(build, message):
    with pytest.raises(InvalidValue) as err:
        build()
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Lane3D(points=np.zeros((3, 2))), "Lane3D.points: shape (3, 2) differs from (*, 3)"),
        (lambda: GridTensors(np.zeros(4), np.zeros(4), np.zeros(4)), "GridTensors.confidence: shape (4,) differs"),
        (lambda: GridTensors(_Z, np.zeros((2, 3)), _Z), "GridTensors.offset: shape (2, 3) differs from (2, 2)"),
        (lambda: GridTensors(_Z, _Z, np.zeros((3, 2))), "GridTensors.height: shape (3, 2) differs from (2, 2)"),
        (lambda: GridTensors(_Z, _Z, _Z, instance=np.zeros(4)), "GridTensors.instance: shape (4,) differs from (2, 2)"),
        (lambda: GridTensors(_Z, _Z, _Z, embedding=np.zeros((2, 3, 4))), "GridTensors.embedding: shape (2, 3, 4) differs"),
        # as decode_grid refuses a prediction
        (lambda: ideal_prediction(GridTensors(_Z, _Z, _Z)), "ideal_prediction.gt: needs an instance tensor"),
        (lambda: ideal_prediction(encode_lanes([]), SMALL_GRID), "ideal_prediction.gt: shape (200, 40) differs from the grid's"),
    ],
)
def test_wrong_shape_raises_shape_mismatch_naming_the_field(build, message):
    with pytest.raises(ShapeMismatch) as err:
        build()
    assert str(err.value).startswith(message) and isinstance(err.value, ValueError)


class TestGridTensors:
    def test_confidence_range_validated(self):
        with pytest.raises(ValueError):
            GridTensors(confidence=np.full((2, 2), 1.5), offset=np.zeros((2, 2)), height=np.zeros((2, 2)))

    def test_offset_range_validated_on_lane_cells(self):
        inst = np.array([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            GridTensors(
                confidence=np.ones((2, 2)),
                offset=np.array([[0.7, 0.0], [0.0, 0.0]]),
                height=np.zeros((2, 2)),
                instance=inst,
            )

    @pytest.mark.parametrize("field, value", [("confidence", np.nan), ("offset", np.inf), ("height", -np.inf)])
    def test_non_finite_channel_rejected(self, field, value):
        channels = {name: np.zeros((2, 2)) for name in ("confidence", "offset", "height")}
        channels[field][1, 0] = value
        with pytest.raises(NonFiniteInput, match=field):
            GridTensors(**channels)

    def test_shape_consistency_validated(self):
        with pytest.raises(ValueError):
            GridTensors(confidence=np.zeros((2, 2)), offset=np.zeros((2, 3)), height=np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(0, 40), (200, 0)])
    def test_empty_grid_is_built(self, shape):
        # the [0, 1] test once used min() and max(), which raise a bare ValueError on no values
        empty = np.zeros(shape)
        assert GridTensors(confidence=empty, offset=empty, height=empty, instance=empty).shape == shape


def reference_encode_lanes(lanes, spec):
    """The documented claim rule as a plain loop over every lane's hit cells:
    a sample takes a cell that is empty, or held by a sample farther from the
    cell center, or equally far with a higher lane id."""
    s1, s2 = spec.shape
    conf = np.zeros((s1, s2))
    off = np.zeros((s1, s2))
    hgt = np.zeros((s1, s2))
    inst = np.zeros((s1, s2), dtype=int)
    claim = np.full((s1, s2), np.inf)
    xs = spec.row_centers()
    for lane in lanes:
        rows = np.nonzero((xs >= lane.x[0]) & (xs <= lane.x[-1]))[0]
        y = np.interp(xs[rows], lane.x, lane.y)
        z = np.interp(xs[rows], lane.x, lane.z)
        frac = (y - spec.y_min) / spec.cell
        cols = np.floor(frac).astype(int)
        inside = (cols >= 0) & (cols < s2)
        offsets = frac - cols - 0.5
        for r, c, o, zz in zip(rows[inside], cols[inside], offsets[inside], z[inside]):
            better = abs(o) < claim[r, c] or (abs(o) == claim[r, c] and lane.id < inst[r, c])
            if inst[r, c] == 0 or better:
                conf[r, c] = 1.0
                off[r, c] = o
                hgt[r, c] = zz
                inst[r, c] = lane.id
                claim[r, c] = abs(o)
    return GridTensors(confidence=conf, offset=off, height=hgt, instance=inst)
