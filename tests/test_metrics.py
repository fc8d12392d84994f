from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from lanebev.errors import EmptyInput, InvalidValue, NonFiniteInput, ShapeMismatch
from lanebev.lane_grid import Lane3D
from lanebev.metrics import (
    EvalConfig,
    MatchedPair,
    Matching,
    _assign,
    evaluate,
    evaluate_frames,
    match_lanes,
    resample_lane,
)


def lane(y0, slope=0.0, x0=3.0, x1=103.0, z=0.0, lane_id=1, n=60):
    x = np.linspace(x0, x1, n)
    return Lane3D(points=np.column_stack([x, y0 + slope * (x - x0), np.full_like(x, z)]), id=lane_id)


def shifted(lanes, dy=0.0, dz=0.0):
    return [
        Lane3D(points=lane.points + np.array([0.0, dy, dz]), id=lane.id)
        for lane in lanes
    ]


COORD = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def lane_lists(draw, base=()):
    """0-4 lanes of 2-4 points over random x spans (some disjoint from the
    others), half of them copies of a `base` lane moved by a random shift."""
    lanes = []
    for _ in range(draw(st.integers(0, 4))):
        if base and draw(st.booleans()):
            lanes.append(shifted([draw(st.sampled_from(base))], dy=draw(COORD) / 4.0, dz=draw(COORD) / 20.0)[0])
            continue
        x = draw(st.lists(st.floats(0.0, 110.0), min_size=2, max_size=4, unique=True))
        points = [[xi, draw(COORD), draw(COORD) / 5.0] for xi in x]
        lanes.append(Lane3D(points=np.array(points), id=len(lanes) + 1))
    return lanes


class TestResampleLane:
    def test_inside_span_valid(self):
        pts, valid = resample_lane(lane(2.0), [5.0])
        assert valid[0]
        assert pts[0, 1] == 2.0

    def test_outside_span_invalid(self):
        pts, valid = resample_lane(lane(2.0, x1=50.0), [60.0])
        assert not valid[0]

    def test_hand_interpolation(self):
        # y = 2 + 0.1 (x - 3): at x = 13 the value is 3.0
        pts, valid = resample_lane(lane(2.0, slope=0.1), [13.0])
        assert valid[0]
        assert abs(pts[0, 1] - 3.0) < 1e-12


class TestMatchLanes:
    def test_identical_lists_all_tp_zero_cost(self):
        lanes = [lane(-3.0, lane_id=1), lane(0.0, lane_id=2), lane(3.0, lane_id=3)]
        m = match_lanes(lanes, lanes)
        assert m.tp == 3
        assert all(p.cost == 0.0 for p in m.pairs)

    def test_empty_predictions(self):
        m = match_lanes([], [lane(0.0)])
        assert m.tp == 0
        assert m.pairs == []

    def test_two_gt_one_pred_assignment(self):
        # 2x1 assignment by hand: the pred at y=0.1 must pair with the y=0 lane
        gts = [lane(0.0, lane_id=1), lane(3.0, lane_id=2)]
        pred = [lane(0.1, lane_id=1)]
        m = match_lanes(pred, gts, EvalConfig())
        assert len(m.pairs) == 1
        assert m.pairs[0].gt_index == 0
        assert m.pairs[0].is_tp  # 0.1 <= 1.5 threshold
        tight = match_lanes(pred, gts, EvalConfig(match_threshold=0.05))
        assert tight.tp == 0

    def test_tp_ratio_is_a_division(self):
        # 7 of the 25 valid samples are close: 7 / 25 >= 0.28 holds, while
        # 7 >= 0.28 * 25 (= 7.000000000000001) would not
        cfg = EvalConfig(sample_xs=tuple(float(x) for x in range(25)), match_threshold=1.0, match_ratio=0.28)
        gt = lane(0.0, x0=0.0, x1=24.0, n=25)
        pred = Lane3D(points=np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [7.0, 2.0, 0.0], [24.0, 2.0, 0.0]]), id=1)
        m = match_lanes([pred], [gt], cfg)
        assert m.tp == 1

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_reference(self, data):
        gts = data.draw(lane_lists(), label="gts")
        preds = data.draw(lane_lists(base=gts), label="preds")
        cfg = EvalConfig(
            match_threshold=data.draw(st.sampled_from([0.3, 1.5])),
            match_ratio=data.draw(st.sampled_from([0.5, 0.7, 0.75, 1.0])),
        )
        want, cost = reference_match_lanes(preds, gts, cfg)
        totals = sorted(sum(cost[i, j] for i, j in pairs) for pairs in assignments(*cost.shape))
        assume(len(totals) < 2 or totals[1] - totals[0] > 1e-9)
        got = match_lanes(preds, gts, cfg)
        assert [(p.pred_index, p.gt_index, p.is_tp) for p in got.pairs] == [
            (p.pred_index, p.gt_index, p.is_tp) for p in want.pairs
        ]
        for g, w in zip(got.pairs, want.pairs):
            assert abs(g.cost - w.cost) <= 1e-12 * w.cost
            for name in ("covalid", "y_diff", "z_diff"):
                assert np.array_equal(getattr(g, name), getattr(w, name)), name

    def test_no_covalid_samples_is_infeasible(self):
        gt = lane(0.0, x0=3.0, x1=40.0)
        pred = lane(0.0, x0=60.0, x1=103.0)
        m = match_lanes([pred], [gt])
        assert m.pairs == []
        assert m.tp == 0

    def test_lanes_whose_distance_overflows_stay_unmatched(self):
        # (2e200)**2 is beyond the float range: the pair is infeasible, not an error
        far_pred, far_gt = lane(1e200, lane_id=1), lane(-1e200, lane_id=1)
        m = match_lanes([far_pred], [far_gt])
        assert m.pairs == []
        assert evaluate([far_pred], [far_gt]).tp == 0
        near = lane(0.25, lane_id=2)
        alone = match_lanes([near], [lane(0.0)])
        both = match_lanes([far_pred, near], [lane(0.0), far_gt])
        assert [(p.pred_index, p.gt_index, p.is_tp) for p in both.pairs] == [(1, 0, True)]
        assert both.pairs[0].cost == alone.pairs[0].cost


# Cost cells: random floats, small integers that tie often, and a mix of
# finite costs with the 1e12 that marks a pair with no co-valid samples
COST_CELLS = {
    "floats": st.floats(-1e3, 1e3, allow_nan=False),
    "ties": st.sampled_from([0.0, 1.0, 2.0]),
    "infeasible": st.sampled_from([1e12, 1e12, 0.0, 1.0]) | st.floats(0.0, 10.0),
}


def assert_same_assignment(cost):
    want = linear_sum_assignment(cost)
    got = _assign(cost)
    for w, g in zip(want, got):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


class TestAssign:
    """_assign is scipy.optimize.linear_sum_assignment's algorithm with its
    tie rules, so the two return the same pairs on any cost matrix."""

    @given(data=st.data(), shape=st.tuples(st.integers(0, 12), st.integers(0, 12)))
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy(self, data, shape):
        kind = data.draw(st.sampled_from(sorted(COST_CELLS) + ["all_equal"]))
        if kind == "all_equal":
            cost = np.full(shape, data.draw(st.floats(-1e3, 1e3, allow_nan=False) | st.just(1e12)))
        else:
            cost = data.draw(hnp.arrays(float, shape, elements=COST_CELLS[kind]))
        assert_same_assignment(cost)

    @pytest.mark.parametrize("shape", [(40, 6), (6, 40), (12, 300)])
    def test_matches_scipy_on_wide_and_tall(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            assert_same_assignment(rng.random(shape))
            assert_same_assignment(rng.integers(0, 3, shape).astype(float))
            assert_same_assignment(np.where(rng.random(shape) < 0.5, 1e12, rng.random(shape)))
        assert_same_assignment(np.full(shape, 1e12))

    def test_constant_cost_is_the_identity(self):
        rows, cols = _assign(np.zeros((3, 5)))
        assert rows.tolist() == [0, 1, 2] and cols.tolist() == [0, 1, 2]

    def test_row_of_infinite_costs_is_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            _assign(np.array([[np.inf, np.inf], [1.0, 2.0]]))


class TestEvaluate:
    def test_identical_sets_perfect(self):
        lanes = [lane(-3.5, lane_id=1), lane(0.0, lane_id=2), lane(3.5, lane_id=3)]
        res = evaluate(lanes, lanes)
        assert res.f_score == 1.0
        assert res.precision == 1.0 and res.recall == 1.0
        assert res.x_err_near == 0.0 and res.x_err_far == 0.0
        assert res.z_err_near == 0.0 and res.z_err_far == 0.0

    def test_uniform_lateral_shift(self):
        gts = [lane(-3.0, lane_id=1), lane(3.0, lane_id=2)]
        preds = shifted(gts, dy=0.1)
        res = evaluate(preds, gts)
        assert res.f_score == 1.0
        assert abs(res.x_err_near - 0.1) < 1e-9
        assert abs(res.x_err_far - 0.1) < 1e-9
        assert res.z_err_near == 0.0

    def test_empty_predictions_zero_recall(self):
        res = evaluate([], [lane(0.0)])
        assert res.recall == 0.0
        assert res.precision == 0.0
        assert res.f_score == 0.0

    def test_empty_empty_convention(self):
        res = evaluate([], [])
        assert res.precision == 1.0 and res.recall == 1.0 and res.f_score == 1.0
        assert res.x_err_near is None  # undefined buckets are absent, not NaN

    def test_spurious_prediction_never_raises_precision(self, rng):
        gts = [lane(-3.0, lane_id=1), lane(3.0, lane_id=2)]
        preds = list(gts)
        base = evaluate(preds, gts)
        for extra_y in (-9.0, 7.5, 0.9):
            more = preds + [lane(extra_y, lane_id=9)]
            assert evaluate(more, gts).precision <= base.precision

    def test_removing_gt_never_lowers_recall(self):
        gts = [lane(-3.0, lane_id=1), lane(3.0, lane_id=2), lane(9.0, lane_id=3)]
        preds = [lane(-3.0, lane_id=1), lane(3.0, lane_id=2)]
        full = evaluate(preds, gts)
        fewer = evaluate(preds, gts[:2])
        assert fewer.recall >= full.recall

    def test_translation_covariance(self):
        gts = [lane(-2.0, slope=0.01, z=0.3, lane_id=1), lane(2.0, lane_id=2)]
        preds = shifted(gts, dy=0.2, dz=0.1)
        a = evaluate(preds, gts)
        b = evaluate(shifted(preds, dy=1.0, dz=-0.5), shifted(gts, dy=1.0, dz=-0.5))
        assert a.f_score == b.f_score
        assert abs(a.x_err_near - b.x_err_near) < 1e-12
        assert abs(a.z_err_far - b.z_err_far) < 1e-12

    def test_near_far_split(self):
        # error only beyond 40 m: near bucket stays clean
        x = np.arange(3.0, 104.0, 1.0)
        y_gt = np.zeros_like(x)
        y_pred = np.where(x > 40.0, 0.2, 0.0)
        gt = Lane3D(points=np.column_stack([x, y_gt, np.zeros_like(x)]), id=1)
        pred = Lane3D(points=np.column_stack([x, y_pred, np.zeros_like(x)]), id=1)
        res = evaluate([pred], [gt])
        assert res.x_err_near == 0.0
        assert abs(res.x_err_far - 0.2) < 1e-12

    def test_f_score_bounded(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            gts = [lane(float(y), lane_id=i + 1) for i, y in enumerate(r.uniform(-8, 8, r.integers(0, 4)))]
            preds = [lane(float(y), lane_id=i + 1) for i, y in enumerate(r.uniform(-8, 8, r.integers(0, 4)))]
            res = evaluate(preds, gts)
            assert 0.0 <= res.f_score <= 1.0


class TestAggregation:
    def test_micro_average_sums_counts(self):
        gts = [lane(0.0, lane_id=1)]
        frames = [(gts, gts), ([], gts)]  # one perfect frame, one empty-pred frame
        res = evaluate_frames(frames)
        assert res.tp == 1 and res.n_pred == 1 and res.n_gt == 2
        assert res.precision == 1.0
        assert res.recall == 0.5
        assert abs(res.f_score - 2 * 1.0 * 0.5 / 1.5) < 1e-12

    def test_error_sums_weighted_by_points(self):
        gts = [lane(0.0, lane_id=1)]
        frames = [(shifted(gts, dy=0.1), gts), (shifted(gts, dy=0.3), gts)]
        res = evaluate_frames(frames)
        assert abs(res.x_err_near - 0.2) < 1e-9  # equal point counts: plain mean


    def test_no_frames_raise(self):
        with pytest.raises(EmptyInput):
            evaluate_frames([])

    def test_one_frame_without_lanes_scores_one(self):
        res = evaluate([], [])
        assert (res.f_score, res.precision, res.recall) == (1.0, 1.0, 1.0)
        assert res.tp == res.n_pred == res.n_gt == 0


class TestEvalConfig:
    def test_default_samples(self):
        cfg = EvalConfig()
        assert cfg.sample_xs[0] == 3.0
        assert cfg.sample_xs[-1] == 98.0
        assert len(cfg.sample_xs) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(sample_xs=(5.0, 3.0))
        with pytest.raises(ValueError):
            EvalConfig(match_ratio=0.0)
        with pytest.raises(ValueError):
            EvalConfig(match_threshold=0.0)
        with pytest.raises(NonFiniteInput):
            EvalConfig(match_threshold=float("nan"))
        with pytest.raises(ValueError):
            EvalConfig(sample_xs=())
        with pytest.raises(ValueError):
            EvalConfig(sample_xs=(3.0, 8.0, 8.0))
        with pytest.raises(NonFiniteInput):
            EvalConfig(near_limit=float("nan"))
        with pytest.raises(NonFiniteInput):
            EvalConfig(near_limit=float("inf"))

    @pytest.mark.parametrize(
        "kwargs",
        [{"sample_xs": (5.0, 3.0)}, {"sample_xs": ()}, {"match_ratio": 0.0}, {"match_ratio": np.nan},
         {"match_threshold": -1.0}, {"match_threshold": np.nan}, {"near_limit": -np.inf}],
    )
    def test_refused_value_raises_invalid_value_naming_the_field(self, kwargs):
        # NaN and infinity are NonFiniteInput, as in every scalar field
        ((field, value),) = kwargs.items()
        error = NonFiniteInput if np.size(value) == 1 and not np.isfinite(value) else InvalidValue
        with pytest.raises(error, match=rf"^EvalConfig\.{field}: "):
            EvalConfig(**kwargs)

    @pytest.mark.parametrize("sample_xs, error", [(5, ShapeMismatch), ([np.nan], NonFiniteInput)])
    def test_sample_xs_is_one_finite_array_field(self, sample_xs, error):
        with pytest.raises(error, match=r"^EvalConfig\.sample_xs: "):
            EvalConfig(sample_xs=sample_xs)


def assignments(n_rows, n_cols):
    """Every way to pair min(n_rows, n_cols) rows with distinct columns, as (row, col) lists."""
    if n_rows <= n_cols:
        return [list(zip(range(n_rows), cols)) for cols in permutations(range(n_cols), n_rows)]
    return [list(zip(rows, range(n_cols))) for rows in permutations(range(n_rows), n_cols)]


def reference_match_lanes(preds, gts, cfg):
    """The matching protocol as a plain loop over every prediction-truth pair;
    returns the Matching and the cost matrix."""
    xs = np.asarray(cfg.sample_xs)
    rp = [resample_lane(lane, xs) for lane in preds]
    rg = [resample_lane(lane, xs) for lane in gts]
    cost = np.full((len(preds), len(gts)), 1e12)
    dists = {}
    for i, (pp, pv) in enumerate(rp):
        for j, (gp, gv) in enumerate(rg):
            both = pv & gv
            d = np.sqrt((pp[:, 1] - gp[:, 1]) ** 2 + (pp[:, 2] - gp[:, 2]) ** 2)
            dists[i, j] = (both, d)
            if both.any():
                cost[i, j] = float(d[both].mean())
    pairs = []
    if len(preds) and len(gts):
        rows, cols = linear_sum_assignment(cost)
        for i, j in zip(rows, cols):
            if cost[i, j] >= 1e12:
                continue
            both, d = dists[i, j]
            gt_valid = rg[j][1]
            n_close = int(((d <= cfg.match_threshold) & both).sum())
            is_tp = gt_valid.any() and n_close / int(gt_valid.sum()) >= cfg.match_ratio
            pp, gp = rp[i][0], rg[j][0]
            pairs.append(
                MatchedPair(
                    pred_index=i,
                    gt_index=j,
                    cost=cost[i, j],
                    is_tp=is_tp,
                    covalid=both,
                    y_diff=np.abs(pp[:, 1] - gp[:, 1]),
                    z_diff=np.abs(pp[:, 2] - gp[:, 2]),
                )
            )
    return Matching(pairs=pairs, n_pred=len(preds), n_gt=len(gts)), cost
