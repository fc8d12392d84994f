"""Lane-level evaluation: F-Score and lateral/height errors near and far.

Lanes are resampled by linear interpolation at fixed forward positions
(default every 5 m from 3 m to 98 m).  Prediction/ground-truth pairs are
matched one-to-one by a minimum-cost assignment on the mean pointwise
lateral-vertical distance over co-valid samples; the (P, G) costs and the
per-pair co-valid masks come from one broadcast of the (P, N) prediction
samples against the (G, N) ground-truth samples.  The assignment is the
shortest augmenting path method of Crouse ("On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016), which scipy's
linear_sum_assignment runs, ported here with every rule that breaks ties
(_assign); it takes O(min(P, G)^2 * max(P, G)) interpreted steps, and a
frame holds a few ground-truth lanes.  A matched pair is a true
positive when at least `match_ratio` of the ground-truth lane's valid
samples lie within `match_threshold`.  Lateral ("x error") and height
("z error") statistics are means of absolute differences over the true
positives' co-valid samples, split at `near_limit` meters forward.

Frames aggregate micro-style: counts and error sums are added across
frames before ratios are formed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product
from math import inf

import numpy as np

from .errors import EmptyInput, InvalidValue, _checked, _Declared, _field
from .lane_grid import Lane3D

_INFEASIBLE = 1e12


@dataclass(frozen=True)
class EvalConfig(_Declared):
    sample_xs: tuple[float, ...] = _field(tuple(float(x) for x in range(3, 103, 5)))
    match_threshold: float = _field(1.5, "positive")
    match_ratio: float = _field(0.75, "in (0, 1]")
    near_limit: float = _field(40.0)

    def __post_init__(self):
        super().__post_init__()
        xs = self.sample_xs
        if not xs or not all(a < b for a, b in zip(xs, xs[1:])):
            raise InvalidValue(f"EvalConfig.sample_xs: must be non-empty and strictly ascending, got {xs}")


@dataclass
class MatchedPair:
    pred_index: int
    gt_index: int
    cost: float
    is_tp: bool
    # per-sample arrays over cfg.sample_xs
    covalid: np.ndarray
    y_diff: np.ndarray
    z_diff: np.ndarray


@dataclass
class Matching:
    pairs: list[MatchedPair]
    n_pred: int
    n_gt: int

    @property
    def tp(self) -> int:
        return sum(1 for p in self.pairs if p.is_tp)


@dataclass
class EvalResult(_Declared):
    f_score: float = _field(bounds="in [0, 1]")
    precision: float = _field(bounds="in [0, 1]")
    recall: float = _field(bounds="in [0, 1]")
    # an error is None with no sample to measure
    x_err_near: float | None = _field(bounds="non-negative")
    x_err_far: float | None = _field(bounds="non-negative")
    z_err_near: float | None = _field(bounds="non-negative")
    z_err_far: float | None = _field(bounds="non-negative")
    tp: int = _field(0, "non-negative")
    n_pred: int = _field(0, "non-negative")
    n_gt: int = _field(0, "non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


@_checked
def resample_lane(lane: Lane3D, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation of (x, y, z) at the given abscissae.

    Returns (points (N, 3), valid (N,)); samples outside the lane's x-span
    are flagged invalid (their y, z values are extrapolation artifacts and
    must not be used).
    """
    valid = (xs >= lane.x[0]) & (xs <= lane.x[-1])
    y = np.interp(xs, lane.x, lane.y)
    z = np.interp(xs, lane.x, lane.z)
    return np.column_stack([xs, y, z]), valid


def _resample_all(lanes: list[Lane3D], xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """resample_lane of every lane, stacked: points (L, N, 3) and valid (L, N)."""
    points = np.zeros((len(lanes), len(xs), 3))
    valid = np.zeros((len(lanes), len(xs)), dtype=bool)
    for k, lane in enumerate(lanes):
        points[k], valid[k] = resample_lane.__wrapped__(lane, xs)
    return points, valid


@_checked
def match_lanes(preds: list[Lane3D], gts: list[Lane3D], cfg: EvalConfig = EvalConfig()) -> Matching:
    """Optimal one-to-one assignment of predictions to ground truth.

    Pair cost is the mean over co-valid samples of the Euclidean distance
    in the lateral-vertical (y, z) plane; pairs with no co-valid samples,
    and pairs so far apart that the cost overflows, are infeasible and
    never become true positives.
    """
    xs = np.asarray(cfg.sample_xs)
    pred_pts, pred_valid = _resample_all(preds, xs)
    gt_pts, gt_valid = _resample_all(gts, xs)
    both = pred_valid[:, None] & gt_valid[None]  # (P, G, N)
    n_both = both.sum(axis=2)
    cost = np.full(n_both.shape, _INFEASIBLE)
    # Lanes about 1e154 m apart overflow to inf here; such a pair is infeasible.
    with np.errstate(over="ignore"):
        diff = pred_pts[:, None] - gt_pts[None]  # (P, G, N, 3); the x column is 0
        d = np.sqrt(diff[..., 1] ** 2 + diff[..., 2] ** 2)
        np.divide(np.where(both, d, 0.0).sum(axis=2), n_both, out=cost, where=n_both > 0)
    cost[~np.isfinite(cost)] = _INFEASIBLE

    rows, cols = _assign(cost)
    keep = cost[rows, cols] < _INFEASIBLE
    rows, cols = rows[keep], cols[keep]
    n_close = ((d[rows, cols] <= cfg.match_threshold) & both[rows, cols]).sum(axis=1)
    is_tp = n_close / gt_valid[cols].sum(axis=1) >= cfg.match_ratio
    pairs = [
        MatchedPair(
            pred_index=i,
            gt_index=j,
            cost=cost[i, j],
            is_tp=tp,
            covalid=both[i, j],
            y_diff=np.abs(diff[i, j, :, 1]),
            z_diff=np.abs(diff[i, j, :, 2]),
        )
        for i, j, tp in zip(rows, cols, is_tp.tolist())
    ]
    return Matching(pairs=pairs, n_pred=len(preds), n_gt=len(gts))


def _assign(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost one-to-one assignment of a (R, C) cost matrix: the row
    and column indices (int64) of min(R, C) pairs, sorted by row.

    Crouse's shortest augmenting path, with the rules of scipy's
    linear_sum_assignment, so both return the same pairs, ties included: a
    matrix with fewer columns than rows is solved transposed, the unvisited
    columns are scanned from a reversed list with swap-remove, and a column
    that ties the lowest reduced cost wins if it is unassigned.  A matrix
    with no assignment of finite cost raises ValueError, as scipy does.
    """
    transpose = cost.shape[1] < cost.shape[0]
    c = (cost.T if transpose else cost).tolist()
    nr = len(c)
    nc = len(c[0]) if nr else 0
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        spc, in_tree, done = [inf] * nc, [False] * nr, [False] * nc
        remaining = list(range(nc - 1, -1, -1))
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            in_tree[i] = True
            ci, ui, index, lowest = c[i], u[i], -1, inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            done[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(nr):
            if in_tree[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(nc):
            if done[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        rows, cols = [col4row[k] for k in order], order
    else:
        rows, cols = list(range(nr)), col4row
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


@_checked
def evaluate(preds: list[Lane3D], gts: list[Lane3D], cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Single-frame evaluation; see module docstring for the protocol."""
    return evaluate_frames.__wrapped__([(preds, gts)], cfg)


@_checked
def evaluate_frames(
    frames: list[tuple[list[Lane3D], list[Lane3D]]],
    cfg: EvalConfig = EvalConfig(),
) -> EvalResult:
    """Micro-averaged evaluation over (preds, gts) frames: true-positive,
    prediction and ground-truth counts and the error sums per distance
    bucket are summed before the ratios are formed.  Raises EmptyInput when
    there are no frames; one frame with no lanes on either side scores 1."""
    if not frames:
        raise EmptyInput("evaluate_frames needs at least one frame")
    near = np.asarray(cfg.sample_xs) <= cfg.near_limit
    tp = n_pred = n_gt = 0
    sums = np.zeros(4)  # x near, x far, z near, z far
    counts = np.zeros(4, dtype=int)
    for preds, gts in frames:
        matching = match_lanes.__wrapped__(preds, gts, cfg)
        tp += matching.tp
        n_pred += matching.n_pred
        n_gt += matching.n_gt
        for pair in matching.pairs:
            if not pair.is_tp:
                continue
            masks = (pair.covalid & near, pair.covalid & ~near)
            for k, (diff, mask) in enumerate(product((pair.y_diff, pair.z_diff), masks)):
                sums[k] += diff[mask].sum()
                counts[k] += int(mask.sum())

    if n_pred == 0 and n_gt == 0:
        precision = recall = 1.0
    else:
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gt if n_gt else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    errs = [float(s / c) if c else None for s, c in zip(sums, counts)]
    return EvalResult(
        f_score=f,
        precision=precision,
        recall=recall,
        x_err_near=errs[0],
        x_err_far=errs[1],
        z_err_near=errs[2],
        z_err_far=errs[3],
        tp=tp,
        n_pred=n_pred,
        n_gt=n_gt,
    )
